"""Data-driven relation discovery (§3.1).

The paper cannot align millions of generations to ConceptNet relations,
so it mines frequent *predicate patterns* from generations produced under
four seed relations, then canonicalizes (pattern, tail type) combinations
into the Table 2 taxonomy — e.g. the pattern "the product is capable of
being used [Prep]" splits into different relations by preposition and
tail type.  This module reproduces that mining over candidate texts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.domains import all_domains
from repro.core.relations import Relation, TailType

__all__ = ["DiscoveredRelation", "RelationDiscovery"]

MAX_EXAMPLES = 3        #: example tails kept per mined relation (Table 2's column)

# Surface predicate patterns to mine, longest first.  Each maps to the
# canonical relation *family*; the final relation is disambiguated by the
# tail's lexical type.
_PATTERNS: tuple[tuple[str, str], ...] = (
    ("is interested in", "interest"),
    ("wants to", "want"),
    ("is one of", "is_person"),
    ("is capable of", "capable"),
    ("is a type of", "isa"),
    ("is designed for", "used_for_aud"),
    ("can be used when they", "used_for_eve"),
    ("is used during", "used_on"),
    ("is used in the", "used_in_loc"),
    ("is used with", "used_with"),
    ("is used for", "used_for"),
    ("is used as", "used_as"),
    ("is used by", "used_by"),
    ("is used on", "used_in_body"),
    ("is used to", "used_to"),
)

# (pattern family, tail type) → canonical relation.
_CANONICAL: dict[tuple[str, TailType | None], Relation] = {
    ("interest", None): Relation.X_INTERESTED_IN,
    ("want", None): Relation.X_WANT,
    ("is_person", None): Relation.X_IS_A,
    ("capable", None): Relation.CAPABLE_OF,
    ("isa", None): Relation.IS_A,
    ("used_for_aud", None): Relation.USED_FOR_AUD,
    ("used_for_eve", None): Relation.USED_FOR_EVE,
    ("used_on", None): Relation.USED_ON,
    ("used_in_loc", None): Relation.USED_IN_LOC,
    ("used_with", None): Relation.USED_WITH,
    ("used_as", None): Relation.USED_AS,
    ("used_by", None): Relation.USED_BY,
    ("used_in_body", None): Relation.USED_IN_BODY,
    ("used_to", None): Relation.USED_TO,
    # "used for" splits by tail type — the paper's canonicalization step.
    ("used_for", TailType.FUNCTION): Relation.USED_FOR_FUNC,
    ("used_for", TailType.ACTIVITY): Relation.USED_FOR_EVE,
    ("used_for", TailType.AUDIENCE): Relation.USED_FOR_AUD,
    ("used_for", None): Relation.USED_FOR_FUNC,
}


@dataclass
class DiscoveredRelation:
    """One mined relation with evidence."""

    relation: Relation
    tail_type: TailType | None
    pattern: str
    count: int = field(default=0, init=False)
    examples: list[str] = field(default_factory=list, init=False)


class RelationDiscovery:
    """Mines predicate patterns and canonicalizes them into relations."""

    def __init__(self, min_count: int = 2):
        self.min_count = min_count
        self._tail_lexicon = self._build_tail_lexicon()

    @staticmethod
    def _build_tail_lexicon() -> dict[str, TailType]:
        """Phrase → tail type, from the domain lexicons (stand-in for the
        paper's manual tail canonicalization)."""
        lexicon: dict[str, TailType] = {}
        for domain in all_domains():
            for tail_type in TailType:
                for phrase in domain.tail_phrases(tail_type):
                    lexicon.setdefault(phrase.lower(), tail_type)
        return lexicon

    def _tail_type_of(self, tail: str) -> TailType | None:
        lowered = tail.lower().strip()
        if lowered in self._tail_lexicon:
            return self._tail_lexicon[lowered]
        # Strip a leading modifier word ("winter camping" → "camping").
        parts = lowered.split(" ", 1)
        if len(parts) == 2 and parts[1] in self._tail_lexicon:
            return self._tail_lexicon[parts[1]]
        return None

    def mine(self, texts: list[str]) -> list[DiscoveredRelation]:
        """Discover relations from raw generation texts.

        Returns relations ordered by support, each with its predicate
        pattern, inferred tail type and example tails — the content of
        Table 2.
        """
        found: dict[tuple[Relation, str], DiscoveredRelation] = {}
        for text in texts:
            cleaned = text.strip().rstrip(".").lower()
            for pattern, family in _PATTERNS:
                position = cleaned.find(pattern)
                if position < 0:
                    continue
                tail = cleaned[position + len(pattern):].strip()
                if not tail:
                    break
                tail_type = self._tail_type_of(tail)
                relation = _CANONICAL.get((family, tail_type), _CANONICAL[(family, None)])
                key = (relation, pattern)
                record = found.get(key)
                if record is None:
                    record = DiscoveredRelation(
                        relation=relation, tail_type=tail_type, pattern=pattern
                    )
                    found[key] = record
                record.count += 1
                if tail_type is not None and record.tail_type is None:
                    record.tail_type = tail_type
                if len(record.examples) < MAX_EXAMPLES and tail not in record.examples:
                    record.examples.append(tail)
                break  # longest pattern wins; stop scanning
        mined = [r for r in found.values() if r.count >= self.min_count]
        return sorted(mined, key=lambda r: -r.count)
