"""Domain registry: typed access to the 18-category world specification."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.vocab import DOMAIN_SPECS, DOMAINS
from repro.core.relations import TailType

__all__ = ["Domain", "all_domains", "DOMAIN_NAMES"]

DOMAIN_NAMES: tuple[str, ...] = DOMAINS

# vocab bank key → tail type of the phrases it contains.
_BANK_TAIL_TYPES: dict[str, TailType] = {
    "functions": TailType.FUNCTION,
    "activities": TailType.ACTIVITY,
    "audiences": TailType.AUDIENCE,
    "locations": TailType.LOCATION,
    "times": TailType.TIME,
    "body_parts": TailType.BODY_PART,
    "interests": TailType.INTEREST,
    "complements": TailType.COMPLEMENT,
}


@dataclass(frozen=True)
class Domain:
    """One of the 18 major Amazon categories of Table 3."""

    name: str
    product_types: tuple[str, ...]
    intent_banks: dict[TailType, tuple[str, ...]] = field(hash=False)

    def tail_phrases(self, tail_type: TailType) -> tuple[str, ...]:
        """Phrases usable as tails of ``tail_type`` in this domain."""
        if tail_type == TailType.CONCEPT:
            return self.product_types
        return self.intent_banks.get(tail_type, ())


def _build_registry() -> dict[str, Domain]:
    registry: dict[str, Domain] = {}
    for name in DOMAINS:
        spec = DOMAIN_SPECS[name]
        banks = {
            tail_type: tuple(spec.get(bank_key, ()))
            for bank_key, tail_type in _BANK_TAIL_TYPES.items()
        }
        registry[name] = Domain(
            name=name,
            product_types=tuple(spec["product_types"]),
            intent_banks=banks,
        )
    return registry


_REGISTRY = _build_registry()


def all_domains() -> list[Domain]:
    """All 18 domains in Table 3 order."""
    return [_REGISTRY[name] for name in DOMAINS]
