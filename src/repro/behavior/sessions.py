"""Session log simulator for session-based recommendation (§4.2.1).

A session is a chronological sequence of (search query, clicked item)
steps driven by one latent intent, ending in a purchase.  Users may
*revise* their query mid-session (switching to a refined variant of the
intent), which is the behavior Table 7 quantifies: *electronics* sessions
are longer and contain more unique queries than *clothing* sessions, and
§4.2.4 attributes COSMO-GNN's larger gain on electronics to exactly this
query dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.behavior.intents import Intent
from repro.behavior.world import World
from repro.utils.rng import spawn_rng

__all__ = ["SessionStep", "Session", "SessionLog", "SessionConfig", "simulate_sessions"]

MIN_LENGTH, MAX_LENGTH = 3, 20      # session length bounds (steps)
DAYS = 7        #: days a log spans; ``build_session_dataset`` splits 5 / 1 / 1


@dataclass(frozen=True)
class SessionStep:
    """One interaction: the active query and the clicked item."""

    query_text: str
    item_id: str
    intent_id: str  # ground-truth intent active at this step


@dataclass(frozen=True)
class Session:
    """An anonymous behavior sequence ending in a purchase."""

    session_id: str
    domain: str
    day: int  # 0-6; §4.2.1 splits train/dev/test by day
    steps: tuple[SessionStep, ...] = field(hash=False)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def query_sequence(self) -> list[str]:
        return [step.query_text for step in self.steps]

    @property
    def unique_queries(self) -> int:
        return len(set(self.query_sequence))


@dataclass(frozen=True)
class SessionConfig:
    """Per-domain session dynamics (calibrated to Table 7 shape)."""

    domain: str
    n_sessions: int = 2000
    mean_length: float = 8.8
    revise_prob: float = 0.045


class SessionLog:
    """All sessions for one domain configuration."""

    def __init__(self, sessions: list[Session], domain: str):
        self.sessions = sessions
        self.domain = domain

    def __len__(self) -> int:
        return len(self.sessions)

    def by_day(self, days: set[int]) -> list[Session]:
        return [s for s in self.sessions if s.day in days]

    def stats(self) -> dict[str, float]:
        """Table 7 statistics: session length, query length, unique queries."""
        if not self.sessions:
            return {"sessions": 0, "avg_session_len": 0.0, "avg_query_len": 0.0,
                    "avg_unique_queries": 0.0}
        lengths = [len(s) for s in self.sessions]
        uniques = [s.unique_queries for s in self.sessions]
        return {
            "sessions": len(self.sessions),
            "avg_session_len": float(np.mean(lengths)),
            # Query sequence length equals session length in this world
            # (every step carries the active query), matching the near-equal
            # "Avg. Sess. L." vs "Avg. Q. L." columns of Table 7.
            "avg_query_len": float(np.mean(lengths)),
            "avg_unique_queries": float(np.mean(uniques)),
        }


def _query_for_intent(world: World, intent: Intent, rng: np.random.Generator) -> str:
    """A broad query text verbalizing ``intent`` (fresh phrasing each call)."""
    from repro.catalog.queries import render_broad_query

    return render_broad_query(intent.tail_type, intent.tail, rng)


def _next_item(world, intent, previous_id, rng):
    """Sample the next clicked item: stays within the intent's products."""
    candidates = world.catalog.serving_intent(intent.intent_id)
    candidates = [c for c in candidates if c.product_id != previous_id]
    if not candidates:
        candidates = world.catalog.for_domain(intent.domain)
    popularity = np.array([c.popularity for c in candidates])
    index = int(rng.choice(len(candidates), p=popularity / popularity.sum()))
    return candidates[index]


def simulate_sessions(world: World, config: SessionConfig, seed: int) -> SessionLog:
    """Generate one domain's session log."""
    rng = spawn_rng(seed, f"sessions:{config.domain}")
    intents = world.intents.for_domain(config.domain)
    sessions: list[Session] = []
    for session_index in range(config.n_sessions):
        intent = intents[int(rng.integers(len(intents)))]
        length = int(np.clip(rng.poisson(config.mean_length), MIN_LENGTH, MAX_LENGTH))
        query_text = _query_for_intent(world, intent, rng)
        steps: list[SessionStep] = []
        previous = None
        for _ in range(length):
            if steps and rng.random() < config.revise_prob:
                # Query revision: refine to a child intent when one exists,
                # otherwise re-verbalize the same intent differently.
                children = world.intents.children(intent.intent_id)
                if children:
                    intent = children[int(rng.integers(len(children)))]
                query_text = _query_for_intent(world, intent, rng)
            item = _next_item(world, intent, previous, rng)
            previous = item.product_id
            steps.append(SessionStep(query_text=query_text,
                                     item_id=item.product_id,
                                     intent_id=intent.intent_id))
        sessions.append(
            Session(
                session_id=f"s-{config.domain[:4]}-{session_index:06d}",
                domain=config.domain,
                day=int(rng.integers(DAYS)),
                steps=tuple(steps),
            )
        )
    return SessionLog(sessions, config.domain)
