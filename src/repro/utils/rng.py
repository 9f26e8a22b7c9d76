"""Deterministic random-number-generator management.

Every stochastic component in the reproduction draws from a
:class:`numpy.random.Generator` obtained through :func:`spawn_rng`.
Child generators are derived from a root seed plus a
string *scope*, so adding a new component never perturbs the random streams
of existing ones (a property the end-to-end regression tests rely on).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["spawn_rng"]


def _scope_to_entropy(scope: str) -> int:
    """Hash a scope string into a stable 64-bit integer."""
    digest = hashlib.sha256(scope.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def spawn_rng(seed: int, scope: str = "") -> np.random.Generator:
    """Return a generator derived from ``seed`` and an optional ``scope``.

    The same ``(seed, scope)`` pair always yields an identical stream, and
    distinct scopes yield statistically independent streams.
    """
    if scope:
        seq = np.random.SeedSequence([seed, _scope_to_entropy(scope)])
    else:
        seq = np.random.SeedSequence(seed)
    return np.random.default_rng(seq)
