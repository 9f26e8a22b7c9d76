"""In-house embedding service stand-in (used by §3.3.1 similarity filtering)."""

from repro.embeddings.encoder import TextEncoder
from repro.embeddings.hashing import hashed_bow

__all__ = ["TextEncoder", "hashed_bow"]
