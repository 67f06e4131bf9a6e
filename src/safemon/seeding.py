"""Deterministic derivation of every random stream from one root seed.

All randomness in the package flows through (root seed, purpose label)
pairs so that any run is reproducible from its root seed alone. Labels
are plain strings such as ``"collect:episode:17"``.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root: int, label: str) -> int:
    """Map a (root seed, purpose label) pair to a stable 64-bit seed.

    Uses SHA-256 so the mapping is identical across platforms and
    Python processes (the builtin ``hash`` is salted and is not).
    """
    digest = hashlib.sha256(f"{root}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(root: int, label: str) -> np.random.Generator:
    """Seeded generator for one purpose-labelled random stream."""
    return np.random.default_rng(derive_seed(root, label))

