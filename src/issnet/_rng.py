"""Deterministic seed derivation.

All randomness in the library flows from a single integer job seed.  Child
generators are derived from (seed, *tags) through sha256, never from global
state, so re-runs reproduce bit-identical streams in any evaluation order
and on every platform.  The builtin hash() is salted per process and must not be
used here.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derived_seed(seed: int, *tags) -> int:
    """Stable 64-bit child seed for (seed, tags).

    Tags may be ints, floats, or strings; floats are keyed by their IEEE
    bit pattern so 0.1 and 0.1000000001 derive different streams.
    """
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for tag in tags:
        if isinstance(tag, bool):
            h.update(b"b" + bytes([tag]))
        elif isinstance(tag, (int, np.integer)):
            h.update(b"i" + int(tag).to_bytes(16, "little", signed=True))
        elif isinstance(tag, (float, np.floating)):
            h.update(b"f" + np.float64(tag).tobytes())
        elif isinstance(tag, str):
            h.update(b"s" + tag.encode("utf-8"))
        else:
            raise TypeError(f"unsupported seed tag type: {type(tag)!r}")
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")


def derived_rng(seed: int, *tags) -> np.random.Generator:
    """Child Generator for (seed, tags); PCG64 with a derived seed."""
    return np.random.default_rng(derived_seed(seed, *tags))
