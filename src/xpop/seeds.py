"""Deterministic seed derivation (splitmix64-style).

Hierarchical seeds keep benchmark cells independent: adding a model or a
metric never perturbs the randomness consumed by another cell.
"""

from __future__ import annotations

import operator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(seed: int, *parts: int) -> int:
    """Fold integer path components into a fresh 64-bit seed; ``seed`` may be
    any integer type, numpy's included."""
    s = operator.index(seed) & _MASK
    for p in parts:
        s = splitmix64(s ^ ((p * _GOLDEN) & _MASK))
    return s
