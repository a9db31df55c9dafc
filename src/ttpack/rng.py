"""Counter-based deterministic randomness.

Every random decision in the package is keyed by (seed, counter...) through
a splitmix64-style mixer, so edge orientations, trial sub-seeds and shuffle
orders are reproducible independently of iteration order, worker count, or
refactoring.  The stdlib has no counter-based generator, hence the small
hand-rolled finalizer (the standard splitmix64 constants).
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix(*words: int) -> int:
    """Hash a tuple of integers to a 64-bit value, order-sensitive."""
    x = 0x243F6A8885A308D3  # arbitrary fixed offset, not tunable
    for w in words:
        x = _splitmix64((x ^ (w & _MASK64)) & _MASK64)
    return x


def coin(seed: int, index: int) -> int:
    """Unbiased bit for counter `index` under `seed`."""
    return mix(seed, index) & 1


def sub_seed(seed: int, *indices: int) -> int:
    """Derive an independent child seed, e.g. per trial or per restart."""
    return mix(seed, 0x5EED, *indices)


def stdlib_rng(seed: int) -> random.Random:
    """A stdlib Random seeded from seed; used for shuffles/permutations."""
    return random.Random(sub_seed(seed))
