"""Seeded splitmix-style generator for reproducible campaigns.

Every stream is a pure function of (seed, counter), so derived child
streams are stable no matter which order instances are evaluated in.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit splitmix stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (_MASK + 1) - (_MASK + 1) % bound
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def derive(self, index: int) -> "SplitMix64":
        """Independent child stream number `index`."""
        return SplitMix64(_mix(self._state + _GOLDEN * (index + 1)))

    def sample_without_replacement(self, items, k):
        """Deterministic k-subset, preserving the original order.

        A range is indexed in place, never listed, so it may be huge.
        """
        if not isinstance(items, range):
            items = list(items)
        if k >= len(items):
            return list(items)
        chosen = set()
        while len(chosen) < k:
            chosen.add(self.next_below(len(items)))
        return [items[i] for i in sorted(chosen)]


def point_hash(seed: int, *coords: int) -> SplitMix64:
    """Stream keyed by a lattice point, for lazily defined random functions."""
    h = seed & _MASK
    for c in coords:
        h = _mix(h ^ ((c * _GOLDEN) & _MASK))
    return SplitMix64(h)
