"""Fixed 64-bit random stream used for every random choice in the pipeline.

The generator is SplitMix64: a counter seeded with the user's 64-bit seed,
advanced by the golden-gamma constant and scrambled by two multiply-xorshift
rounds.  The algorithm is frozen here (constants included) so that a port in
any language can regenerate identical datasets and weight initializations
from the seed alone:

    state += 0x9E3779B97F4A7C15                    (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9       (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB       (mod 2^64)
    z = z ^ (z >> 31)

Doubles are derived from the top 53 bits: (z >> 11) * 2**-53, uniform in
[0, 1).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
SEED_MAX = _MASK64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 2.0**-53


class SplitMix64:
    """Deterministic stream of 64-bit integers and [0,1) doubles."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= SEED_MAX:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def uniform(self, low: float, high: float) -> float:
        """Uniform double in [low, high)."""
        return low + (high - low) * self.next_double()

    def doubles(self, count: int) -> list[float]:
        return [self.next_double() for _ in range(count)]
