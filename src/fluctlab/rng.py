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
[0, 1).  Values are drawn as arrays: a draw of `count` outputs mixes the
states state + k * 0x9E3779B97F4A7C15 (mod 2^64) for k = 1..count, then
advances the state by count times that constant, so it is the same stream.

Every setting, from a flag, a config file or a manifest, meets one of two
rules here: `check_integer` (as does a seed) or `check_positive`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_MASK64 = (1 << 64) - 1
SEED_MAX = _MASK64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def is_integer(value) -> bool:
    """An integral number that is not a bool: a JSON true or false is no number."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(value, name: str, low: int | None = None) -> int:
    """Reject a value that is not an integer, or that is below low when given;
    return it as a Python int (a numpy integer is no JSON number)."""
    if not (is_integer(value) and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_positive(value, name: str) -> float:
    """Reject a value that is not a real number, finite as a float and > 0;
    a bool is none, and an int past the float range is not finite.  Return
    it as a Python float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # math.isfinite of an int past the float range
        finite = False
    if not (finite and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_seed(value, name: str = "seed") -> int:
    """Reject a seed that is not an integer in 0..2^64-1; return it as a
    Python int."""
    if not (is_integer(value) and 0 <= value <= SEED_MAX):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)


class SplitMix64:
    """Deterministic stream of 64-bit integers and [0,1) doubles."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = check_seed(seed)

    def next_u64(self, count: int) -> np.ndarray:
        """The next `count` outputs as a uint64 array."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        count = int(count)  # a numpy count would overflow count * _GAMMA
        # uint64 array arithmetic wraps mod 2^64
        z = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * _MIX1
        z = (z ^ (z >> 27)) * _MIX2
        return z ^ (z >> 31)

    def uniform(self, low: float, high: float, count: int) -> np.ndarray:
        """The next `count` doubles, uniform in [low, high), as a float64 array."""
        return low + (high - low) * ((self.next_u64(count) >> 11) * 2.0**-53)
