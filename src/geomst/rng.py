"""Deterministic, portable random number generation.

Everything randomized in this package (shuffled partitions, generated
instances, benchmark inputs, verification subsets) flows through SplitMix64
so that a run is reproducible from a single 64-bit seed, on any platform,
and re-implementable in any language from the constants below.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .geometry import _integer

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 generator (Steele, Lea and Flood's 64-bit mixer).

    The state advances by the golden gamma each draw and the output is a
    stateless mix of the advanced state, so draw i from seed s is
    mix(s + (i+1)*gamma mod 2^64). That makes block generation vectorize
    while staying bit-identical to the scalar stream.
    """

    def __init__(self, seed: int):
        self._state = _integer(seed, "seed", 0, _MASK)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) by modulo reduction.

        The modulo bias is below 2^-40 for any bound under 2^24, which is
        irrelevant for partition shuffles and test-subset picks; plain modulo
        is kept because it is trivial to port.
        """
        if bound <= 0:
            raise UsageError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating indices from high to low."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def u64_array(self, count: int) -> np.ndarray:
        states = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK
        z = (states ^ (states >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform_array(self, count: int) -> np.ndarray:
        return (self.u64_array(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal_array(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller; consumes exactly 2*count uniforms.

        Each normal uses two consecutive uniforms (u1, u2) and keeps only the
        cosine branch. A zero u1 (probability 2^-53 per draw) is replaced by
        2^-53 so the logarithm stays finite without skipping stream positions.
        """
        u = self.uniform_array(2 * count).reshape(count, 2)
        u1 = np.maximum(u[:, 0], 2.0**-53)
        r = np.sqrt(-2.0 * np.log(u1))
        return r * np.cos((2.0 * np.pi) * u[:, 1])
