"""Deterministic, platform-independent random number generation.

The generator is counter-based splitmix64: draw ``k`` is the splitmix64
finalizer applied to ``seed + (counter + k) * GOLDEN`` in wrapping uint64
arithmetic. Because each output depends only on (seed, counter), blocks of
any size can be produced with vectorized numpy uint64 ops and the stream is
identical on every platform for a given seed. Uniform doubles take the top
53 bits, giving values in [0, 1).

``uniform`` fills its output UNIFORM_BLOCK draws at a time, so a large draw
(the 2.56M-entry embedding init) holds its result plus one block of
temporaries, never several result-sized ones. Draw k depends only on k, so
the values do not depend on the block size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

UNIFORM_BLOCK = 1 << 16

# The same constants as numpy scalars, built once: a small draw would
# otherwise spend much of its time converting them.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_SHIFT = {bits: np.uint64(bits) for bits in (11, 27, 30, 31)}


def _mix_scalar(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Seeded splitmix64 stream. Single-owner: never share across threads."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` uint64 outputs, advancing the counter."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        # uint64 array arithmetic wraps silently; only numpy scalars warn.
        z = np.uint64(self.seed) + idx * _GOLDEN_U64
        z = (z ^ (z >> _SHIFT[30])) * _MIX1_U64
        z = (z ^ (z >> _SHIFT[27])) * _MIX2_U64
        return z ^ (z >> _SHIFT[31])

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """I.i.d. uniform draws in [lo, hi) as float64."""
        if not lo < hi:
            raise ConfigError(f"uniform bounds require lo < hi, got lo={lo}, hi={hi}")
        if isinstance(shape, int):
            shape = (shape,)
        n = math.prod(shape)
        out = np.empty(n)
        for start in range(0, n, UNIFORM_BLOCK):
            block = out[start:start + UNIFORM_BLOCK]
            np.multiply(self._raw(len(block)) >> _SHIFT[11], 2.0**-53, out=block)
            block *= hi - lo
            block += lo
        return out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n): stable argsort of raw uint64 keys."""
        return np.argsort(self._raw(n), kind="stable")

    def derive(self, tag: int) -> "Rng":
        """Independent child stream; deterministic in (seed, tag)."""
        child = _mix_scalar((_mix_scalar(self.seed) + (tag + 1) * _GOLDEN) & _MASK64)
        return Rng(child)
