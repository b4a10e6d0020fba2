"""Deterministic random numbers: splitmix64 seeding xoshiro256++.

Both generators are ports of the public-domain reference implementations by
Blackman and Vigna, written with plain Python integers masked to 64 bits so
every platform produces the identical stream. Floats in [0, 1) are formed
from the top 53 bits of each 64-bit word. ``fill`` runs a C copy of its
Python loop, built and chosen by ``_native`` and used only if it matches the
loop bit for bit; otherwise the loop runs, after one RuntimeWarning naming
the cause.
"""

from __future__ import annotations

import ctypes
import sys

import numpy as np

from ._native import NoKernel, kernel, load_function
from .errors import InvalidParameter
from .validation import require_positive_int

_MASK64 = (1 << 64) - 1
_INV53 = 2.0 ** -53

# xoshiro256++ in C, spliced into every kernel that draws: ``xoshiro_random``
# is one ``random()`` draw from the state ``s[4]``.
_C_XOSHIRO = r"""
#include <stdint.h>
#define ROTL(x, k) (((x) << (k)) | ((x) >> (64 - (k))))
static inline double xoshiro_random(uint64_t *s) {
    uint64_t word = ROTL(s[0] + s[3], 23) + s[0], t = s[1] << 17;
    s[2] ^= s[0]; s[3] ^= s[1]; s[1] ^= s[2]; s[0] ^= s[3]; s[2] ^= t;
    s[3] = ROTL(s[3], 45);
    return (double)(word >> 11) * 0x1.0p-53;
}
"""
# The loop of ``_fill_python`` in C.
_C_SOURCE = _C_XOSHIRO + r"""
void xoshiro_fill(uint64_t *state, double *out, int64_t count, double low, double span) {
    uint64_t s[4] = {state[0], state[1], state[2], state[3]};
    for (int64_t i = 0; i < count; i++)
        out[i] = low + span * xoshiro_random(s);
    for (int k = 0; k < 4; k++)
        state[k] = s[k];
}
"""


def _uniform_span(low, high) -> float:
    # The width of the draw range [low, high): both bounds inside the float
    # range with high > low, compared before any conversion so that an int
    # beyond the float range is rejected too, and a finite high - low.
    big = sys.float_info.max
    if not (-big <= low < high <= big and high - low <= big):
        raise InvalidParameter(
            f"uniform draws need finite bounds high > low with a finite width, "
            f"got [{low}, {high})"
        )
    return float(high - low)


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of a splitmix64 stream started at ``seed``,
    any Python or numpy integer, taken by its exact value modulo 2**64."""
    state = require_positive_int(seed, "seed", None) & _MASK64
    count = require_positive_int(count, "count", 0)
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def subseed(master: int, index: int) -> int:
    """Derive the ``index``-th 64-bit lane seed from a master seed.

    Defined as output word ``index`` (0-based) of the splitmix64 stream
    seeded with ``master``. Nest calls to build seed trees.
    """
    index = require_positive_int(index, "subseed index", 0)
    return splitmix64_stream(master, index + 1)[index]


class Xoshiro256pp:
    """xoshiro256++ with a splitmix64-seeded state.

    >>> Xoshiro256pp(1).next_u64() == Xoshiro256pp(1).next_u64()
    True
    """

    def __init__(self, seed: int):
        self._s = splitmix64_stream(seed, 4)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s0 + s3) & _MASK64
        result = ((((x << 23) | (x >> 41)) & _MASK64) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Next float in [0, 1), from the top 53 bits of the next word."""
        return (self.next_u64() >> 11) * _INV53

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by 53-bit scaling (desk-scale bounds);
        ``bound`` is a Python or numpy integer >= 1."""
        bound = require_positive_int(bound, "randbelow bound")
        return int(self.random() * bound)

    def fill(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Array of ``count`` uniforms in [low, high), in stream order: entry
        i is ``low + (high - low) * u_i`` for the i-th ``random()`` draw u_i,
        bit for bit in the C kernel and in ``_fill_python``. ``low``, ``high``
        and the width ``high - low`` must be finite, with ``high > low``."""
        count = require_positive_int(count, "fill count", 0)
        span = _uniform_span(low, high)
        out = np.empty(count, dtype=np.float64)
        self._s = _fill_loop()(self._s, out, float(low), span)
        return out

    def matrix(self, rows: int, cols: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform matrix filled in row-major draw order."""
        return self.fill(rows * cols, low, high).reshape(rows, cols)


def _fill_python(s: list[int], out: np.ndarray, low: float, span: float) -> list[int]:
    """Fill ``out`` from state ``s``, return the state after: ``fill``'s specification."""
    gen = Xoshiro256pp.__new__(Xoshiro256pp)
    gen._s = list(s)
    for i in range(out.size):
        out[i] = low + span * gen.random()
    return gen._s


@kernel("xoshiro256++ fill", _fill_python)
def _fill_loop():
    """The C fill, built and checked against ``_fill_python``."""
    proto = ctypes.CFUNCTYPE(None, ctypes.POINTER(ctypes.c_uint64), ctypes.c_void_p,
                             ctypes.c_int64, ctypes.c_double, ctypes.c_double)
    fn = load_function("xoshiro_fill", _C_SOURCE, proto)

    def fill_c(s: list[int], out: np.ndarray, low: float, span: float) -> list[int]:
        state = (ctypes.c_uint64 * 4)(*s)
        fn(state, out.ctypes.data, out.size, low, span)
        return state[:]

    probe = splitmix64_stream(0x5EED, 4)
    want, got = np.empty(257), np.empty(257)
    if (fill_c(probe, got, -2.5, 6.5) != _fill_python(probe, want, -2.5, 6.5)
            or got.tobytes() != want.tobytes()):
        raise NoKernel("self-check mismatch: the C fill differs from the Python loop")
    return fill_c
