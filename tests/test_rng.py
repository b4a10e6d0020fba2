"""Stream exactness and distribution shape tests for the PRNG stack.

The frozen integer vectors come from the public-domain C reference
implementations of splitmix64 and xoshiro256++; the Python port must
reproduce them bit for bit. The compiled fill kernel must in turn match the
Python fill loop, byte for byte and state for state, and every way it can be
unavailable must fall back to that loop with one warning.
"""

import math
import subprocess
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth import rng as rng_module
from oversmooth.errors import InvalidParameter
from oversmooth.rng import Xoshiro256pp, splitmix64_stream, subseed

SPLITMIX_SEED0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
    1961750202426094747,
]

SPLITMIX_SEED42 = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
]

XOSHIRO_SEED0 = [
    5987356902031041503,
    7051070477665621255,
    6633766593972829180,
    211316841551650330,
    9136120204379184874,
]

XOSHIRO_SEED42 = [
    15021278609987233951,
    5881210131331364753,
    18149643915985481100,
    12933668939759105464,
    14637574242682825331,
]

XOSHIRO_SEED42_DOUBLES = [
    0.81430514512290986,
    0.31882104006166112,
    0.98389416817748876,
    0.70113559813475557,
]

XOSHIRO_HEXSEED = [
    2707888645904291241,
    4127604304539770197,
    14649805712682739594,
]


def test_splitmix_matches_reference_seed0():
    assert splitmix64_stream(0, 5) == SPLITMIX_SEED0


def test_splitmix_matches_reference_seed42():
    assert splitmix64_stream(42, 3) == SPLITMIX_SEED42


def test_splitmix_seed_wraps_to_64_bits():
    assert splitmix64_stream(1 << 64, 2) == splitmix64_stream(0, 2)


def test_subseed_is_the_indexed_splitmix_word():
    stream = splitmix64_stream(42, 3)
    assert [subseed(42, k) for k in range(3)] == stream


def test_subseed_rejects_negative_index():
    with pytest.raises(InvalidParameter):
        subseed(7, -1)


NOT_INTEGERS = (1.5, np.float64(2.0), "3", None, True, np.bool_(False))


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_non_integer_seeds_counts_and_indices_are_invalid(bad):
    calls = (lambda: Xoshiro256pp(bad), lambda: subseed(bad, 0), lambda: subseed(3, bad),
             lambda: splitmix64_stream(bad, 2), lambda: splitmix64_stream(1, bad),
             lambda: Xoshiro256pp(1).fill(bad))
    for call in calls:
        with pytest.raises(InvalidParameter):
            call()


NUMPY_SEEDS = (np.int64(5), np.int64(-3), np.int64(-(1 << 63)), np.uint64((1 << 64) - 1),
               np.uint64(1 << 63), np.int8(-1), np.uint32(7))


@pytest.mark.parametrize("seed", NUMPY_SEEDS, ids=repr)
def test_numpy_integer_seeds_give_the_stream_of_the_equal_int(seed):
    value = int(seed)
    assert splitmix64_stream(seed, np.int64(3)) == splitmix64_stream(value, 3)
    assert subseed(seed, np.uint8(1)) == subseed(value, 1)
    gen, ref = Xoshiro256pp(seed), Xoshiro256pp(value)
    assert gen.fill(np.int64(5)).tobytes() == ref.fill(5).tobytes()
    assert gen._s == ref._s


def test_xoshiro_matches_reference_seed0():
    rng = Xoshiro256pp(0)
    assert [rng.next_u64() for _ in range(5)] == XOSHIRO_SEED0


def test_xoshiro_matches_reference_seed42():
    rng = Xoshiro256pp(42)
    assert [rng.next_u64() for _ in range(5)] == XOSHIRO_SEED42


def test_xoshiro_matches_reference_hex_seed():
    rng = Xoshiro256pp(0xDEADBEEFCAFEF00D)
    assert [rng.next_u64() for _ in range(3)] == XOSHIRO_HEXSEED


def test_doubles_use_top_53_bits():
    rng = Xoshiro256pp(42)
    assert [rng.random() for _ in range(4)] == XOSHIRO_SEED42_DOUBLES


def test_same_seed_same_stream():
    a = Xoshiro256pp(123456789)
    b = Xoshiro256pp(123456789)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_fill_consumes_the_same_stream_as_random():
    a = Xoshiro256pp(7)
    b = Xoshiro256pp(7)
    filled = a.fill(64)
    singles = np.array([b.random() for _ in range(64)])
    assert np.array_equal(filled, singles)


def test_fill_affine_map_is_exact():
    a = Xoshiro256pp(7)
    b = Xoshiro256pp(7)
    lo, hi = -2.5, 4.0
    filled = a.fill(32, lo, hi)
    singles = np.array([lo + (hi - lo) * b.random() for _ in range(32)])
    assert np.array_equal(filled, singles)


def test_matrix_is_row_major_fill():
    a = Xoshiro256pp(11)
    b = Xoshiro256pp(11)
    m = a.matrix(5, 3, -1.0, 1.0)
    flat = b.fill(15, -1.0, 1.0)
    assert np.array_equal(m, flat.reshape(5, 3))


def test_uniform_range_and_mean():
    rng = Xoshiro256pp(2024)
    xs = rng.fill(20000, 3.0, 9.0)
    assert xs.min() >= 3.0 and xs.max() < 9.0
    assert_allclose(xs.mean(), 6.0, atol=0.05)


def test_randbelow_covers_range_uniformly():
    rng = Xoshiro256pp(5)
    counts = np.zeros(10, dtype=int)
    for _ in range(10000):
        k = rng.randbelow(10)
        assert 0 <= k < 10
        counts[k] += 1
    assert counts.min() > 800


def test_randbelow_one_is_always_zero():
    rng = Xoshiro256pp(5)
    assert all(rng.randbelow(1) == 0 for _ in range(20))


def test_randbelow_takes_only_integer_bounds():
    rng = Xoshiro256pp(5)
    for bound in (2.5, True, np.float64(3.0), "3"):
        with pytest.raises(InvalidParameter, match="randbelow bound must be an integer"):
            rng.randbelow(bound)
    # A refused bound draws nothing; a numpy integer is taken by its value.
    assert rng.randbelow(np.int64(10)) == Xoshiro256pp(5).randbelow(10)


def test_parameter_validation():
    rng = Xoshiro256pp(0)
    with pytest.raises(InvalidParameter):
        rng.randbelow(0)
    with pytest.raises(InvalidParameter):
        rng.fill(-1)
    with pytest.raises(InvalidParameter):
        rng.fill(3, 2.0, 2.0)


@pytest.mark.parametrize("low, high", [
    (-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf),
    (math.nan, 1.0), (0.0, math.nan), (2.0, 1.0),
    pytest.param(0, 10**400, id="int-high-beyond-float"),
    pytest.param(-10**400, 0, id="int-low-beyond-float"),
])
def test_fill_rejects_bounds_without_a_finite_width(low, high):
    # high - low must be finite too: an overflowing width would give inf
    # draws, an infinite bound inf or NaN ones.
    rng = Xoshiro256pp(4)
    with pytest.raises(InvalidParameter, match="finite"):
        rng.fill(4, low, high)
    assert rng.random() == Xoshiro256pp(4).random()


def test_fill_accepts_the_widest_finite_span():
    xs = Xoshiro256pp(4).fill(64, -8e307, 8e307)
    assert np.all(np.isfinite(xs)) and xs.min() >= -8e307 and xs.max() < 8e307


def test_nested_subseed_lanes_do_not_collide():
    seen = set()
    for i in range(8):
        for j in range(8):
            seen.add(subseed(subseed(99, i), j))
    assert len(seen) == 64


def python_fill(seed, count, low, high):
    out = np.empty(count)
    state = rng_module._fill_python(Xoshiro256pp(seed)._s, out, low, high - low)
    return out, state


FILL_SEEDS = (0, 42, (1 << 64) - 1, 0xDEADBEEFCAFEF00D)
FILL_COUNTS = (0, 1, 31, 1024, 5003)
FILL_RANGES = ((0.0, 1.0), (-0.1, 0.1), (-1e300, 1e300), (0.0, 1e-300))


@pytest.mark.needs_cc
def test_c_fill_is_bit_identical_to_python_loop(fresh_kernels):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rng_module._fill_loop() is not rng_module._fill_python
    for seed in FILL_SEEDS:
        for count in FILL_COUNTS:
            for low, high in FILL_RANGES:
                gen = Xoshiro256pp(seed)
                got = gen.fill(count, low, high)
                want, state = python_fill(seed, count, low, high)
                assert got.tobytes() == want.tobytes(), (seed, count, low, high)
                assert gen._s == state
            # The next word after a fill continues the same stream.
            ref = Xoshiro256pp(seed)
            for _ in range(count):
                ref.next_u64()
            assert gen.next_u64() == ref.next_u64()


@pytest.mark.needs_cc
def test_cached_kernel_loads_without_the_compiler(fresh_kernels, monkeypatch):
    rng_module._fill_loop()
    assert len(list(fresh_kernels.glob("*.so"))) == 1
    rng_module._fill_loop.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran although the kernel was cached")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    monkeypatch.setenv("PATH", str(fresh_kernels))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rng_module._fill_loop() is not rng_module._fill_python


@pytest.mark.needs_cc
def test_unusable_kernel_falls_back_with_one_warning(unusable_kernel):
    cause = unusable_kernel("fill")
    gen = Xoshiro256pp(42)
    with pytest.warns(RuntimeWarning) as record:
        first = gen.fill(1024, -0.1, 0.1)
        second = gen.fill(31, -0.1, 0.1)
    assert len(record) == 1
    assert cause in str(record[0].message)
    assert record[0].filename == __file__
    assert rng_module._fill_loop() is rng_module._fill_python
    want, state = python_fill(42, 1055, -0.1, 0.1)
    assert np.concatenate([first, second]).tobytes() == want.tobytes()
    assert gen._s == state


@pytest.mark.parametrize("draw", [lambda gen: gen.fill(4), lambda gen: gen.matrix(2, 2)],
                         ids=["fill", "matrix"])
def test_fallback_warning_names_the_caller(draw, fresh_kernels, tmp_path):
    (tmp_path / "cache").write_text("a file, not a directory")
    with pytest.warns(RuntimeWarning) as record:
        draw(Xoshiro256pp(3))
    assert len(record) == 1
    assert record[0].filename == __file__
