"""Projective-metric tests: distance identities and contraction sampling."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth.errors import (
    AllSamplesDegenerate,
    EigenvectorMismatch,
    InvalidParameter,
    NonpositiveColumn,
    ShapeMismatch,
)
from oversmooth.graph import barabasi_albert, row_stochastic_adjacency
from oversmooth.hilbert import (
    activation_eigenvector_check,
    column_hilbert_radius,
    contraction_ratio,
    hilbert_distance,
)
from oversmooth.propagate import identity, leaky_relu, tanh
from oversmooth.rng import Xoshiro256pp


def test_distance_pinned_value():
    assert hilbert_distance([2.0, 1.0], [1.0, 1.0]) == math.log(2.0)


def test_distance_is_symmetric_and_zero_on_rays():
    x = np.array([1.0, 2.0, 5.0])
    y = np.array([3.0, 1.0, 4.0])
    assert_allclose(hilbert_distance(x, y), hilbert_distance(y, x), rtol=1e-15)
    assert hilbert_distance(x, 3.0 * x) == 0.0


def test_distance_ignores_scale():
    x = np.array([1.0, 2.0, 5.0])
    y = np.array([3.0, 1.0, 4.0])
    base = hilbert_distance(x, y)
    assert_allclose(hilbert_distance(10.0 * x, y), base, atol=1e-12)
    assert_allclose(hilbert_distance(x, 0.25 * y), base, atol=1e-12)


def test_distance_triangle_inequality_sampled():
    rng = Xoshiro256pp(12)
    for _ in range(50):
        x = np.exp(rng.fill(4, -2.0, 2.0))
        y = np.exp(rng.fill(4, -2.0, 2.0))
        z = np.exp(rng.fill(4, -2.0, 2.0))
        lhs = hilbert_distance(x, z)
        rhs = hilbert_distance(x, y) + hilbert_distance(y, z)
        assert lhs <= rhs + 1e-12


def test_distances_stay_defined_past_the_normal_range():
    # Each x / y here overflows, underflows or is subnormal, so the ratio's
    # log is taken as log x - log y.
    assert_allclose(hilbert_distance([1e300, 2e300], [1e-300, 1e-300]), math.log(2.0),
                    rtol=1e-12)
    assert hilbert_distance([1e308, 1e308], [1e-10, 1e-10]) == 0.0
    assert_allclose(hilbert_distance([1e-300, 3e-300], [1e10, 1e10]), math.log(3.0),
                    rtol=1e-12)
    assert column_hilbert_radius([[1e308], [1e308]], [1e-10, 1e-10]) == 0.0
    assert_allclose(column_hilbert_radius([[1e308, 1.0], [1e-300, 2.0]], [1e-10, 1.0]),
                    618.0 * math.log(10.0), rtol=1e-12)


def test_distances_of_normal_ratios_keep_their_bits():
    rng = Xoshiro256pp(14)
    for _ in range(200):
        x, u = np.exp(rng.fill(5, -30.0, 30.0)), np.exp(rng.fill(5, -30.0, 30.0))
        r = x / u
        assert hilbert_distance(x, u) == math.log(float(np.max(r))) - math.log(float(np.min(r)))
        cols = np.exp(rng.matrix(5, 3, -30.0, 30.0))
        r = cols / u[:, None]
        want = np.max(np.log(r.max(axis=0)) - np.log(r.min(axis=0)))
        assert column_hilbert_radius(cols, u) == want


def test_distance_domain_errors():
    with pytest.raises(InvalidParameter):
        hilbert_distance([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(InvalidParameter):
        hilbert_distance([1.0, 1.0], [-1.0, 1.0])
    with pytest.raises(ShapeMismatch):
        hilbert_distance([1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ShapeMismatch, match="1-D"):
        hilbert_distance([[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(ShapeMismatch, match="nonempty"):
        hilbert_distance([], [])
    with pytest.raises(InvalidParameter, match="non-finite"):
        hilbert_distance([1.0, math.nan], [1.0, 1.0])


def test_column_radius():
    u = np.array([1.0, 1.0])
    x = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert_allclose(column_hilbert_radius(x, u), math.log(2.0), rtol=1e-15)


def test_column_radius_rejects_cone_exit():
    u = np.array([1.0, 1.0])
    with pytest.raises(NonpositiveColumn):
        column_hilbert_radius([[1.0, -1.0], [1.0, 1.0]], u)


def test_contraction_ratio_row_stochastic_pinned_matrix():
    # Positive second row forces strict contraction toward the fixed ray.
    a = np.array([[0.0, 1.0], [0.5, 0.5]])
    ratio = contraction_ratio(a, [1.0, 1.0], radius_cap=1.0, samples=200, seed=3)
    assert 0.0 < ratio < 1.0


def test_contraction_ratio_identity_is_an_isometry():
    ratio = contraction_ratio(np.eye(3), [1.0, 2.0, 3.0], samples=100, seed=4)
    assert_allclose(ratio, 1.0, rtol=1e-12)


def test_contraction_ratio_is_deterministic():
    a = row_stochastic_adjacency(barabasi_albert(8, 2, seed=13))
    u = np.ones(8)
    r1 = contraction_ratio(a, u, samples=64, seed=9)
    r2 = contraction_ratio(a, u, samples=64, seed=9)
    assert r1 == r2


def test_contraction_ratio_rejects_non_fixed_direction():
    a = np.array([[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(EigenvectorMismatch):
        contraction_ratio(a, [2.0, 1.0], samples=10)
    # a u is 1e-400 in each row, an exact 0 in floats: without the check the
    # log of its largest entry raised ValueError.
    with pytest.raises(EigenvectorMismatch, match=r"eigenvalue 0\.0 <= 0"):
        contraction_ratio([[0.0, 1e-200], [0.0, 1e-200]], [1.0, 1e-200], samples=10)


def test_contraction_ratio_checks_the_direction_at_any_scale():
    # u @ u overflows for entries past about 1e154; no check may pass on a NaN.
    a = np.array([[0.6, 0.4], [0.3, 0.7]])
    for u in ([1.0, 2.0], [1e300, 2e300]):
        with pytest.raises(EigenvectorMismatch, match="not fixed"):
            contraction_ratio(a, u, samples=10)
    assert 0.0 < contraction_ratio(a, [1e300, 1e300], radius_cap=18.0, samples=50) < 1.0
    with pytest.raises(InvalidParameter, match="radius_cap must be at most 18.3"):
        contraction_ratio(a, [1e300, 1e300], radius_cap=50.0)


def test_contraction_ratio_names_a_zero_row():
    # u passes the eigenvector check to 1e-10, so the zero row surfaced only
    # as a sample leaving the cone, under a name the caller never passed.
    with pytest.raises(InvalidParameter, match="matrix row 1 is zero"):
        contraction_ratio([[1.0, 0.0], [0.0, 0.0]], [1.0, 1e-11], samples=5)
    # With no zero row, a x can still leave the cone by underflow.
    with pytest.raises(InvalidParameter, match="a x must be strictly positive"):
        contraction_ratio([[1.0, 0.0], [0.0, 0.5]], [1.0, 5e-324], samples=5)


def test_contraction_ratio_rejects_negative_entries():
    with pytest.raises(InvalidParameter):
        contraction_ratio([[0.5, -0.5], [0.5, 0.5]], [1.0, 1.0], samples=10)


def test_contraction_ratio_parameter_validation():
    a = np.eye(2)
    with pytest.raises(InvalidParameter):
        contraction_ratio(a, [1.0, 1.0], radius_cap=0.0)
    for cap in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameter, match="radius_cap"):
            contraction_ratio(a, [1.0, 1.0], radius_cap=cap)
    with pytest.raises(InvalidParameter, match="seed"):
        contraction_ratio(a, [1.0, 1.0], samples=10, seed=1.5)
    for samples in (0, 2.5, True):
        with pytest.raises(InvalidParameter):
            contraction_ratio(a, [1.0, 1.0], samples=samples)
    with pytest.raises(ShapeMismatch, match="square"):
        contraction_ratio(np.ones((2, 3)), [1, 1])


def test_contraction_ratio_rejects_caps_that_overflow_a_sample():
    a = np.array([[0.6, 0.4], [0.3, 0.7]])
    # The limit is log(max float / 2) = 709.09, less log(1e150) for u at 1e150.
    for u, usable, limit in (([1.0, 1.0], 709.0, "709.09"), ([1e150, 1e150], 363.0, "363.702")):
        ratio = contraction_ratio(a, u, radius_cap=usable, samples=50, seed=1)
        assert 0.0 < ratio < 1.0
        with pytest.raises(InvalidParameter, match=f"radius_cap must be at most {limit} "):
            contraction_ratio(a, u, radius_cap=1000.0, samples=50)


@pytest.mark.filterwarnings("error")
def test_contraction_ratio_cap_limit_when_a_u_overflows():
    # a u = 2e308 overflows; the limit is taken in logs, from u / max(u):
    # log(max float / 2) - log(1e308) - log(2) = -0.79979.
    with pytest.raises(InvalidParameter, match="radius_cap must be at most -0.79979 "):
        contraction_ratio([[1.0, 1.0], [1.0, 1.0]], [1e308, 1e308], radius_cap=1.0, samples=5)


def test_contraction_ratio_all_samples_degenerate():
    with pytest.raises(AllSamplesDegenerate):
        contraction_ratio(np.eye(2), [1.0, 1.0], radius_cap=1e-13, samples=20)


def test_activation_line_checks():
    t = [-2.0, -0.5, 0.5, 2.0]
    const = np.ones(4)
    assert activation_eigenvector_check(tanh(), const, t)
    assert activation_eigenvector_check(identity(), np.array([1.0, 2.0]), t)
    assert activation_eigenvector_check(leaky_relu(), np.array([1.0, 2.0]), [0.5, 2.0])
    assert not activation_eigenvector_check(tanh(), np.array([1.0, 2.0]), t)


@pytest.mark.filterwarnings("error")
def test_activation_line_check_is_scale_free():
    t = [-2.0, -0.5, 0.5, 2.0]
    for scale in (1e200, 1e-200):
        assert activation_eigenvector_check(tanh(), np.ones(4) * scale, t)
        assert activation_eigenvector_check(identity(), np.array([1.0, 2.0]) * scale, t)
        assert activation_eigenvector_check(leaky_relu(), np.array([1.0, 2.0]) * scale, [0.5])
    assert not activation_eigenvector_check(tanh(), [1e200, 1.0], [1.0])


def test_activation_line_check_rejects_zero_t():
    with pytest.raises(InvalidParameter):
        activation_eigenvector_check(tanh(), np.ones(2), [1.0, 0.0])


def test_activation_line_check_rejects_non_finite_t():
    # Every comparison with NaN is false, so a NaN t would pass the line test.
    assert not activation_eigenvector_check(tanh(), [1.0, 2.0, 3.0], [1.0])
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter, match="finite"):
            activation_eigenvector_check(tanh(), [1.0, 2.0, 3.0], [t])


def test_activation_line_check_skips_an_image_that_underflows_to_zero():
    # t * u underflows to 0 and tanh(0) is 0: a zero image lies on every line.
    assert activation_eigenvector_check(tanh(), [1e-300], [1e-300])
