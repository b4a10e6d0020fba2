"""Dense kernel tests: singular values, dominant eigenpair, spectral gap.

The Gram-eigensolver singular values are checked against two independent
oracles: closed-form roots of 2x2 Gram matrices, and LAPACK's SVD driver
(``numpy.linalg.svd``) on the matrix itself. The general eigensolve is
checked against the closed-form GCN eigenvector and against LAPACK's
symmetric eigensolver (``numpy.linalg.eigvalsh``).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth.errors import (
    ConvergenceFailure,
    DegenerateSpectrum,
    InvalidParameter,
    ShapeMismatch,
)
from oversmooth.graph import barabasi_albert, gcn_dominant_eigenvector, sym_norm_adjacency
from oversmooth.linalg import _unit, dominant_eigenpair, pow2_scale, singular_values, spectral_gap
from oversmooth.rng import Xoshiro256pp


def closed_form_2x2(a: float, b: float, c: float) -> np.ndarray:
    # Roots of x^2 - (a+c)x + (ac - b^2).
    mean = 0.5 * (a + c)
    r = math.hypot(0.5 * (a - c), b)
    return np.array([mean + r, mean - r])


def test_singular_values_rank_one_pinned():
    assert_allclose(singular_values([[1.0, 1.0], [1.0, 1.0]]), [2.0, 0.0], atol=1e-14)


def test_singular_values_match_lapack_tall_and_wide():
    rng = Xoshiro256pp(505)
    for rows, cols in [(2, 2), (3, 3), (7, 3), (3, 7), (12, 5), (4, 12), (1, 6), (6, 1)]:
        m = rng.matrix(rows, cols, -5.0, 5.0)
        want = np.linalg.svd(m, compute_uv=False)
        assert_allclose(singular_values(m), want, atol=1e-9 * max(1.0, want[0]))


def test_singular_values_match_closed_form_gram():
    rng = Xoshiro256pp(606)
    for _ in range(50):
        m = rng.matrix(3, 2, -4.0, 4.0)
        gram = m.T @ m
        want = np.sqrt(np.maximum(closed_form_2x2(gram[0, 0], gram[0, 1], gram[1, 1]), 0.0))
        assert_allclose(singular_values(m), want, atol=1e-10 * max(1.0, want[0]))


def test_singular_values_match_svd_reference():
    # A rank-deficient tail sits at rounding level in the Gram spectrum, and
    # the square root lifts that to ~1e-8 s_1, where the SVD resolves it near
    # 1e-16 s_1. So the squared profiles (s_i / s_1)^2 are compared
    # everywhere, and the singular values themselves on the full-rank inputs.
    rng = Xoshiro256pp(808)
    for _ in range(5):
        tall = rng.matrix(40, 7, -3.0, 3.0)
        wide = rng.matrix(5, 17, -3.0, 3.0)
        rank_one = rng.matrix(30, 1, -2.0, 2.0) @ rng.matrix(1, 6, -2.0, 2.0)
        zero_col = rng.matrix(12, 5, -1.0, 1.0)
        zero_col[:, 2] = 0.0
        huge = rng.matrix(9, 4, 0.5, 1.0) * 1e305
        cases = [
            (tall, True),
            (wide, True),
            (huge, True),
            (huge.T, True),
            (rank_one, False),
            (rank_one.T, False),
            (zero_col, False),
        ]
        for m, full_rank in cases:
            got = singular_values(m)
            want = np.linalg.svd(m, compute_uv=False)
            s1 = want[0]
            assert np.all(np.isfinite(got))
            assert np.all(np.diff(got) <= 0.0)
            assert_allclose((got / s1) ** 2, (want / s1) ** 2, rtol=0.0, atol=1e-12)
            if full_rank:
                assert_allclose(got, want, rtol=0.0, atol=1e-12 * s1)


def magnitude_stack(rows: int, cols: int) -> np.ndarray:
    # Six matrices: ordinary, zero, beyond 1e300, with entries at the top of
    # the float range, tiny, and rank one.
    rng = Xoshiro256pp(rows * 100 + cols)
    stack = np.stack([rng.matrix(rows, cols, -1.0, 1.0) for _ in range(6)])
    stack[1] = 0.0
    stack[2] *= 1e305
    stack[3] = 0.0
    stack[3, 0, 0], stack[3, -1, -1] = 1.2e308, -1e308
    stack[4] *= 1e-300
    stack[5] = np.outer(rng.fill(rows, -1.0, 1.0), rng.fill(cols, -1.0, 1.0))
    return stack


def test_singular_values_of_a_stack_match_each_matrix_bit_for_bit():
    for rows, cols in [(10, 32), (32, 10), (6, 6), (1, 4)]:
        stack = magnitude_stack(rows, cols)
        got = singular_values(stack)
        assert got.shape == (6, min(rows, cols))
        for matrix, sv in zip(stack, got):
            assert np.array_equal(sv, singular_values(matrix))
        nested = singular_values(stack.reshape(2, 3, rows, cols))
        assert np.array_equal(nested.reshape(got.shape), got)


def test_pow2_scale_of_a_stack_matches_each_matrix():
    stack = magnitude_stack(5, 3)
    scales = pow2_scale(stack)
    assert scales.shape == (6,)
    assert list(scales) == [pow2_scale(m) for m in stack]
    assert scales[1] == 1.0 and scales[3] == math.ldexp(1.0, 1023)
    assert isinstance(pow2_scale(stack[0]), float)
    assert pow2_scale(np.array([3.0, -5.0])) == 8.0


def test_singular_values_input_errors():
    with pytest.raises(ShapeMismatch):
        singular_values([1.0, 2.0])
    with pytest.raises(ShapeMismatch):
        singular_values(np.zeros((0, 3)))
    with pytest.raises(ShapeMismatch):
        singular_values(np.zeros((2, 0, 3)))
    with pytest.raises(InvalidParameter):
        singular_values([[1.0, math.nan]])
    with pytest.raises(InvalidParameter):
        singular_values([[1.0, math.inf]])
    with pytest.raises(InvalidParameter):
        singular_values([[[1.0, 2.0]], [[math.inf, 0.0]]])


def test_singular_values_lapack_failure_is_convergence_failure(monkeypatch):
    def no_convergence(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(ConvergenceFailure):
        singular_values([[1.0, 2.0], [3.0, 4.0]])


def test_dominant_eigenpair_diagonal():
    lam, v = dominant_eigenpair(np.diag([2.0, 1.0]))
    assert_allclose(lam, 2.0, rtol=1e-12)
    assert_allclose(v, [1.0, 0.0], atol=1e-11)


def test_dominant_eigenpair_stochastic_two_state():
    # LAPACK returns the negated vector here, so the sign fix is exercised.
    lam, v = dominant_eigenpair(np.array([[0.0, 1.0], [0.5, 0.5]]))
    assert_allclose(lam, 1.0, rtol=1e-12)
    assert_allclose(v, np.full(2, 1.0 / math.sqrt(2.0)), rtol=1e-12)


def test_dominant_eigenpair_sign_convention():
    # The dominant eigenvectors point along -e1 and along e2 (a zero first
    # component); the first nonzero component must come out positive.
    lam, v = dominant_eigenpair(np.diag([-2.0, 1.0]))
    assert_allclose(lam, -2.0, rtol=1e-12)
    assert v[0] > 0.0
    lam, v = dominant_eigenpair(np.diag([1.0, -3.0]))
    assert_allclose(lam, -3.0, rtol=1e-12)
    assert_allclose(v, [0.0, 1.0], atol=1e-12)


def test_dominant_eigenpair_orthogonal_to_all_ones():
    # The dominant eigenvector is orthogonal to the all-ones vector, the
    # start that power iteration would use.
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    lam, v = dominant_eigenpair(a)
    assert_allclose(lam, 2.0, rtol=1e-12)
    assert_allclose(v, [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)], atol=1e-12)


def test_dominant_eigenpair_matches_closed_form_gcn_direction():
    for seed in range(24):
        g = barabasi_albert(8 + seed, 2, seed=seed)
        lam, v = dominant_eigenpair(sym_norm_adjacency(g))
        assert abs(lam - 1.0) <= 1e-12
        assert_allclose(v, gcn_dominant_eigenvector(g), rtol=0.0, atol=1e-12)
        assert abs(float(v @ v) - 1.0) <= 1e-12


def test_power_iteration_rotation_never_converges():
    # The rotation has no real dominant direction (eigenvalues +-i): an
    # iteration never settles, and the eigensolve reports a degenerate spectrum.
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateSpectrum):
        dominant_eigenpair(rotation)


def test_power_iteration_zero_matrix():
    with pytest.raises(DegenerateSpectrum):
        dominant_eigenpair(np.zeros((3, 3)))


def test_eigensolver_lapack_failure_is_convergence_failure(monkeypatch):
    def no_convergence(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    with pytest.raises(ConvergenceFailure):
        dominant_eigenpair(np.eye(2))
    with pytest.raises(ConvergenceFailure):
        spectral_gap(np.eye(2))


def test_spectral_gap_diagonal():
    assert_allclose(spectral_gap(np.diag([2.0, 1.0])), 0.5, rtol=1e-9)


def test_spectral_gap_rank_one_is_zero():
    assert spectral_gap(np.ones((2, 2))) == 0.0


def test_spectral_gap_stochastic_two_state():
    assert_allclose(spectral_gap(np.array([[0.0, 1.0], [0.5, 0.5]])), 0.5, rtol=1e-9)


def test_spectral_gap_known_spectrum():
    # Conjugate a chosen spectrum by a random orthogonal basis; the gap is
    # known exactly.
    rng = np.random.default_rng(88)
    lams = np.array([3.0, -1.7, 0.9, 0.2, -0.05])
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    a = q @ np.diag(lams) @ q.T
    assert_allclose(spectral_gap(a), 1.7 / 3.0, rtol=1e-8)


def test_spectral_gap_matches_symmetric_eigensolver():
    for seed in range(20):
        a = np.asarray(sym_norm_adjacency(barabasi_albert(8 + 3 * seed, 2, seed=100 + seed)))
        mags = np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]
        assert_allclose(spectral_gap(a), mags[1] / mags[0], rtol=1e-12)


def test_spectral_gap_zero_matrix_raises():
    with pytest.raises(DegenerateSpectrum):
        spectral_gap(np.zeros((2, 2)))


def test_single_vertex_gap_is_zero():
    assert spectral_gap(np.array([[3.0]])) == 0.0


def test_unit_vector_has_the_plain_formula_bits_at_any_scale():
    rng = Xoshiro256pp(808)
    for k in range(200):
        v = rng.fill(1 + k % 40, -1.0, 1.0)
        want = v / math.sqrt(float(v @ v))
        assert _unit(v).tobytes() == want.tobytes()
        for scale in (2.0**600, 2.0**-600):
            assert _unit(v * scale).tobytes() == want.tobytes()
    with pytest.raises(InvalidParameter, match="w holds a zero vector"):
        _unit(np.zeros(3), "w")
