"""Dense kernel tests: singular values, power iteration, spectral gap.

The Gram-eigensolver singular values are checked against two independent
oracles: closed-form roots of 2x2 Gram matrices, and LAPACK's SVD driver
(``numpy.linalg.svd``) on the matrix itself.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth.errors import ConvergenceFailure, DegenerateSpectrum, InvalidParameter
from oversmooth.linalg import (
    frobenius_norm,
    power_iteration,
    singular_values,
    spectral_gap,
)
from oversmooth.rng import Xoshiro256pp


def closed_form_2x2(a: float, b: float, c: float) -> np.ndarray:
    # Roots of x^2 - (a+c)x + (ac - b^2).
    mean = 0.5 * (a + c)
    r = math.hypot(0.5 * (a - c), b)
    return np.array([mean + r, mean - r])


def test_frobenius_norm_three_four_five():
    assert frobenius_norm([[3.0, 4.0]]) == 5.0


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


def test_singular_values_lapack_failure_is_convergence_failure(monkeypatch):
    def no_convergence(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(ConvergenceFailure):
        singular_values([[1.0, 2.0], [3.0, 4.0]])


def test_power_iteration_diagonal():
    lam, v = power_iteration(np.diag([2.0, 1.0]))
    assert_allclose(lam, 2.0, rtol=1e-12)
    assert_allclose(v, [1.0, 0.0], atol=1e-11)


def test_power_iteration_stochastic_two_state():
    lam, v = power_iteration(np.array([[0.0, 1.0], [0.5, 0.5]]))
    assert_allclose(lam, 1.0, rtol=1e-12)
    assert_allclose(v, np.full(2, 1.0 / math.sqrt(2.0)), rtol=1e-12)


def test_power_iteration_sign_convention():
    # Dominant eigenvector of -2 e1 e1^T points along -e1; the first nonzero
    # component must still come out positive.
    lam, v = power_iteration(np.diag([-2.0, 1.0]), start=[1.0, 1e-8])
    assert_allclose(lam, -2.0, rtol=1e-10)
    assert v[0] > 0.0


def test_power_iteration_zero_matrix():
    lam, v = power_iteration(np.zeros((3, 3)))
    assert lam == 0.0
    assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-15)


def test_power_iteration_restarts_past_annihilated_start():
    # The all-ones start is killed by this matrix; the basis restart must
    # still find the dominant eigenvalue.
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    lam, v = power_iteration(a)
    assert_allclose(lam, 2.0, rtol=1e-10)
    assert_allclose(v, [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)], atol=1e-10)


def test_power_iteration_rotation_never_converges():
    with pytest.raises(ConvergenceFailure):
        power_iteration(np.array([[0.0, -1.0], [1.0, 0.0]]), max_iter=500)


def test_power_iteration_validation():
    with pytest.raises(InvalidParameter):
        power_iteration(np.eye(2), tol=-1.0)
    with pytest.raises(InvalidParameter):
        power_iteration(np.eye(2), max_iter=0)
    with pytest.raises(InvalidParameter):
        power_iteration(np.eye(2), start=[0.0, 0.0])


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


def test_spectral_gap_zero_matrix_raises():
    with pytest.raises(DegenerateSpectrum):
        spectral_gap(np.zeros((2, 2)))


def test_single_vertex_gap_is_zero():
    assert spectral_gap(np.array([[3.0]])) == 0.0
