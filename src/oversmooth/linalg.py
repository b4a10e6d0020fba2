"""Dense linear algebra kernels: norms, singular values, dominant eigenpairs.

Singular values go through the Gram matrix of the smaller dimension and
LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``), so a
tall-and-thin feature matrix (the common case here) costs one small dense
eigenproblem. Every metric computes its singular values this way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, DegenerateSpectrum, InvalidParameter
from .validation import as_matrix, as_square_matrix, as_vector, require_length

POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries."""
    m = as_matrix(m)
    return math.sqrt(float(np.sum(m * m)))


def _vec_norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


def pow2_scale(m) -> float:
    """Power of two bracketing the largest entry magnitude (1.0 for zero).

    Division by this scale is exact in IEEE-754, so scale-invariant
    quantities computed from the scaled matrix are bitwise identical to the
    unscaled computation whenever the latter stays in range, and remain
    finite when it does not.
    """
    peak = float(np.max(np.abs(m)))
    if peak == 0.0:
        return 1.0
    return math.ldexp(1.0, min(math.frexp(peak)[1], 1023))


def singular_values(m) -> np.ndarray:
    """All singular values, descending.

    Computed as square roots of the eigenvalues of the smaller Gram matrix,
    found by LAPACK's symmetric eigensolver; eigenvalues pushed slightly
    negative by rounding are clamped to zero. The matrix is prescaled by an
    exact power of two so the squared entries of the Gram matrix cannot
    overflow for huge feature values. Raises ConvergenceFailure if LAPACK
    does not converge.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    scale = pow2_scale(m)
    if scale != 1.0:
        m = m / scale
    gram = m @ m.T if rows <= cols else m.T @ m
    gram = (gram + gram.T) * 0.5
    try:
        vals = np.linalg.eigvalsh(gram)[::-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK symmetric eigensolver failed: {exc}") from exc
    return np.sqrt(np.maximum(vals, 0.0)) * scale


def _sign_fix(v: np.ndarray) -> np.ndarray:
    for x in v:
        if x != 0.0:
            return -v if x < 0.0 else v
    return v


def power_iteration(
    a,
    tol: float = POWER_TOL,
    max_iter: int = POWER_MAX_ITER,
    start=None,
) -> tuple[float, np.ndarray]:
    """Dominant eigenpair by normalized power iteration.

    Returns ``(eigenvalue, unit eigenvector)`` once the Rayleigh residual
    satisfies ``||A v - lambda v|| <= tol * |lambda|``; the eigenvector's
    first nonzero component is made positive. The default start is the
    normalized all-ones vector; if the iterate is ever annihilated exactly,
    the iteration restarts from the next standard basis vector (a zero matrix
    legitimately returns eigenvalue 0). Requires a real dominant eigenvalue,
    simple in magnitude; complex or tied dominant pairs exhaust ``max_iter``.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    if not tol >= 0.0:
        raise InvalidParameter(f"tol must be >= 0, got {tol}")
    if max_iter < 1:
        raise InvalidParameter(f"max_iter must be >= 1, got {max_iter}")
    if start is None:
        v = np.full(n, 1.0 / math.sqrt(n))
    else:
        v = as_vector(start, "start")
        require_length(v, n, "start")
        nv = _vec_norm(v)
        if nv == 0.0:
            raise InvalidParameter("start vector must be nonzero")
        v = v / nv
    next_basis = 0
    for _ in range(max_iter):
        w = a @ v
        nw = _vec_norm(w)
        if nw == 0.0:
            while next_basis < n:
                e = np.zeros(n)
                e[next_basis] = 1.0
                next_basis += 1
                if _vec_norm(a @ e) != 0.0:
                    v = e
                    break
            else:
                # Every basis vector is annihilated: the matrix is zero and
                # (0, v) is an exact eigenpair.
                return 0.0, _sign_fix(v)
            continue
        lam = float(v @ w)
        if _vec_norm(w - lam * v) <= tol * abs(lam):
            return lam, _sign_fix(v)
        v = w / nw
    raise ConvergenceFailure(
        f"power iteration did not meet tol={tol} within {max_iter} iterations"
    )


def spectral_gap(a, tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER) -> float:
    """|second eigenvalue| / |dominant eigenvalue|, via one deflation step.

    The dominant right and left eigenpairs are found by power iteration, the
    dominant term ``lambda1 * u v^T`` (with ``v^T u = 1``) is subtracted, and
    power iteration runs again on the deflated matrix from an alternating
    start vector (the all-ones start is annihilated exactly when the
    dominant right eigenvector is constant, as for row-stochastic matrices).
    A deflated matrix with negligible mass means the spectrum past the
    dominant eigenvalue is zero, so the gap is 0.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    lam1, u = power_iteration(a, tol, max_iter)
    if lam1 == 0.0:
        raise DegenerateSpectrum("dominant eigenvalue is zero; gap undefined")
    if n == 1:
        return 0.0
    lam_left, v_left = power_iteration(a.T, tol, max_iter)
    dot = float(v_left @ u)
    if abs(dot) < 1e-300:
        raise DegenerateSpectrum("left and right dominant eigenvectors are orthogonal")
    v = v_left / dot
    b = a - lam1 * np.outer(u, v)
    if frobenius_norm(b) <= 1e-12 * abs(lam1):
        return 0.0
    alt = np.empty(n)
    alt[0::2] = 1.0
    alt[1::2] = -1.0
    alt /= _vec_norm(alt)
    lam2, _ = power_iteration(b, tol, max_iter, start=alt)
    return abs(lam2) / abs(lam1)
