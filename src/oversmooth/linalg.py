"""Dense linear algebra kernels: singular values, dominant eigenpair, spectral gap.

Singular values go through the Gram matrix of the smaller dimension and
LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``), so a
tall-and-thin feature matrix (the common case here) costs one small dense
eigenproblem. Every metric computes its singular values this way. The
dominant eigenpair and the spectral gap of a propagation matrix, which need
not be symmetric, come from one call to LAPACK's general eigensolver
(``numpy.linalg.eig``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, DegenerateSpectrum
from .validation import as_matrix, as_square_matrix


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


def _spectrum(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a square matrix in descending magnitude (ties keep
    LAPACK's order) and the matching unit eigenvector columns, from LAPACK's
    general eigensolver. Raises ConvergenceFailure if LAPACK does not
    converge.
    """
    a = as_square_matrix(a)
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK eigensolver failed: {exc}") from exc
    order = np.argsort(-np.abs(vals), kind="stable")
    return vals[order], vecs[:, order]


def dominant_eigenpair(a) -> tuple[float, np.ndarray]:
    """``(eigenvalue, unit eigenvector)`` for the eigenvalue of largest
    magnitude; the eigenvector's first nonzero component is positive.

    Raises DegenerateSpectrum when that eigenvalue is zero or not real.
    """
    vals, vecs = _spectrum(a)
    lam = vals[0]
    if lam == 0.0 or lam.imag != 0.0:
        raise DegenerateSpectrum(f"dominant eigenvalue {lam} is zero or not real")
    v = vecs[:, 0].real
    if v[np.flatnonzero(v)[0]] < 0.0:
        v = -v
    return float(lam.real), v


def spectral_gap(a) -> float:
    """|second eigenvalue| / |dominant eigenvalue|, with eigenvalues ordered
    by magnitude; 0.0 for a 1x1 matrix. Raises DegenerateSpectrum when the
    dominant eigenvalue is zero.
    """
    mags = np.abs(_spectrum(a)[0])
    if mags[0] == 0.0:
        raise DegenerateSpectrum("dominant eigenvalue is zero; gap undefined")
    return float(mags[1] / mags[0]) if mags.shape[0] > 1 else 0.0
