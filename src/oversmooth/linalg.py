"""Dense linear algebra kernels: singular values, dominant eigenpair, spectral gap.

Singular values go through the Gram matrix of the smaller dimension and
LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``), so a
tall-and-thin feature matrix (the common case here) costs one small dense
eigenproblem. Every metric computes its singular values this way, and a
stack of matrices takes one batched Gram product and one batched solve. The
dominant eigenpair and the spectral gap of a propagation matrix, which need
not be symmetric, come from one call to LAPACK's general eigensolver
(``numpy.linalg.eig``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, DegenerateSpectrum, InvalidParameter
from .validation import as_matrix, as_square_matrix


def pow2_scale(m):
    """Power of two bracketing the largest entry magnitude (1.0 for zero).

    Division by this scale is exact in IEEE-754, so scale-invariant
    quantities computed from the scaled matrix are bitwise identical to the
    unscaled computation whenever the latter stays in range, and remain
    finite when it does not. A vector or a matrix gives one float; a stack
    ``(..., rows, cols)`` gives an array of one scale per matrix.
    """
    m = np.asarray(m)
    peak = np.max(np.abs(m), axis=tuple(range(max(m.ndim - 2, 0), m.ndim)))
    # frexp(0) has exponent 0, so a zero matrix gets scale 1.
    scale = np.ldexp(1.0, np.minimum(np.frexp(peak)[1], 1023))
    return float(scale) if m.ndim <= 2 else scale


def _unit(v, name: str = "vector") -> np.ndarray:
    """``v / ||v||`` at any magnitude, with the plain formula's bits in
    range (see ``pow2_scale``). Raises InvalidParameter for a zero vector."""
    v = v / pow2_scale(v)
    norm = math.sqrt(float(v @ v))
    if norm == 0.0:
        raise InvalidParameter(f"{name} holds a zero vector")
    return v / norm


def singular_values(m) -> np.ndarray:
    """All singular values, descending; for a stack ``(..., rows, cols)``,
    those of each matrix along the last axis.

    Computed as square roots of the eigenvalues of the smaller Gram matrix,
    found by LAPACK's symmetric eigensolver (one batched call for a stack);
    eigenvalues pushed slightly negative by rounding are clamped to zero.
    Each matrix is prescaled by an exact power of two so the squared entries
    of the Gram matrix cannot overflow for huge feature values. A matrix of
    a stack gets the same bits as the matrix alone. Raises
    ConvergenceFailure if LAPACK does not converge.
    """
    m = as_matrix(m, stack=True)
    rows, cols = m.shape[-2:]
    scale = np.asarray(pow2_scale(m))
    if np.any(scale != 1.0):
        m = m / scale[..., None, None]
    mt = np.swapaxes(m, -1, -2)
    gram = m @ mt if rows <= cols else mt @ m
    gram = (gram + np.swapaxes(gram, -1, -2)) * 0.5
    try:
        vals = np.linalg.eigvalsh(gram)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK symmetric eigensolver failed: {exc}") from exc
    return np.sqrt(np.maximum(vals, 0.0)) * scale[..., None]


def _spectrum(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a square matrix in descending magnitude (ties keep
    LAPACK's order) and the matching unit eigenvector columns, from LAPACK's
    general eigensolver. Raises ConvergenceFailure if LAPACK does not
    converge. ``_dominant_eigenpair`` and ``_spectral_gap`` read one result,
    so a caller that needs both solves once.
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
    return _dominant_eigenpair(*_spectrum(a))


def _dominant_eigenpair(vals: np.ndarray, vecs: np.ndarray) -> tuple[float, np.ndarray]:
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
    return _spectral_gap(_spectrum(a)[0])


def _spectral_gap(vals: np.ndarray) -> float:
    mags = np.abs(vals)
    if mags[0] == 0.0:
        raise DegenerateSpectrum("dominant eigenvalue is zero; gap undefined")
    return float(mags[1] / mags[0]) if mags.shape[0] > 1 else 0.0
