"""Hilbert projective metric on the positive cone and contraction probes.

The projective distance between strictly positive vectors is
``log(max_i x_i/y_i) - log(min_i x_i/y_i)``; it ignores scale, which makes it
the right ruler for normalized propagation operators. ``contraction_ratio``
estimates how much a nonnegative matrix shrinks this distance around its
positive eigenvector by sampling log-space perturbations.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (
    AllSamplesDegenerate,
    EigenvectorMismatch,
    InvalidParameter,
    NonpositiveColumn,
)
from .linalg import _unit
from .rng import Xoshiro256pp
from .validation import as_matrix, as_square_matrix, as_vector, require_positive_int

# Perturbations closer to the center than this are skipped as degenerate.
DEGENERATE_RADIUS = 1e-12


def _check_cone(v: np.ndarray, name: str) -> np.ndarray:
    if np.any(v <= 0.0):
        raise InvalidParameter(f"{name} must be strictly positive")
    return v


def _log_span(x: np.ndarray, y: np.ndarray, axis: int | None = None):
    """``log max(x / y) - log min(x / y)`` along ``axis`` (over all entries
    for None) for positive finite ``x`` and ``y``. A ratio that leaves the
    normal range is taken as ``log x - log y``, so no span overflows."""
    with np.errstate(over="ignore"):
        r = x / y
    normal = (r >= sys.float_info.min) & (r <= sys.float_info.max)
    if normal.all():
        return np.log(r.max(axis)) - np.log(r.min(axis))
    logs = np.where(normal, np.log(np.where(normal, r, 1.0)), np.log(x) - np.log(y))
    return logs.max(axis) - logs.min(axis)


def hilbert_distance(x, y) -> float:
    """Projective distance between strictly positive vectors of equal length."""
    x = _check_cone(as_vector(x, "x"), "x")
    y = _check_cone(as_vector(y, "y", x.shape[0]), "y")
    return float(_log_span(x, y))


def column_hilbert_radius(x, u) -> float:
    """Largest projective distance from any column of ``x`` to ``u``.

    Every column must stay inside the positive cone (NonpositiveColumn
    otherwise); ``u`` must be strictly positive.
    """
    x = as_matrix(x, "features")
    u = _check_cone(as_vector(u, "u", x.shape[0]), "u")
    if np.any(x.min(axis=0) <= 0.0):
        bad = int(np.argmin(x.min(axis=0)))
        raise NonpositiveColumn(f"column {bad} leaves the positive cone")
    return float(np.max(_log_span(x, u[:, None], axis=0)))


def contraction_ratio(
    a,
    u,
    radius_cap: float = 1.0,
    samples: int = 1000,
    seed: int = 0,
) -> float:
    """Largest observed ``d(a x, u) / d(x, u)`` over sampled cone points.

    ``a`` must be entrywise nonnegative and fix the strictly positive
    direction ``u`` (``a u = lam u`` with ``lam > 0``, checked to 1e-10
    relative; EigenvectorMismatch otherwise). Each sample draws log-space
    coordinates uniform in ``[-radius_cap/2, radius_cap/2)``, then shifts
    and rescales them to span ``[0, target]`` so the distance from ``u``
    is uniform in ``(0, radius_cap)``. The shift keeps every coordinate
    within ``radius_cap`` of zero; scaling the raw draw instead would let
    a near-degenerate spread push ``exp`` out of float range. Samples
    landing closer than 1e-12 to ``u`` are skipped; AllSamplesDegenerate
    is raised if none survive. A cap so large that ``exp`` of it, scaled by
    ``u`` and ``a``, could overflow is rejected with the largest usable one,
    and a zero row of ``a`` is rejected up front.
    """
    a = as_square_matrix(a, "matrix")
    if np.any(a < 0.0):
        raise InvalidParameter("matrix must be entrywise nonnegative")
    zero_rows = np.flatnonzero(~a.any(axis=1))
    if zero_rows.size:
        raise InvalidParameter(f"matrix row {int(zero_rows[0])} is zero, so a x leaves the cone")
    u = _check_cone(as_vector(u, "u", a.shape[0]), "u")
    if not (radius_cap > 0.0 and math.isfinite(radius_cap)):
        raise InvalidParameter(f"radius_cap must be finite and > 0, got {radius_cap}")
    require_positive_int(samples, "samples")
    # The Rayleigh quotient of u / max(u): u @ u itself overflows past 1e154.
    u_max = float(np.max(u))
    v = u / u_max
    av = a @ v
    lam = float(v @ av) / float(v @ v)
    if lam <= 0.0:
        raise EigenvectorMismatch(f"fixed direction has eigenvalue {lam} <= 0")
    if float(np.max(np.abs(av - lam * v))) > 1e-10 * lam:
        raise EigenvectorMismatch("u is not fixed by the matrix to 1e-10")
    # A sample x = u * exp(z), 0 <= z <= radius_cap, has x <= e^cap u, a x <= e^cap w
    # and (a x) / u <= e^cap w / u for w = a u: all finite, with a factor 2 to
    # spare, up to this cap. w itself may overflow, so the logs come from the
    # scaled v: log max w = log max u + log max av, and w / u = av / v.
    log_u = math.log(u_max)
    log_scale = max(0.0, log_u, log_u + math.log(float(np.max(av))),
                    math.log(float(np.max(av / v))))
    limit = math.log(sys.float_info.max / 2.0) - log_scale
    if radius_cap > limit:
        raise InvalidParameter(f"radius_cap must be at most {limit:.6g} for this matrix and u, "
                               f"past which a sample overflows; got {radius_cap}")
    rng = Xoshiro256pp(seed)
    n = u.shape[0]
    worst = 0.0
    used = 0
    for _ in range(samples):
        xi = rng.fill(n, -radius_cap / 2.0, radius_cap / 2.0)
        spread = float(np.max(xi) - np.min(xi))
        target = radius_cap * rng.random()
        if spread < DEGENERATE_RADIUS:
            continue
        # The cap keeps x and a x finite and x positive; a x can still be 0
        # where a row's products underflow.
        x = u * np.exp((xi - float(np.min(xi))) * (target / spread))
        d0 = _log_span(x, u)
        if d0 < DEGENERATE_RADIUS:
            continue
        d1 = _log_span(_check_cone(a @ x, "a x"), u)
        used += 1
        ratio = d1 / d0
        if ratio > worst:
            worst = ratio
    if used == 0:
        raise AllSamplesDegenerate(f"all {samples} samples fell within {DEGENERATE_RADIUS} of u")
    return float(worst)


def activation_eigenvector_check(activation, u, t_values) -> bool:
    """True when ``activation(t * u)`` stays on the line spanned by ``u``
    for every ``t``: the residual of its unit vector off that line is at
    most 1e-12. Both unit vectors are taken at any magnitude, so the answer
    does not depend on the scale of ``u``.
    """
    u = _check_cone(as_vector(u, "u"), "u")
    unit = _unit(u)
    for t in t_values:
        t = float(t)
        if t == 0.0 or not math.isfinite(t):
            raise InvalidParameter(f"t values must be finite and nonzero, got {t}")
        y = activation.apply(t * u)
        if not y.any():
            continue
        y = _unit(y)
        resid = y - float(unit @ y) * unit
        if math.sqrt(float(resid @ resid)) > 1e-12:
            return False
    return True
