"""Feature-collapse metrics: edge energies, angular spread, and rank proxies.

Every metric takes the raw feature matrix (rows are node states). The two
energies measure distance from the dominant propagation direction ``u``: the
edge energy after rescaling rows by ``u``, and the Frobenius mass outside the
rank-one subspace spanned by ``u``. The rank family (numerical rank, stable
rank, effective rank) watches the singular value profile collapse toward
rank one.

Each formula lives in one private kernel that runs on a power-of-two
prescaled copy of the features and validates nothing. ``metric_suite`` and
the standalone functions are views: they validate their input, prescale
once, call the kernels, and unscale the absolute energies or raise. So a
standalone function and the matching suite field agree bit for bit on every
input. On degenerate input (zero matrix, fully skipped edge set) the suite
stores ``None`` markers instead of raising, so layer sweeps can keep going.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllEdgesSkipped,
    InvalidParameter,
    NoEdges,
    NonpositiveEigenvector,
    NonUnitVector,
    ShapeMismatch,
    ZeroMatrix,
)
from .graph import Graph
from .linalg import pow2_scale, singular_values
from .validation import as_matrix, as_vector

# Columns reported by layer traces and cross-run correlation, in order.
CANONICAL_METRICS = (
    "e_dir",
    "e_dir_norm",
    "e_proj",
    "e_proj_norm",
    "mad",
    "erank",
    "num_rank",
)

# Rank-like metrics: they approach 1, not 0, under collapse, so decay
# classification and cross-run correlation both read them as ``value - 1``.
_RANK_METRICS = ("erank", "num_rank")

# Relative noise floor for the entropy/sum based rank proxies. The Gram route
# cannot resolve singular values below ~sqrt(n * machine eps) * s_1, so
# anything under this floor is rounding noise, and dropping it lets an
# exactly rank-one matrix report exactly 1.0.
SV_NOISE_FLOOR = 1e-7

UNIT_TOL = 1e-12


@dataclass(frozen=True)
class MetricReport:
    """One layer's metric values; ``None`` marks an undefined entry.

    The normalized energies and rank proxies are ``None`` when the feature
    matrix is identically zero, ``mad`` when the graph has no edges or every
    edge touched a zero row. ``skipped_mad_edges`` counts edges excluded
    from the angular mean because an endpoint row was exactly zero.
    """

    e_dir: float
    e_dir_norm: float | None
    e_proj: float
    e_proj_norm: float | None
    mad: float | None
    num_rank: float | None
    stable_rank: float | None
    erank: float | None
    frob_norm: float
    skipped_mad_edges: int


def _features_for_graph(x, g: Graph) -> np.ndarray:
    x = as_matrix(x, "features")
    if x.shape[0] != g.n:
        raise ShapeMismatch(
            f"features have {x.shape[0]} rows for a graph with {g.n} vertices"
        )
    return x


def _check_direction(u, n: int, unit: bool = False, nonzero: bool = False) -> np.ndarray:
    u = as_vector(u, "direction vector", n)
    if unit:
        norm = math.sqrt(float(u @ u))
        if abs(norm - 1.0) > UNIT_TOL:
            raise NonUnitVector(f"direction vector has norm {norm!r}, expected 1")
    if nonzero and np.any(u == 0.0):
        raise NonpositiveEigenvector(
            "direction vector entries must be nonzero (rows are rescaled by them)"
        )
    return u


def _check_exponent(proj_exponent: int) -> None:
    if proj_exponent not in (1, 2):
        raise InvalidParameter(f"proj_exponent must be 1 or 2, got {proj_exponent}")


# Kernels. They take the prescaled copy ``xs`` and validate nothing.


def _prescale(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    # Division by a power of two is exact, so every scale-invariant value is
    # bitwise identical to the raw computation in range and finite out of
    # range. Returns (xs, scale, ||xs||_F^2).
    scale = pow2_scale(x)
    xs = x if scale == 1.0 else x / scale
    return xs, scale, float(np.sum(xs * xs))


def _unscale_energy(value: float, scale: float) -> float:
    # Exact power-of-two rescale; an energy beyond the float range becomes an
    # honest inf, and an exact zero must not turn into 0 * inf.
    if value == 0.0 or scale == 1.0:
        return value
    return (value * scale) * scale


def _gather(xs: np.ndarray, g: Graph):
    # Both endpoint rows of every edge, gathered once for e_dir and MAD.
    ei, ej = g.edge_arrays
    return ei, ej, xs[ei], xs[ej]


def _e_dir(edges, u: np.ndarray) -> float:
    ei, ej, xi, xj = edges
    diff = xi / u[ei, None] - xj / u[ej, None]
    return float(np.sum(diff * diff))


def _mad(xs: np.ndarray, edges) -> tuple[float | None, int]:
    # (mean angular distance or None, edges skipped for a zero endpoint row).
    ei, ej, xi, xj = edges
    sq = np.einsum("ij,ij->i", xs, xs)
    si, sj = sq[ei], sq[ej]
    live = (si > 0.0) & (sj > 0.0)
    kept = int(np.count_nonzero(live))
    skipped = int(ei.shape[0]) - kept
    if kept == 0:
        return None, skipped
    if skipped:
        xi, xj, si, sj = xi[live], xj[live], si[live], sj[live]
    dots = np.einsum("ij,ij->i", xi, xj)
    # sqrt(s * s) == s exactly in IEEE-754, so bitwise-identical rows give
    # cosine 1.0 and contribute an exact zero.
    cos = np.clip(dots / np.sqrt(si * sj), -1.0, 1.0)
    return float(np.sum(1.0 - cos) / kept), skipped


def _e_proj(xs: np.ndarray, u: np.ndarray) -> float:
    resid = xs - np.outer(u, u @ xs)
    return float(np.sum(resid * resid))


def _normalized(e_dir: float, e_proj: float, f2: float, scale: float,
                proj_exponent: int) -> tuple[float, float]:
    if proj_exponent == 2:
        return e_dir / f2, e_proj / f2
    return e_dir / f2, (e_proj / math.sqrt(f2)) * scale


def _rank_proxies(xs: np.ndarray) -> tuple[float, float, float, float]:
    # (num_rank, stable_rank, erank, s_1) of a nonzero prescaled matrix, each
    # rank clamped into [1, min(rows, cols)]. Summing the solver's own
    # noise-clipped spectrum rather than the raw squared entries makes an
    # exactly rank-deficient matrix report an exact ratio.
    bound = float(min(xs.shape))
    sv = singular_values(xs)
    s1 = float(sv[0])
    sv = sv[sv >= SV_NOISE_FLOOR * s1]
    sq = float(sv @ sv)
    total = float(np.sum(sv))
    p = sv / total
    entropy = -float(np.sum(p * np.log(p)))
    return (
        min(max(sq / (s1 * s1), 1.0), bound),
        min(max((total * total) / sq, 1.0), bound),
        min(max(math.exp(entropy), 1.0), bound),
        s1,
    )


# Views.


def dirichlet_energy(x, g: Graph, u) -> float:
    """Sum over edges of ``||x_i/u_i - x_j/u_j||^2``, each edge once.

    ``u`` is the (not necessarily unit) dominant-direction weighting; its
    entries must be nonzero. Zero exactly when every row of ``x`` is the
    same multiple of its ``u`` entry.
    """
    x = _features_for_graph(x, g)
    u = _check_direction(u, g.n, nonzero=True)
    xs, scale, _ = _prescale(x)
    return _unscale_energy(_e_dir(_gather(xs, g), u), scale)


def projection_energy(x, u) -> float:
    """Squared Frobenius mass of ``x`` outside the line spanned by unit ``u``."""
    x = as_matrix(x, "features")
    u = _check_direction(u, x.shape[0], unit=True)
    xs, scale, _ = _prescale(x)
    return _unscale_energy(_e_proj(xs, u), scale)


def normalized_energies(x, g: Graph, u, proj_exponent: int = 2) -> tuple[float, float]:
    """Scale-normalized energy pair ``(e_dir, e_proj) / ||x||_F^2``.

    ``proj_exponent=1`` divides the projection energy by ``||x||_F`` instead;
    the default squared denominator is the scale-invariant choice. Both
    ratios are evaluated on a power-of-two scaled copy, so they stay finite
    even when the raw energies overflow.
    """
    _check_exponent(proj_exponent)
    x = _features_for_graph(x, g)
    u = _check_direction(u, g.n, unit=True, nonzero=True)
    xs, scale, f2 = _prescale(x)
    if f2 == 0.0:
        raise ZeroMatrix("normalized energies are undefined for a zero matrix")
    return _normalized(_e_dir(_gather(xs, g), u), _e_proj(xs, u), f2, scale, proj_exponent)


def mad(x, g: Graph) -> float:
    """Mean angular distance ``1 - cos`` across edges, in ``[0, 2]``.

    Edges with a zero-norm endpoint are skipped; raises NoEdges on an
    edgeless graph and AllEdgesSkipped when nothing remains.
    """
    x = _features_for_graph(x, g)
    if g.edge_arrays[0].shape[0] == 0:
        raise NoEdges("mean angular distance needs at least one edge")
    xs, _, _ = _prescale(x)
    value, skipped = _mad(xs, _gather(xs, g))
    if value is None:
        raise AllEdgesSkipped(f"all {skipped} edges touch a zero-norm row")
    return value


def _nonzero_rank_proxies(x, what: str) -> tuple[float, float, float, float]:
    xs, _, f2 = _prescale(as_matrix(x, "features"))
    if f2 == 0.0:
        raise ZeroMatrix(f"{what} is undefined for a zero matrix")
    return _rank_proxies(xs)


def numerical_rank(x) -> float:
    """``||x||_F^2 / ||x||_2^2``, clamped into ``[1, min(rows, cols)]``."""
    return _nonzero_rank_proxies(x, "numerical rank")[0]


def stable_rank(x) -> float:
    """``(sum sv)^2 / sum sv^2`` over the noise-clipped singular values."""
    return _nonzero_rank_proxies(x, "stable rank")[1]


def effective_rank(x) -> float:
    """Exponential of the entropy of the normalized singular value profile."""
    return _nonzero_rank_proxies(x, "effective rank")[2]


def metric_suite(x, g: Graph, u, proj_exponent: int = 2) -> MetricReport:
    """Evaluate every metric once, sharing the singular value computation.

    ``u`` must be unit norm with nonzero entries. Degenerate cases become
    ``None`` markers rather than exceptions; see MetricReport.
    """
    _check_exponent(proj_exponent)
    x = _features_for_graph(x, g)
    u = _check_direction(u, g.n, unit=True, nonzero=True)
    xs, scale, f2 = _prescale(x)
    edges = _gather(xs, g)
    e_dir = _e_dir(edges, u)
    e_proj = _e_proj(xs, u)
    mad_value, skipped = _mad(xs, edges)
    if f2 > 0.0:
        e_dir_norm, e_proj_norm = _normalized(e_dir, e_proj, f2, scale, proj_exponent)
        num_rank, stable, erank, _ = _rank_proxies(xs)
    else:
        e_dir_norm = e_proj_norm = num_rank = stable = erank = None
    return MetricReport(
        e_dir=_unscale_energy(e_dir, scale),
        e_dir_norm=e_dir_norm,
        e_proj=_unscale_energy(e_proj, scale),
        e_proj_norm=e_proj_norm,
        mad=mad_value,
        num_rank=num_rank,
        stable_rank=stable,
        erank=erank,
        frob_norm=math.sqrt(f2) * scale,
        skipped_mad_edges=skipped,
    )


def numrank_upper_bound_check(x, u) -> tuple[float, float]:
    """Numerical rank and its projection-residue upper bound
    ``1 + ||x - u u^T x||_F^2 / ||x||_2^2``, returned as ``(lhs, rhs)``.

    Both sides are dimensionless and are evaluated on a power-of-two scaled
    copy of ``x`` so neither square can overflow.
    """
    x = as_matrix(x, "features")
    u = _check_direction(u, x.shape[0], unit=True)
    xs, _, f2 = _prescale(x)
    if f2 == 0.0:
        raise ZeroMatrix("bound is undefined for a zero matrix")
    lhs, _, _, s1 = _rank_proxies(xs)
    return lhs, 1.0 + _e_proj(xs, u) / (s1 * s1)
