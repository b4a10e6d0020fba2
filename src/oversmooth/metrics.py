"""Feature-collapse metrics: edge energies, angular spread, and rank proxies.

Every metric takes the raw feature matrix (rows are node states). The two
energies measure distance from the dominant propagation direction ``u``: the
edge energy after rescaling rows by ``u``, and the Frobenius mass outside the
rank-one subspace spanned by ``u``. The rank family (numerical rank, stable
rank, effective rank) watches the singular value profile collapse toward
rank one.

Each formula lives in one private kernel that runs on a stack ``(L, n, w)``
of power-of-two prescaled layers and validates nothing: one edge gather per
kernel, one batched Gram product and one batched eigensolve serve every
layer, and only the rank tail (noise floor, entropy, clamps over at most
``min(n, w)`` singular values) runs per layer. ``metric_suite`` and the
standalone functions are views: they validate their input once, prescale,
call the kernels, and unscale the absolute energies or raise. A lone matrix
is the stack of one layer, so each formula has one code path: a standalone
function and the matching suite field agree bit for bit on every input, and
so do a layer of a stack and the same matrix alone. ``metric_suite`` takes a
whole rollout (``LayerTrace.features``) in one call and works through it a
bounded number of layers at a time. On degenerate input (zero matrix, fully
skipped edge set) the suite stores ``None`` markers instead of raising, so
layer sweeps can keep going.
"""

from __future__ import annotations

import math
import sys
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


def metric_series(reports, metric: str) -> list[float]:
    """Extract one metric's layer series; rank metrics are shifted by -1 and
    ``None`` markers become NaN."""
    shift = 1.0 if metric in _RANK_METRICS else 0.0
    values = (getattr(rep, metric) for rep in reports)
    return [math.nan if v is None else float(v) - shift for v in values]


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


def _features(x, rows: int | None = None, stack: bool = False) -> np.ndarray:
    # The validated matrix (or, with ``stack``, an (L, n, w) stack), made
    # C-contiguous: one layout for every input, so a layer of a stack and
    # the same matrix alone are reduced in the same order, bit for bit.
    x = as_matrix(x, "features", stack=stack)
    if x.ndim > 3:
        raise ShapeMismatch(f"features must be 2-D or 3-D, got ndim={x.ndim}")
    if rows is not None and x.shape[-2] != rows:
        raise ShapeMismatch(
            f"features have {x.shape[-2]} rows for a graph with {rows} vertices"
        )
    return np.ascontiguousarray(x)


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


# Kernels. They take a C-contiguous (L, n, w) stack of prescaled layers,
# validate nothing and return one value per layer. Every per-layer sum runs
# over one contiguous row in C order, so a layer gets the same bits alone as
# inside any stack.

# Element budget of one (layers x max(edges, vertices) x width) temporary:
# metric_suite evaluates a stack in chunks of as many layers as fit in it.
_CHUNK_ELEMENTS = 1 << 14


def _matrix_sums(a: np.ndarray):
    # Sum of each matrix of a (..., r, c) array: one pairwise sum over its
    # r*c entries in C order, as numpy sums a contiguous matrix alone.
    return np.sum(a.reshape(a.shape[:-2] + (-1,)), axis=-1)


def _prescale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Division by a power of two is exact, so every scale-invariant value is
    # bitwise identical to the raw computation in range and finite out of
    # range. Returns (xs, scales, ||xs||_F^2), one scale and norm per layer.
    scale = pow2_scale(x)
    xs = x if np.all(scale == 1.0) else x / scale[:, None, None]
    return xs, scale, _matrix_sums(xs * xs)


def _unscale_energy(value: float, scale: float) -> float:
    # Exact power-of-two rescale; an energy beyond the float range becomes an
    # honest inf, and an exact zero must not turn into 0 * inf.
    if value == 0.0 or scale == 1.0:
        return value
    return (value * scale) * scale


def _gather(a: np.ndarray, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    # The rows of both endpoints of every edge, as two (L, m, w) arrays.
    # np.take keeps them C-contiguous; fancy indexing of the middle axis
    # would lay them out edge-major, and a per-layer sum over that layout
    # adds in another order.
    ei, ej = g.edge_arrays
    return np.take(a, ei, axis=1), np.take(a, ej, axis=1)


def _e_dir(xs: np.ndarray, g: Graph, u: np.ndarray) -> np.ndarray:
    diff, other = _gather(xs / u[:, None], g)
    diff -= other
    diff *= diff
    return _matrix_sums(diff)


def _mad(xs: np.ndarray, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    # (1 - cos per edge, live mask), each (L, m). An edge is live when both
    # endpoint rows have a nonzero entry; a dead edge's term is meaningless.
    ei, ej = g.edge_arrays
    xi, xj = _gather(xs, g)
    sq = np.einsum("lij,lij->li", xs, xs)
    nonzero = sq > 0.0
    if not nonzero.all():
        # The squared norm of a tiny nonzero row can underflow to zero.
        zero = ~nonzero
        nonzero[zero] = np.any(xs[zero] != 0.0, axis=1)
    live = nonzero[:, ei] & nonzero[:, ej]
    norms2 = np.where(live, sq[:, ei] * sq[:, ej], 1.0)
    dots = np.einsum("lij,lij->li", xi, xj)
    low = norms2 < sys.float_info.min
    if low.any():
        # si * sj left the normal range (0 / 0 or a lossy subnormal): those
        # edges take their cosine from the rows each divided by its largest
        # magnitude, whose squared norms are >= 1, over a norm product of 1.
        a, b = (r / np.max(np.abs(r), axis=1, keepdims=True) for r in (xi[low], xj[low]))
        sa, sb = np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b)
        dots[low] = np.einsum("ij,ij->i", a, b) / np.sqrt(sa * sb)
        norms2[low] = 1.0
    # sqrt(s * s) == s exactly in IEEE-754, so bitwise-identical rows give
    # cosine 1.0 and contribute an exact zero.
    return 1.0 - np.clip(dots / np.sqrt(norms2), -1.0, 1.0), live


def _mean_angle(terms: np.ndarray, live: np.ndarray, kept: int) -> float | None:
    # One layer's MAD: a 1-D sum over its live terms, in edge order.
    return float(np.add.reduce(terms[live]) / kept) if kept else None


def _e_proj(xs: np.ndarray, u: np.ndarray):
    # Per matrix of any (..., n, w) array; a lone matrix gives a scalar.
    resid = u[:, None] * (u @ xs)[..., None, :]
    np.subtract(xs, resid, out=resid)
    resid *= resid
    return _matrix_sums(resid)


def _normalized(e_dir: float, e_proj: float, f2: float, scale: float,
                proj_exponent: int) -> tuple[float, float]:
    if proj_exponent == 2:
        return e_dir / f2, e_proj / f2
    return e_dir / f2, (e_proj / math.sqrt(f2)) * scale


def _rank_proxies(sv: np.ndarray, bound: float) -> tuple[float, float, float, float]:
    # (num_rank, stable_rank, erank, s_1) from the descending singular values
    # of one nonzero prescaled matrix, each rank clamped into [1, bound].
    # Summing the solver's own noise-clipped spectrum rather than the raw
    # squared entries makes an exactly rank-deficient matrix report an exact
    # ratio.
    s1 = float(sv[0])
    sv = sv[sv >= SV_NOISE_FLOOR * s1]
    sq = float(sv @ sv)
    total = float(np.add.reduce(sv))
    p = sv / total
    entropy = -float(np.add.reduce(p * np.log(p)))
    return (
        min(max(sq / (s1 * s1), 1.0), bound),
        min(max((total * total) / sq, 1.0), bound),
        min(max(math.exp(entropy), 1.0), bound),
        s1,
    )


def _suite(x: np.ndarray, g: Graph, u: np.ndarray, proj_exponent: int) -> list[MetricReport]:
    # Every kernel once over the stack x; only the scalar tail (rank
    # proxies, MAD mean, unscaling) runs per layer.
    xs, scale, f2 = _prescale(x)
    e_dir, e_proj = _e_dir(xs, g, u), _e_proj(xs, u)
    terms, live = _mad(xs, g)
    kept = np.count_nonzero(live, axis=1)
    sv = singular_values(xs)
    bound = float(min(xs.shape[1:]))
    reports = []
    for layer in range(xs.shape[0]):
        s, f, k = float(scale[layer]), float(f2[layer]), int(kept[layer])
        ed, ep = float(e_dir[layer]), float(e_proj[layer])
        if f > 0.0:
            e_dir_norm, e_proj_norm = _normalized(ed, ep, f, s, proj_exponent)
            num_rank, stable, erank, _ = _rank_proxies(sv[layer], bound)
        else:
            e_dir_norm = e_proj_norm = num_rank = stable = erank = None
        reports.append(MetricReport(
            e_dir=_unscale_energy(ed, s),
            e_dir_norm=e_dir_norm,
            e_proj=_unscale_energy(ep, s),
            e_proj_norm=e_proj_norm,
            mad=_mean_angle(terms[layer], live[layer], k),
            num_rank=num_rank,
            stable_rank=stable,
            erank=erank,
            frob_norm=math.sqrt(f) * s,
            skipped_mad_edges=live.shape[1] - k,
        ))
    return reports


# Views. Each validates once and runs the kernels on a stack; a lone matrix
# is the stack of one layer.


def _one_layer(x, rows: int | None = None) -> tuple[np.ndarray, float, float]:
    # A lone validated matrix as the prescaled stack of one layer, with its
    # scale and ||xs||_F^2.
    xs, scale, f2 = _prescale(_features(x, rows)[None])
    return xs, float(scale[0]), float(f2[0])


def dirichlet_energy(x, g: Graph, u) -> float:
    """Sum over edges of ``||x_i/u_i - x_j/u_j||^2``, each edge once.

    ``u`` is the (not necessarily unit) dominant-direction weighting; its
    entries must be nonzero. Zero exactly when every row of ``x`` is the
    same multiple of its ``u`` entry.
    """
    xs, scale, _ = _one_layer(x, g.n)
    u = _check_direction(u, g.n, nonzero=True)
    return _unscale_energy(float(_e_dir(xs, g, u)[0]), scale)


def projection_energy(x, u) -> float:
    """Squared Frobenius mass of ``x`` outside the line spanned by unit ``u``."""
    xs, scale, _ = _one_layer(x)
    u = _check_direction(u, xs.shape[1], unit=True)
    return _unscale_energy(float(_e_proj(xs, u)[0]), scale)


def normalized_energies(x, g: Graph, u, proj_exponent: int = 2) -> tuple[float, float]:
    """Scale-normalized energy pair ``(e_dir, e_proj) / ||x||_F^2``.

    ``proj_exponent=1`` divides the projection energy by ``||x||_F`` instead;
    the default squared denominator is the scale-invariant choice. Both
    ratios are evaluated on a power-of-two scaled copy, so they stay finite
    even when the raw energies overflow.
    """
    _check_exponent(proj_exponent)
    xs, scale, f2 = _one_layer(x, g.n)
    u = _check_direction(u, g.n, unit=True, nonzero=True)
    if f2 == 0.0:
        raise ZeroMatrix("normalized energies are undefined for a zero matrix")
    e_dir, e_proj = float(_e_dir(xs, g, u)[0]), float(_e_proj(xs, u)[0])
    return _normalized(e_dir, e_proj, f2, scale, proj_exponent)


def mad(x, g: Graph) -> float:
    """Mean angular distance ``1 - cos`` across edges, in ``[0, 2]``.

    Edges with a zero endpoint row are skipped; raises NoEdges on an
    edgeless graph and AllEdgesSkipped when nothing remains.
    """
    xs, _, _ = _one_layer(x, g.n)
    edge_count = g.edge_arrays[0].shape[0]
    if edge_count == 0:
        raise NoEdges("mean angular distance needs at least one edge")
    terms, live = _mad(xs, g)
    kept = int(np.count_nonzero(live))
    if kept == 0:
        raise AllEdgesSkipped(f"all {edge_count} edges touch a zero-norm row")
    return _mean_angle(terms[0], live[0], kept)


def _nonzero_rank_proxies(x, what: str) -> tuple[float, float, float, float]:
    xs, _, f2 = _one_layer(x)
    if f2 == 0.0:
        raise ZeroMatrix(f"{what} is undefined for a zero matrix")
    return _rank_proxies(singular_values(xs)[0], float(min(xs.shape[1:])))


def numerical_rank(x) -> float:
    """``||x||_F^2 / ||x||_2^2``, clamped into ``[1, min(rows, cols)]``."""
    return _nonzero_rank_proxies(x, "numerical rank")[0]


def stable_rank(x) -> float:
    """``(sum sv)^2 / sum sv^2`` over the noise-clipped singular values."""
    return _nonzero_rank_proxies(x, "stable rank")[1]


def effective_rank(x) -> float:
    """Exponential of the entropy of the normalized singular value profile."""
    return _nonzero_rank_proxies(x, "effective rank")[2]


def metric_suite(x, g: Graph, u, proj_exponent: int = 2):
    """Evaluate every metric once, sharing the singular value computation.

    ``x`` is one ``(n, w)`` feature matrix, which gives one MetricReport, or
    a stack ``(L, n, w)`` of layers, which gives a tuple of L reports, each
    bit-identical to the call on its layer alone. A stack is validated once
    and evaluated a bounded number of layers at a time. ``u`` must be unit
    norm with nonzero entries. Degenerate cases become ``None`` markers
    rather than exceptions; see MetricReport.
    """
    _check_exponent(proj_exponent)
    x = _features(x, g.n, stack=True)
    u = _check_direction(u, g.n, unit=True, nonzero=True)
    stack = x if x.ndim == 3 else x[None]
    n, w = stack.shape[1:]
    step = max(1, _CHUNK_ELEMENTS // (max(g.edge_arrays[0].shape[0], n) * w))
    reports = []
    for start in range(0, stack.shape[0], step):
        reports += _suite(stack[start:start + step], g, u, proj_exponent)
    return reports[0] if x.ndim == 2 else tuple(reports)


def numrank_upper_bound_check(x, u) -> tuple[float, float]:
    """Numerical rank and its projection-residue upper bound
    ``1 + ||x - u u^T x||_F^2 / ||x||_2^2``, returned as ``(lhs, rhs)``.

    Both sides are dimensionless and are evaluated on a power-of-two scaled
    copy of ``x`` so neither square can overflow.
    """
    xs, _, f2 = _one_layer(x)
    u = _check_direction(u, xs.shape[1], unit=True)
    if f2 == 0.0:
        raise ZeroMatrix("bound is undefined for a zero matrix")
    lhs, _, _, s1 = _rank_proxies(singular_values(xs)[0], float(min(xs.shape[1:])))
    return lhs, 1.0 + float(_e_proj(xs, u)[0]) / (s1 * s1)
