"""Collapse metric tests: pinned small-case values, invariances, degeneracy,
and the equivalence of a stacked metric suite to its per-layer calls."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth import metrics
from oversmooth.errors import (
    AllEdgesSkipped,
    InvalidParameter,
    NoEdges,
    NonpositiveEigenvector,
    NonUnitVector,
    ShapeMismatch,
    ZeroMatrix,
)
from oversmooth.experiments import GRID_ROWS
from oversmooth.graph import Graph, barabasi_albert, constant_unit_vector, gcn_dominant_eigenvector
from oversmooth.metrics import (
    CANONICAL_METRICS,
    MetricReport,
    dirichlet_energy,
    effective_rank,
    mad,
    metric_suite,
    normalized_energies,
    numerical_rank,
    numrank_upper_bound_check,
    projection_energy,
    stable_rank,
)
from oversmooth.propagate import PropagationConfig, identity, rollout, uniform_nonneg
from oversmooth.rng import Xoshiro256pp


def edge2() -> Graph:
    return Graph.from_edges(2, [(0, 1)])


def test_canonical_metric_order():
    assert CANONICAL_METRICS == (
        "e_dir",
        "e_dir_norm",
        "e_proj",
        "e_proj_norm",
        "mad",
        "erank",
        "num_rank",
    )


def test_dirichlet_energy_single_edge():
    s = math.sqrt(2.0)
    assert_allclose(dirichlet_energy([[2.0], [0.0]], edge2(), [s, s]), 2.0, rtol=1e-15)


def test_dirichlet_energy_zero_on_aligned_rows():
    # Rows proportional to the weighting vector difference out exactly.
    u = np.array([2.0, 3.0])
    x = np.outer(u, [1.5, -0.25])
    assert dirichlet_energy(x, edge2(), u) == 0.0


def test_dirichlet_energy_is_squared_homogeneous():
    g = barabasi_albert(8, 2, seed=1)
    x = Xoshiro256pp(3).matrix(8, 3, -1.0, 1.0)
    u = gcn_dominant_eigenvector(g)
    assert_allclose(
        dirichlet_energy(4.0 * x, g, u), 16.0 * dirichlet_energy(x, g, u), rtol=1e-12
    )


def test_dirichlet_energy_rejects_zero_weight_entries():
    with pytest.raises(NonpositiveEigenvector):
        dirichlet_energy([[1.0], [1.0]], edge2(), [1.0, 0.0])


def test_projection_energy_orthogonal_feature():
    assert projection_energy([[0.0], [1.0]], [1.0, 0.0]) == 1.0


def test_projection_energy_requires_unit_direction():
    with pytest.raises(NonUnitVector):
        projection_energy([[1.0], [1.0]], [1.0, 1.0])


def test_projection_energy_pythagoras():
    # Mass along u plus mass outside it is the total squared norm.
    rng = Xoshiro256pp(4)
    x = rng.matrix(6, 3, -2.0, 2.0)
    u = rng.fill(6, 0.1, 1.0)
    u /= math.sqrt(float(u @ u))
    on_line = float(np.sum((np.outer(u, u @ x)) ** 2))
    assert_allclose(projection_energy(x, u) + on_line, float(np.sum(x * x)), rtol=1e-12)


def test_normalized_energies_scale_invariant():
    g = barabasi_albert(9, 2, seed=2)
    u = gcn_dominant_eigenvector(g)
    x = Xoshiro256pp(5).matrix(9, 4, -1.0, 1.0)
    a = normalized_energies(x, g, u)
    b = normalized_energies(1e6 * x, g, u)
    assert_allclose(a, b, rtol=1e-10)


def test_normalized_energies_proj_exponent_one():
    g = barabasi_albert(9, 2, seed=2)
    u = gcn_dominant_eigenvector(g)
    x = Xoshiro256pp(5).matrix(9, 4, -1.0, 1.0)
    f2 = float(np.sum(x * x))
    _, p2 = normalized_energies(x, g, u, proj_exponent=2)
    _, p1 = normalized_energies(x, g, u, proj_exponent=1)
    assert_allclose(p1, p2 * math.sqrt(f2), rtol=1e-12)
    with pytest.raises(InvalidParameter):
        normalized_energies(x, g, u, proj_exponent=3)


def test_normalized_energies_zero_matrix_raises():
    with pytest.raises(ZeroMatrix):
        normalized_energies(np.zeros((2, 1)), edge2(), [0.6, 0.8])


def test_mad_orthogonal_rows():
    assert mad([[1.0, 0.0], [0.0, 1.0]], edge2()) == 1.0


def test_mad_antiparallel_rows():
    assert mad([[1.0, 0.0], [-1.0, 0.0]], edge2()) == 2.0


def test_mad_identical_rows_is_exactly_zero():
    x = np.tile([0.37, 0.82, 0.11], (2, 1))
    assert mad(x, edge2()) == 0.0


def test_mad_scale_invariant():
    g = barabasi_albert(10, 2, seed=6)
    x = Xoshiro256pp(7).matrix(10, 3, -1.0, 1.0)
    assert_allclose(mad(x, g), mad(1e-8 * x, g), rtol=1e-10)


def test_mad_rows_whose_norm_product_underflows():
    # Rows near 1e-155 have squared norms whose product leaves the float range.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    x = np.array([[1.0, 1.0], [1e-155, 0.0], [0.0, 1e-155]])
    assert_allclose(mad(x, g), (2.0 - 1.0 / math.sqrt(2.0)) / 2.0, rtol=1e-15)
    tiny = np.array([[1.0, 1.0], [1e-155, 3e-156], [1e-155, 3e-156]])
    assert mad(tiny, Graph.from_edges(3, [(1, 2)])) == 0.0
    assert metric_suite(tiny, g, np.full(3, 1.0 / math.sqrt(3.0))).mad == mad(tiny, g)


def test_mad_tiny_rows_whose_squared_norm_underflows_are_live():
    # After the prescale by 64, row 1's squared norm underflows to zero; the
    # row is still nonzero, so both edges count and take the small-norm path.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    x = np.array([[32.0, 32.0], [1.2e-161, 0.0], [1e-155, 3e-156]])
    want = ((1.0 - 1.0 / math.sqrt(2.0)) + (1.0 - 1.0 / math.sqrt(1.09))) / 2.0
    assert_allclose(mad(x, g), want, rtol=1e-14)
    report = metric_suite(x, g, np.full(3, 1.0 / math.sqrt(3.0)))
    assert report.skipped_mad_edges == 0
    assert report.mad == mad(x, g)


def test_mad_skips_zero_rows():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(AllEdgesSkipped):
        mad(x, g)
    report = metric_suite(x, g, np.full(3, 1.0 / math.sqrt(3.0)))
    assert report.mad is None
    assert report.skipped_mad_edges == 2


def test_mad_partial_skip_counts_edges():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    # Only the (0, 1) edge survives; its rows are identical.
    assert mad(x, g) == 0.0
    report = metric_suite(x, g, np.full(3, 1.0 / math.sqrt(3.0)))
    assert report.skipped_mad_edges == 1


def test_mad_needs_edges():
    with pytest.raises(NoEdges):
        mad([[1.0], [1.0]], Graph.from_edges(2, []))


def test_rank_proxies_on_diag_two_one():
    x = np.diag([2.0, 1.0])
    assert_allclose(numerical_rank(x), 1.25, rtol=1e-12)
    assert_allclose(stable_rank(x), 1.8, rtol=1e-12)
    assert_allclose(effective_rank(x), math.exp(math.log(3.0) - (2.0 / 3.0) * math.log(2.0)), rtol=1e-12)


def test_rank_proxies_exact_on_rank_one():
    x = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert numerical_rank(x) == 1.0
    assert stable_rank(x) == 1.0
    assert effective_rank(x) == 1.0


def test_rank_proxies_scale_invariant():
    x = Xoshiro256pp(8).matrix(7, 4, -1.0, 1.0)
    for fn in (numerical_rank, stable_rank, effective_rank):
        assert_allclose(fn(x), fn(1e9 * x), rtol=1e-10)


def test_rank_proxies_bounded_by_min_dimension():
    x = Xoshiro256pp(9).matrix(5, 3, -1.0, 1.0)
    for fn in (numerical_rank, stable_rank, effective_rank):
        assert 1.0 <= fn(x) <= 3.0


def test_rank_proxies_zero_matrix_raises():
    for fn in (numerical_rank, stable_rank, effective_rank):
        with pytest.raises(ZeroMatrix):
            fn(np.zeros((3, 2)))


def test_metric_suite_matches_standalone_functions():
    # Bit-for-bit agreement must also hold where the raw squares underflow
    # or overflow, and the rank proxies must stay finite there.
    g = barabasi_albert(10, 2, seed=10)
    u = gcn_dominant_eigenvector(g)
    base = Xoshiro256pp(11).matrix(10, 4, -1.0, 1.0)
    for factor in (1.0, 1e-200, 1e200, 1.7e308):
        x = factor * base
        rep = metric_suite(x, g, u)
        assert rep.e_dir == dirichlet_energy(x, g, u)
        assert rep.e_proj == projection_energy(x, u)
        e_dir_norm, e_proj_norm = normalized_energies(x, g, u)
        assert rep.e_dir_norm == e_dir_norm
        assert rep.e_proj_norm == e_proj_norm
        assert rep.mad == mad(x, g)
        assert rep.num_rank == numerical_rank(x)
        assert rep.stable_rank == stable_rank(x)
        assert rep.erank == effective_rank(x)
        assert rep.num_rank == numrank_upper_bound_check(x, u)[0]
        for value in (rep.num_rank, rep.stable_rank, rep.erank):
            assert math.isfinite(value) and 1.0 <= value <= 4.0, (factor, value)
    assert metric_suite(base, g, u).frob_norm == math.sqrt(float(np.sum(base * base)))


def test_metric_suite_invariant_under_vertex_relabeling():
    rng = Xoshiro256pp(21)
    g = barabasi_albert(12, 2, seed=21)
    u = gcn_dominant_eigenvector(g)
    x = rng.matrix(12, 5, -1.0, 1.0)
    x[3] = 0.0  # a zero row, so skipped_mad_edges is nonzero
    perm = list(range(12))
    for k in range(11, 0, -1):
        j = rng.randbelow(k + 1)
        perm[k], perm[j] = perm[j], perm[k]
    perm = np.array(perm)
    h = Graph.from_edges(12, [(perm[i], perm[j]) for i, j in g.edges])
    px, pu = np.empty_like(x), np.empty_like(u)
    px[perm], pu[perm] = x, u
    rep, back = metric_suite(x, g, u), metric_suite(px, h, pu)
    assert rep.skipped_mad_edges == back.skipped_mad_edges > 0
    for name in CANONICAL_METRICS + ("stable_rank", "frob_norm"):
        assert_allclose(getattr(back, name), getattr(rep, name), rtol=1e-12, err_msg=name)


def test_metric_suite_exact_under_power_of_two_scaling():
    g = barabasi_albert(12, 2, seed=22)
    u = gcn_dominant_eigenvector(g)
    x = Xoshiro256pp(22).matrix(12, 5, -1.0, 1.0)
    rep = metric_suite(x, g, u)
    for k in (200, -200, 600, -600):
        scaled = metric_suite(math.ldexp(1.0, k) * x, g, u)
        for name in ("e_dir_norm", "e_proj_norm", "mad", "num_rank", "stable_rank", "erank"):
            assert getattr(scaled, name) == getattr(rep, name), (k, name)
        assert scaled.frob_norm == math.ldexp(rep.frob_norm, k)
        if abs(k) == 200:
            assert scaled.e_dir == math.ldexp(rep.e_dir, 2 * k)
            assert scaled.e_proj == math.ldexp(rep.e_proj, 2 * k)


def test_metric_suite_invariant_under_column_rotation():
    rng = Xoshiro256pp(23)
    g = barabasi_albert(12, 2, seed=23)
    u = gcn_dominant_eigenvector(g)
    x = rng.matrix(12, 5, -1.0, 1.0)
    q, _ = np.linalg.qr(rng.matrix(5, 5, -1.0, 1.0))
    rep, rotated = metric_suite(x, g, u), metric_suite(x @ q, g, u)
    for name in ("num_rank", "stable_rank", "erank", "e_proj", "e_dir", "mad"):
        assert_allclose(getattr(rotated, name), getattr(rep, name), rtol=1e-10, err_msg=name)


def test_metric_suite_zero_matrix_markers():
    g = Graph.from_edges(2, [(0, 1)])
    u = np.full(2, 1.0 / math.sqrt(2.0))
    rep = metric_suite(np.zeros((2, 3)), g, u)
    assert rep.e_dir == 0.0 and rep.e_proj == 0.0
    assert rep.e_dir_norm is None and rep.e_proj_norm is None
    assert rep.num_rank is None and rep.stable_rank is None and rep.erank is None
    assert rep.mad is None and rep.skipped_mad_edges == 1
    assert rep.frob_norm == 0.0


def test_metric_suite_checks_direction():
    g = edge2()
    with pytest.raises(NonUnitVector):
        metric_suite([[1.0], [1.0]], g, [1.0, 1.0])
    with pytest.raises(NonpositiveEigenvector):
        metric_suite([[1.0], [1.0]], g, [1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        metric_suite([[1.0], [1.0], [1.0]], g, [0.6, 0.8])


def test_rank_bound_holds_on_random_pairs():
    rng = Xoshiro256pp(12)
    for _ in range(100):
        n = 2 + rng.randbelow(6)
        d = 1 + rng.randbelow(4)
        x = rng.matrix(n, d, -2.0, 2.0)
        if not np.any(x):
            x[0, 0] = 1.0
        u = rng.fill(n, 0.1, 1.0)
        u /= math.sqrt(float(u @ u))
        lhs, rhs = numrank_upper_bound_check(x, u)
        assert rhs - lhs >= -1e-10


def test_rank_bound_tight_when_aligned():
    u = np.array([3.0, 4.0]) / 5.0
    x = np.outer(u, [2.0, 1.0])
    lhs, rhs = numrank_upper_bound_check(x, u)
    assert lhs == 1.0
    assert rhs == pytest.approx(1.0, abs=1e-25)


# Stacked evaluation: metric_suite over an (L, n, w) stack must give, layer
# by layer, the bits of the call on that layer alone.


def bits(report) -> str:
    # repr round-trips every float exactly and keeps None and -0.0 apart.
    return repr(dataclasses.astuple(report))


def assert_stack_matches_layers(x, g, u):
    stacked = metric_suite(x, g, u)
    assert isinstance(stacked, tuple) and len(stacked) == len(x)
    for layer, (got, matrix) in enumerate(zip(stacked, x)):
        assert bits(got) == bits(metric_suite(matrix, g, u)), layer
    return stacked


@pytest.mark.parametrize("row", GRID_ROWS, ids=lambda r: r.name)
def test_stacked_suite_matches_layers_on_every_grid_row(row):
    g = barabasi_albert(10, 2, seed=31)
    u = gcn_dominant_eigenvector(g) if row.arch == "gcn" else constant_unit_vector(g.n)
    config = PropagationConfig(
        graph=g, width=32, depth=100, arch=row.arch, activation=row.activation,
        weights=row.weights, seed=32,
    )
    features = rollout(config).features
    # More than two chunks of layers, so that chunk boundaries fall inside.
    chunk = metrics._CHUNK_ELEMENTS // (max(g.edge_arrays[0].shape[0], g.n) * 32)
    assert len(features) > 2 * chunk
    for k in (0, 600, -600):
        assert_stack_matches_layers(np.ldexp(features, k), g, u)


def test_stacked_suite_matches_layers_on_a_strided_view():
    # Many edges per layer, so a sum taken in another order than the
    # per-layer call's would change last bits; tiny, huge and zero rows send
    # edges down the small-norm and skipped paths.
    g = barabasi_albert(60, 3, seed=33)
    u = gcn_dominant_eigenvector(g)
    base = Xoshiro256pp(34).fill(24 * 120 * 15, -1.0, 1.0).reshape(24, 120, 15)
    base[3] *= 1e-160
    base[5] *= 1e300
    base[7, 4] = 0.0
    base[9, :, 1::3] = 0.0
    x = base[:, ::2, ::3]
    assert not x.flags.c_contiguous and not x.flags.f_contiguous
    stacked = assert_stack_matches_layers(x, g, u)
    assert stacked[7].skipped_mad_edges > 0


def test_stacked_suite_zero_layer_gives_markers():
    g = barabasi_albert(8, 2, seed=35)
    u = gcn_dominant_eigenvector(g)
    x = Xoshiro256pp(36).fill(5 * 8 * 3, -1.0, 1.0).reshape(5, 8, 3)
    x[2] = 0.0
    stacked = assert_stack_matches_layers(x, g, u)
    zero = stacked[2]
    assert zero.e_dir_norm is None and zero.e_proj_norm is None and zero.mad is None
    assert zero.num_rank is None and zero.stable_rank is None and zero.erank is None
    assert stacked[1].num_rank is not None and stacked[3].num_rank is not None


def test_stacked_suite_on_an_edgeless_graph():
    g = Graph.from_edges(4, [])
    x = Xoshiro256pp(37).fill(3 * 4 * 2, 0.1, 1.0).reshape(3, 4, 2)
    for rep in assert_stack_matches_layers(x, g, constant_unit_vector(4)):
        assert rep.mad is None and rep.skipped_mad_edges == 0 and rep.e_dir == 0.0


def test_one_layer_stack_equals_the_matrix_call():
    g = barabasi_albert(9, 2, seed=38)
    u = gcn_dominant_eigenvector(g)
    x = Xoshiro256pp(39).matrix(9, 4, -1.0, 1.0)
    single = metric_suite(x, g, u)
    assert isinstance(single, MetricReport)
    (stacked,) = metric_suite(x[None], g, u)
    assert bits(stacked) == bits(single)


def test_stacked_suite_on_a_truncated_rollout():
    g = barabasi_albert(20, 2, seed=40)
    config = PropagationConfig(
        graph=g, width=8, depth=400, activation=identity(), weights=uniform_nonneg(3.0),
        seed=41,
    )
    trace = rollout(config)
    assert trace.truncated_at is not None
    assert len(trace.features) == trace.truncated_at
    reports = assert_stack_matches_layers(trace.features, g, gcn_dominant_eigenvector(g))
    assert math.isinf(reports[-1].e_dir)


def test_stacked_suite_checks_its_input():
    g = edge2()
    u = np.full(2, 1.0 / math.sqrt(2.0))
    with pytest.raises(ShapeMismatch):
        metric_suite(np.ones((1, 1, 2, 3)), g, u)
    with pytest.raises(ShapeMismatch):
        metric_suite(np.ones((4, 3, 2)), g, u)
    with pytest.raises(ShapeMismatch):
        metric_suite(np.ones((0, 2, 3)), g, u)
    bad = np.ones((4, 2, 3))
    bad[2, 1, 0] = math.nan
    with pytest.raises(InvalidParameter):
        metric_suite(bad, g, u)
