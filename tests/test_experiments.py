"""Experiment-harness tests: decay classifier, grid plumbing, rate fits."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth import experiments, metrics
from oversmooth.errors import DisconnectedGraph, InvalidParameter, SeriesTooShort
from oversmooth.experiments import (
    DECAY_WINDOW,
    ENERGY_FLOOR,
    ENERGY_RELATIVE,
    GRID_ROW_NAMES,
    GRID_ROWS,
    MIN_SERIES_LENGTH,
    RANK_THRESHOLD,
    SynthConfig,
    TOY_NAMES,
    decay_classify,
    metric_series,
    rate_check,
    rate_check_matrix,
    run_grid_cell,
    synth_table,
    toy_scenarios,
)
from oversmooth.graph import Graph, barabasi_albert, sym_norm_adjacency
from oversmooth.metrics import CANONICAL_METRICS, metric_suite


def test_energy_series_decays_with_crossing_layer():
    series = [0.9**l for l in range(300)]
    verdict = decay_classify(series, "energy")
    assert verdict.decayed
    # First layer with 0.9^l <= 1e-6 * 0.9.
    want = math.ceil((math.log(1e-6) + math.log(0.9)) / math.log(0.9))
    assert verdict.crossed_at == want
    assert verdict.threshold == ENERGY_RELATIVE * 0.9


def test_energy_series_constant_does_not_decay():
    verdict = decay_classify([1.0] * 50, "energy")
    assert not verdict.decayed
    assert verdict.crossed_at is None
    assert verdict.window_min == 1.0


def test_energy_threshold_has_absolute_floor():
    series = [1e-13] * 40
    verdict = decay_classify(series, "energy")
    assert verdict.threshold == ENERGY_FLOOR
    assert verdict.decayed


def test_energy_reference_is_layer_one():
    # A huge layer-0 value must not inflate the threshold.
    series = [1e6] + [1.0] * 9 + [0.5] * 30
    verdict = decay_classify(series, "energy")
    assert verdict.threshold == ENERGY_RELATIVE * 1.0
    assert not verdict.decayed


def test_rank_series_uses_fixed_threshold():
    series = [0.5**l for l in range(40)]
    verdict = decay_classify(series, "rank_minus_one")
    assert verdict.decayed
    assert verdict.threshold == RANK_THRESHOLD
    assert verdict.crossed_at == 7
    flat = decay_classify([0.5] * 40, "rank_minus_one")
    assert not flat.decayed


def test_decay_window_is_the_tail():
    # A transient dip outside the final window must not count.
    series = [1.0] * 40
    series[5] = 0.0
    verdict = decay_classify(series, "energy")
    assert not verdict.decayed
    late = [1.0] * 40
    late[-1] = 0.0
    assert decay_classify(late, "energy").decayed


def test_decay_handles_nan_entries():
    series = [1.0] * 40
    for k in range(40 - DECAY_WINDOW, 40):
        series[k] = float("nan")
    verdict = decay_classify(series, "energy")
    assert not verdict.decayed
    assert math.isnan(verdict.window_min)


def test_decay_validation():
    with pytest.raises(SeriesTooShort):
        decay_classify([1.0] * (MIN_SERIES_LENGTH - 1), "energy")
    with pytest.raises(InvalidParameter):
        decay_classify([1.0] * 40, "slope")


def test_metric_series_has_one_owner():
    assert experiments.metric_series is metrics.metric_series


def test_metric_series_shifts_rank_units():
    g = barabasi_albert(6, 2, seed=1)
    x = np.ones((6, 3))
    u = np.full(6, 1.0 / math.sqrt(6.0))
    rep = metric_suite(x, g, u)
    assert metric_series([rep], "num_rank") == [rep.num_rank - 1.0]
    assert metric_series([rep], "e_dir") == [rep.e_dir]


def test_metric_series_maps_none_to_nan():
    g = barabasi_albert(6, 2, seed=1)
    rep = metric_suite(np.zeros((6, 3)), g, np.full(6, 1.0 / math.sqrt(6.0)))
    assert rep.num_rank is None
    assert math.isnan(metric_series([rep], "num_rank")[0])


def test_grid_row_catalog():
    assert len(GRID_ROWS) == 12
    assert GRID_ROW_NAMES == (
        "gcn_lrelu_identity", "gcn_tanh_identity", "gat_lrelu_identity",
        "gat_tanh_identity", "gcn_lrelu_small", "gcn_tanh_small",
        "gat_lrelu_small", "gat_tanh_small", "gcn_lrelu_large",
        "gcn_tanh_large", "gat_lrelu_large", "gat_tanh_large",
    )


def test_synth_config_validation():
    with pytest.raises(InvalidParameter):
        SynthConfig(rows=("gcn_lrelu_identity", "resnet"))
    with pytest.raises(InvalidParameter):
        SynthConfig(seeds=0)
    with pytest.raises(InvalidParameter):
        SynthConfig(depth=10)
    for bad in ({"seeds": 2.5}, {"n": 10.0}, {"width": True}, {"m": 0}, {"depth": 300.0}):
        with pytest.raises(InvalidParameter):
            SynthConfig(**bad)
    for base_seed in (1.5, "17", None, False):
        with pytest.raises(InvalidParameter, match="base_seed"):
            SynthConfig(base_seed=base_seed)


def test_non_integer_seeds_are_invalid_parameters():
    g = barabasi_albert(8, 2, seed=0)
    calls = (lambda: toy_scenarios(1.5), lambda: rate_check(g, width=4, depth=30, seed=1.5),
             lambda: rate_check_matrix(np.full((2, 2), 0.5), width=2, depth=30, seed=1.5))
    for call in calls:
        with pytest.raises(InvalidParameter, match="seed"):
            call()


def test_run_grid_cell_is_reproducible():
    config = SynthConfig(depth=19, width=8)
    row = GRID_ROWS[0]
    a = run_grid_cell(row, config, 0)
    b = run_grid_cell(row, config, 0)
    assert len(a) == 20
    assert a[-1].e_dir == b[-1].e_dir
    assert a[-1].erank == b[-1].erank
    c = run_grid_cell(row, config, 1)
    assert c[-1].e_dir != a[-1].e_dir


def test_synth_table_small_run_structure():
    config = SynthConfig(depth=30, width=8, seeds=1, rows=("gcn_lrelu_identity",))
    grid = synth_table(config)
    assert set(grid.verdicts) == {("gcn_lrelu_identity", m) for m in CANONICAL_METRICS}
    assert len(grid.votes[("gcn_lrelu_identity", "e_dir")]) == 1
    assert len(grid.traces[("gcn_lrelu_identity", 0)]) == 31
    for key, flag in grid.verdicts.items():
        votes = grid.votes[key]
        assert flag == (sum(v.decayed for v in votes) * 2 > 1)


def test_toy_scenarios_structure():
    g, toys = toy_scenarios(seed=0)
    assert g.n == 50
    assert tuple(t.name for t in toys) == TOY_NAMES
    for toy in toys:
        assert toy.features.shape == (50, 2)
        col = toy.features[:, 0]
        assert_allclose(toy.direction, col / math.sqrt(float(col @ col)), rtol=1e-15)
        again = metric_suite(toy.features, g, toy.direction)
        assert again.e_proj == toy.report.e_proj
        assert again.erank == toy.report.erank


def test_toy_scenarios_expected_shape_of_results():
    _, toys = toy_scenarios(seed=0)
    identical, aligned, outlier, independent = toys
    assert identical.report.e_dir == 0.0
    assert identical.report.mad == 0.0
    assert aligned.report.num_rank == 1.0
    assert aligned.report.mad > 0.1
    assert outlier.report.e_proj > 1e-6
    assert independent.report.erank > outlier.report.erank


def test_rate_check_matrix_exact_two_point_spectrum():
    # At width 1 each weight is a nonzero scalar, which cancels in the
    # ratio, so the decay is exactly that of a. Depth stays shallow enough
    # that the tracked ratio (0.5^l) never sinks to the ~1e-12 precision of
    # the fitted dominant direction.
    a = np.diag([1.0, 0.5])
    report = rate_check_matrix(a, width=1, depth=20, seed=0)
    assert_allclose(report.predicted_rate, 0.5, rtol=1e-9)
    assert_allclose(report.measured_rate, 0.5, rtol=1e-5)
    assert report.fit_start == 10
    assert report.fit_stop == 20
    assert len(report.ratios) == 21


def test_rate_check_matrix_random_weights_same_rate():
    a = np.diag([1.0, 0.7, 0.3])
    report = rate_check_matrix(a, width=8, depth=60, seed=3)
    assert_allclose(report.measured_rate, 0.7, rtol=0.05)


def test_rate_check_matrix_instant_alignment():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    report = rate_check_matrix(a, width=1, depth=10)
    assert report.measured_rate == 0.0
    assert report.ratios[-1] == 0.0


def test_rate_check_matrix_fit_window_invariants():
    # A denormal-scale second eigenvalue wipes the off-direction residual to
    # an exact zero in one step, which must take the instant-alignment path
    # rather than a degenerate fit.
    report = rate_check_matrix(np.diag([1.0, 1e-300]), width=1, depth=10)
    assert report.measured_rate == 0.0
    assert report.ratios[-1] == 0.0
    normal = rate_check_matrix(np.diag([1.0, 0.5]), width=1, depth=12)
    assert normal.fit_stop - normal.fit_start >= 1
    assert normal.fit_stop == len(normal.ratios) - 1


def test_rate_check_matrix_validation():
    a = np.eye(2)
    with pytest.raises(InvalidParameter):
        rate_check_matrix(a, depth=3)
    with pytest.raises(InvalidParameter):
        rate_check_matrix(a, depth=40.0)


def test_rate_check_matrix_is_scale_free():
    # Renormalized layers cancel any scale of a; at 2^600 the squared entries
    # overflowed, at 2^-600 they underflowed to a rate of 0 after one layer,
    # and at 2^1023 the product a x itself overflows unless a is prescaled.
    a = np.asarray(sym_norm_adjacency(barabasi_albert(12, 2, 1)))
    want = rate_check_matrix(a, width=8, depth=40, seed=3).measured_rate
    for scale in (2.0**600, 2.0**-600, 2.0**1023):
        got = rate_check_matrix(a * scale, width=8, depth=40, seed=3).measured_rate
        assert_allclose(got, want, rtol=1e-6)


def test_rate_check_solves_one_eigenproblem(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def spy(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    g = barabasi_albert(12, 2, seed=3)
    for seed in (0, 1):
        rate_check(g, width=8, depth=30, seed=seed)
    assert calls == [(12, 12)] * 2


def test_rate_check_on_graph_matches_gap():
    # Depth is chosen so gap^depth stays well above the ~1e-12 precision of
    # the fitted dominant direction; deeper fits flatten into that floor.
    # At width 1 the scalar weights cancel, leaving power iteration on one
    # start vector. Seed 0's has a generic second-eigenvector component;
    # seed 4's is 2e-4 of its first, so the third eigenvalue still steers
    # the fit window and the fit reads 0.504 against a gap of 0.623.
    g = barabasi_albert(8, 2, seed=21)
    clean = rate_check(g, width=1, depth=30, seed=0)
    assert clean.predicted_rate > 0.0
    assert_allclose(clean.measured_rate, clean.predicted_rate, rtol=1e-3)
    noisy = rate_check(g, width=16, depth=30, seed=4)
    assert_allclose(noisy.measured_rate, noisy.predicted_rate, rtol=0.1)


def test_rate_check_refuses_a_disconnected_graph():
    # Eigenvalue 1 is repeated, so no dominant direction or gap is defined.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(DisconnectedGraph):
        rate_check(g, width=4, depth=30)
