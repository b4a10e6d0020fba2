"""End-to-end checks pinning the package's headline behaviors.

Each test records one summary line through the ``acceptance`` fixture
(conftest.py), always before its own asserts, so an honest failure still
prints its FAIL line in the terminal summary.
"""

import json
import math
import time

import numpy as np

from oversmooth.experiments import (
    GRID_ROW_NAMES,
    GRID_ROWS,
    metric_series,
    rate_check,
    run_grid_cell,
    synth_table,
    toy_scenarios,
    SynthConfig,
)
from oversmooth.graph import (
    barabasi_albert,
    constant_unit_vector,
    gcn_dominant_eigenvector,
    row_stochastic_adjacency,
    sym_norm_adjacency,
)
from oversmooth.hilbert import contraction_ratio, hilbert_distance
from oversmooth.linalg import spectral_gap
from oversmooth.metrics import (
    CANONICAL_METRICS,
    SV_NOISE_FLOOR,
    effective_rank,
    metric_suite,
    numerical_rank,
    numrank_upper_bound_check,
    stable_rank,
)
from oversmooth.pipeline import correlate, read_manifest, write_matrix, write_report
from oversmooth.propagate import (
    identity,
    rollout,
    tanh,
    uniform_nonneg,
    uniform_signed,
    PropagationConfig,
)
from oversmooth.rng import Xoshiro256pp


def _closed_sym_eigvals(g: np.ndarray) -> list[float]:
    """Closed-form eigenvalues of a symmetric 1x1, 2x2, or 3x3 matrix."""
    k = g.shape[0]
    if k == 1:
        return [float(g[0, 0])]
    if k == 2:
        h = math.hypot(g[0, 0] - g[1, 1], 2.0 * g[0, 1])
        s = g[0, 0] + g[1, 1]
        return [(s + h) / 2.0, (s - h) / 2.0]
    p1 = g[0, 1] ** 2 + g[0, 2] ** 2 + g[1, 2] ** 2
    q = (g[0, 0] + g[1, 1] + g[2, 2]) / 3.0
    p2 = (g[0, 0] - q) ** 2 + (g[1, 1] - q) ** 2 + (g[2, 2] - q) ** 2 + 2.0 * p1
    if p2 == 0.0:
        return [q, q, q]
    p = math.sqrt(p2 / 6.0)
    b = (g - q * np.eye(3)) / p
    half_det = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] ** 2)
        - b[0, 1] * (b[0, 1] * b[2, 2] - b[1, 2] * b[0, 2])
        + b[0, 2] * (b[0, 1] * b[1, 2] - b[1, 1] * b[0, 2])
    ) / 2.0
    phi = math.acos(min(1.0, max(-1.0, half_det))) / 3.0
    top = q + 2.0 * p * math.cos(phi)
    bottom = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return [top, 3.0 * q - top - bottom, bottom]


def _ranks_from_gram_eigs(vals, bound: float) -> tuple[float, float, float]:
    """Rank proxies from Gram eigenvalues, using the documented noise clip."""
    sv = np.sqrt(np.maximum(np.sort(np.asarray(vals, dtype=np.float64))[::-1], 0.0))
    sv = sv[sv >= SV_NOISE_FLOOR * sv[0]]
    num = min(max(float(sv @ sv) / float(sv[0]) ** 2, 1.0), bound)
    stab = min(max(float(np.sum(sv)) ** 2 / float(sv @ sv), 1.0), bound)
    p = sv / float(np.sum(sv))
    er = min(max(math.exp(-float(np.sum(p * np.log(p)))), 1.0), bound)
    return num, stab, er


def test_rank_proxies_match_independent_oracle(acceptance):
    rng = Xoshiro256pp(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(200):
        rows = 1 + rng.randbelow(12)
        cols = 1 + rng.randbelow(12)
        x = rng.matrix(rows, cols, -5.0, 5.0)
        if k % 4 == 0 and cols > 1:
            x[:, rng.randbelow(cols)] = 0.0
        g = x.T @ x if rows >= cols else x @ x.T
        g = (g + g.T) * 0.5
        vals = np.linalg.eigvalsh(g)
        bound = float(min(rows, cols))
        want = _ranks_from_gram_eigs(vals, bound)
        if g.shape[0] <= 3:
            cross = _ranks_from_gram_eigs(_closed_sym_eigvals(g), bound)
            worst = max(worst, max(abs(a - b) for a, b in zip(want, cross)))
        got = (numerical_rank(x), stable_rank(x), effective_rank(x))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall < 5.0
    acceptance(1, ok, f"200 matrices, worst rank-proxy deviation {worst:.2e} in {wall:.2f}s")
    assert worst <= 1e-8
    assert wall < 5.0


def test_toy_patterns_pin_degenerate_metric_values(acceptance):
    worst_resid = 0.0
    ok = True
    for seed in range(50):
        _, scen = toy_scenarios(seed)
        by = {s.name: s.report for s in scen}
        r1 = by["identical_rows"]
        r2 = by["aligned_rows"]
        r3 = by["aligned_plus_outlier"]
        r4 = by["independent_rows"]
        ok = ok and r1.e_dir == 0.0 and r1.mad == 0.0
        ok = ok and r1.num_rank == 1.0 and r1.erank == 1.0
        ok = ok and r2.num_rank == 1.0 and r2.erank == 1.0
        ok = ok and r1.e_proj <= 1e-12 and r2.e_proj <= 1e-12 and r2.e_dir <= 1e-12
        ok = ok and r2.mad > 0.0 and r3.mad > 0.0
        ok = ok and r4.erank > r3.erank > 1.0
        worst_resid = max(worst_resid, r1.e_proj, r2.e_proj, r2.e_dir)
    acceptance(2, ok, f"50 seeds, worst near-zero residue {worst_resid:.2e}")
    assert ok


EXPECTED_GRID = {
    "gcn_lrelu_identity": "yyyyyyy",
    "gcn_tanh_identity": "yyyynyy",
    "gat_lrelu_identity": "yyyyyyy",
    "gat_tanh_identity": "yyyynyy",
    "gcn_lrelu_small": "yyyynyy",
    "gcn_tanh_small": "yyyynyy",
    "gat_lrelu_small": "yyyynyy",
    "gat_tanh_small": "yyyynyy",
    "gcn_lrelu_large": "nynyyyy",
    "gcn_tanh_large": "nnnnnnn",
    "gat_lrelu_large": "nynyyyy",
    "gat_tanh_large": "yyyyyyy",
}


def test_decay_grid_matches_expected_pattern(acceptance):
    t0 = time.perf_counter()
    grid = synth_table()
    wall = time.perf_counter() - t0
    got = {
        name: "".join(
            "y" if grid.verdicts[(name, metric)] else "n" for metric in CANONICAL_METRICS
        )
        for name in GRID_ROW_NAMES
    }
    mismatches = {n: (got[n], EXPECTED_GRID[n]) for n in GRID_ROW_NAMES if got[n] != EXPECTED_GRID[n]}
    ok = not mismatches and wall < 60.0
    if mismatches:
        diff = "; ".join(f"{n} got {g} want {w}" for n, (g, w) in mismatches.items())
        detail = f"{12 - len(mismatches)}/12 rows match in {wall:.1f}s; {diff}"
    else:
        detail = f"12/12 rows match expected decay pattern in {wall:.1f}s"
    acceptance(3, ok, detail)
    assert wall < 60.0
    assert got == EXPECTED_GRID


def test_fitted_rates_track_spectral_gaps(acceptance):
    found = 0
    seed = 1000
    worst = 0.0
    while found < 20:
        n = 8 + seed % 9
        g = barabasi_albert(n, 2, seed=seed)
        seed += 1
        gap = spectral_gap(sym_norm_adjacency(g))
        if not 0.2 <= gap <= 0.9:
            continue
        found += 1
        # Per-layer renormalization tracks the off-direction ratio only down
        # to the rounding-level precision of the dominant direction, so the
        # fit window must end while gap^depth is still far above that floor.
        depth = max(16, min(60, int(-9.0 * math.log(10.0) / math.log(gap))))
        rep = rate_check(g, width=16, depth=depth, seed=seed)
        rel = abs(rep.measured_rate - rep.predicted_rate) / rep.predicted_rate
        worst = max(worst, rel)
    ok = found == 20 and worst <= 0.10
    acceptance(4, ok, f"20 graphs, worst relative rate error {worst:.3f}")
    assert found == 20
    assert worst <= 0.10


def test_deep_rollouts_collapse_numerical_rank(acceptance):
    g = barabasi_albert(10, 2, seed=51)
    u = gcn_dominant_eigenvector(g)
    cfg = PropagationConfig(
        graph=g,
        width=32,
        depth=200,
        arch="gcn",
        activation=identity(),
        weights=uniform_signed(1.0),
        seed=52,
    )
    trace = rollout(cfg, metric_hook=lambda x: metric_suite(x, g, u))
    linear_gap = trace.reports[-1].num_rank - 1.0

    g2 = barabasi_albert(10, 2, seed=61)
    u2 = constant_unit_vector(g2.n)
    x0 = Xoshiro256pp(63).matrix(10, 32, 0.1, 1.0)
    cfg2 = PropagationConfig(
        graph=g2,
        width=32,
        depth=300,
        arch="gat",
        activation=tanh(),
        weights=uniform_nonneg(0.1),
        seed=62,
        init=x0,
    )
    trace2 = rollout(cfg2, metric_hook=lambda x: metric_suite(x, g2, u2))
    attn_gap = trace2.reports[-1].num_rank - 1.0
    frob_first = trace2.reports[0].frob_norm
    frob_last = trace2.reports[-1].frob_norm
    ok = (
        trace.truncated_at is None
        and trace2.truncated_at is None
        and linear_gap < 1e-3
        and attn_gap < 1e-2
        and frob_last > frob_first
    )
    acceptance(
        5,
        ok,
        f"linear num_rank-1 {linear_gap:.2e} at layer 200; attention num_rank-1 "
        f"{attn_gap:.2e} at layer 300 while frob grows {frob_first:.2f} -> {frob_last:.2f}",
    )
    assert trace.truncated_at is None
    assert linear_gap < 1e-3
    assert trace2.truncated_at is None
    assert attn_gap < 1e-2
    assert frob_last > frob_first


def test_rank_bound_never_undershoots(acceptance):
    rng = Xoshiro256pp(99)
    worst = 0.0
    for _ in range(1000):
        n = 2 + rng.randbelow(15)
        d = 1 + rng.randbelow(8)
        x = rng.matrix(n, d, -3.0, 3.0)
        u = rng.fill(n, -1.0, 1.0)
        u = u / math.sqrt(float(u @ u))
        lhs, rhs = numrank_upper_bound_check(x, u)
        worst = min(worst, rhs - lhs)
    ok = worst >= -1e-10
    acceptance(6, ok, f"1000 pairs, worst bound slack {worst:.2e}")
    assert worst >= -1e-10


def test_cone_contraction_and_nonexpansiveness(acceptance):
    a = np.array([[0.0, 1.0], [0.5, 0.5]])
    ratio = contraction_ratio(
        a, np.array([1.0, 1.0]), radius_cap=math.log(10.0), samples=10000, seed=2718
    )

    g = barabasi_albert(12, 2, seed=77)
    walk = row_stochastic_adjacency(g)
    ones = np.ones(g.n)
    rng = Xoshiro256pp(404)
    violations = 0
    skipped = 0
    for _ in range(10000):
        x = np.exp(rng.fill(g.n, -2.0, 2.0))
        d0 = hilbert_distance(x, ones)
        if d0 < 1e-12:
            skipped += 1
            continue
        if hilbert_distance(walk @ x, ones) > d0:
            violations += 1
        if hilbert_distance(np.tanh(x), ones) > d0:
            violations += 1
    ok = ratio < 1.0 - 1e-3 and violations == 0
    acceptance(
        7,
        ok,
        f"worst sampled contraction ratio {ratio:.4f}; {violations} expansiveness "
        f"violations on {10000 - skipped} cone points",
    )
    assert ratio < 1.0 - 1e-3
    assert violations == 0


def test_small_weights_drive_projection_energy_down(acceptance):
    config = SynthConfig()
    worst = 0.0
    cells = 0
    for row in GRID_ROWS:
        if not row.name.endswith("_small"):
            continue
        for k in range(config.seeds):
            reports = run_grid_cell(row, config, k)
            series = metric_series(reports, "e_proj")
            worst = max(worst, min(series[1:]) / series[1])
            cells += 1
    ok = cells == 20 and worst <= 1e-6
    acceptance(8, ok, f"20 small-regime rollouts, worst e_proj min/first ratio {worst:.2e}")
    assert cells == 20
    assert worst <= 1e-6


def test_metric_suite_latency_on_large_graph(acceptance):
    g = barabasi_albert(2000, 2, seed=0)
    u = gcn_dominant_eigenvector(g)
    x = Xoshiro256pp(5).matrix(2000, 32, -1.0, 1.0)
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        metric_suite(x, g, u)
        times.append(time.perf_counter() - t0)
    median = sorted(times)[10]
    ok = median < 0.010
    acceptance(9, ok, f"metric suite on 2000x32 took {median * 1000.0:.2f}ms median of 21")
    assert median < 0.010


def _projection_fixture(tmp_path, ts, accs):
    """Manifests whose final-layer off-direction energy is exactly t^2."""
    g = barabasi_albert(3, 2, seed=0)
    u = constant_unit_vector(3)
    w = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    manifests = []
    for k, (t, acc) in enumerate(zip(ts, accs)):
        x = np.outer(u, [1.0, 0.0]) + t * np.outer(w, [0.0, 1.0])
        layer = tmp_path / f"run{k}_final.dmat"
        write_matrix(x, layer)
        payload = {
            "depth": 2 * (k + 1),
            "accuracy": acc,
            "layer_paths": [layer.name],
            "arch_label": "gcn",
            "u_source": "const",
        }
        path = tmp_path / f"run{k}.json"
        path.write_text(json.dumps(payload))
        manifests.append(read_manifest(path))
    return g, manifests


def test_correlation_fixture_reproduces_hand_pearson(acceptance, tmp_path):
    ts = (0.5, 0.3, 0.2, 0.12, 0.08, 0.05, 0.03, 0.02)
    accs = (0.9, 0.82, 0.55, 0.61, 0.4, 0.33, 0.28, 0.2)
    g, manifests = _projection_fixture(tmp_path, ts, accs)

    xs = [2.0 * math.log(t) for t in ts]
    mx = sum(xs) / len(xs)
    my = sum(accs) / len(accs)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, accs))
    den = math.sqrt(
        sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in accs)
    )
    hand = num / den

    outputs = []
    for name in ("first", "second"):
        report = correlate(manifests, g)
        out = tmp_path / name
        out.mkdir()
        paths = write_report(out, correlation=report)
        outputs.append((report, open(paths[0], "rb").read()))
    report = outputs[0][0]
    diff = abs(report.correlations["e_proj"] - hand)
    identical = outputs[0][1] == outputs[1][1]
    ok = (
        diff <= 1e-12
        and identical
        and report.run_count == 8
        and report.accuracy_ratio == accs[-1] / accs[0]
        and abs(hand) < 1.0
    )
    acceptance(10, ok, f"8 runs, |pearson - hand| = {diff:.2e}, reruns byte-identical: {identical}")
    assert diff <= 1e-12
    assert identical
    assert report.run_count == 8
    assert report.accuracy_ratio == accs[-1] / accs[0]
