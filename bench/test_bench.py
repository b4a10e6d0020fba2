"""Tests of the benchmark itself: tiny runs of every workload, and output
checks that must reject deliberately corrupted results.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oversmooth import graph, pipeline, propagate, rng  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_completes_without_failures(name, tmp_path):
    wl = workloads.TINY[name](7, str(tmp_path))
    wl.warm_up()
    durations, failed = run.measure(wl, 0.0)
    assert failed == 0
    assert len(durations) == 1


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_tiny_run_records_spans_and_restores_functions(name, tmp_path):
    wl = workloads.TINY[name](3, str(tmp_path))
    wl.warm_up()
    original = propagate.rollout
    t = tracer.Tracer()
    t.install()
    try:
        durations, failed = run.measure(wl, 0.0, t)
    finally:
        t.uninstall()
    assert failed == 0
    assert propagate.rollout is original
    per_op = t.per_op(len(durations))
    assert per_op["bench.op.self_s"] >= 0.0
    traced = {name for name, *_ in t.spans}
    expected = {
        "grid_desk": {"rng.fill", "metrics.metric_suite", "experiments.decay_classify"},
        "rollout_large": {"propagate.gcn_layer", "graph.sym_norm_adjacency",
                          "propagate.gat_attention", "linalg.singular_values"},
        "correlate_files": {"pipeline.load_matrix", "graph.read_grf", "pipeline.correlate"},
    }[name]
    assert expected <= traced
    assert all(s[2] >= s[1] for s in t.spans)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_s_p50", "peak_rss_mb"}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_generator_matches_the_program():
    for seed in (0, 1, 2**64 - 1, 12345):
        assert checks.uniforms_match(rng.Xoshiro256pp(seed).fill(100), seed) == []
        assert checks.derive(seed, 3, 1) == rng.subseed(rng.subseed(seed, 3), 1)
    assert checks.uniforms_match(rng.Xoshiro256pp(5).fill(10), 6) != []


def test_rollout_check_rejects_a_perturbed_singular_value(tmp_path):
    wl = workloads.TINY["rollout_large"](11, str(tmp_path)).parts[0]
    g, u, trace, written = wl.op(0)
    assert wl.check(0, (g, u, trace, written)) == []
    layer = 0
    sv = np.linalg.svd(trace.features[layer], compute_uv=False)
    sv[1] *= 1.0 + 1e-4
    bad = dataclasses.replace(trace.reports[layer], num_rank=float(sv @ sv) / sv[0] ** 2)
    reports = list(trace.reports)
    reports[layer] = bad
    corrupted = dataclasses.replace(trace, reports=tuple(reports))
    problems = wl.check(0, (g, u, corrupted, written))
    assert any("num_rank" in p for p in problems)


def test_grid_check_rejects_a_report_out_of_range(tmp_path):
    wl = workloads.TINY["grid_desk"](5, str(tmp_path))
    cells = wl.op(1)
    assert wl.check(1, cells) == []
    config, reports, verdicts, written = cells[4]
    bad = list(reports)
    bad[3] = dataclasses.replace(bad[3], e_proj_norm=1.5)
    cells[4] = (config, tuple(bad), verdicts, written)
    problems = wl.check(1, cells)
    assert any("e_proj_norm" in p for p in problems)


def test_correlation_check_rejects_a_swapped_accuracy(tmp_path):
    wl = workloads.TINY["correlate_files"](13, str(tmp_path))
    g, manifests, report, written = wl.op(0)
    assert wl.check(0, (g, manifests, report, written)) == []
    swapped = list(manifests)
    swapped[0], swapped[1] = (
        dataclasses.replace(manifests[0], accuracy=manifests[1].accuracy),
        dataclasses.replace(manifests[1], accuracy=manifests[0].accuracy),
    )
    bad = pipeline.correlate(swapped, g)
    problems = wl.check(0, (g, manifests, bad, written))
    assert any("e_proj correlation" in p for p in problems)


def test_correlation_check_rejects_a_flipped_dmat_bit(tmp_path):
    wl = workloads.TINY["correlate_files"](17, str(tmp_path))
    flipped = wl.matrices[0].copy()
    flipped.view(np.uint64)[3, 5] ^= np.uint64(1)
    pipeline.write_matrix(flipped, tmp_path / "run0.dmat")
    problems = wl.check(0, wl.op(0))
    assert any("run0.dmat" in p for p in problems)


def test_attention_check_rejects_a_non_stochastic_row():
    g = graph.barabasi_albert(40, 2, 9)
    draw = np.random.default_rng(0)
    x, w = draw.standard_normal((40, 8)), draw.standard_normal((8, 8))
    p1, p2 = draw.standard_normal(8), draw.standard_normal(8)
    att = propagate.gat_attention(x, w, p1, p2, g, 0.2)
    assert checks.attention_matches(att, g, x, w, p1, p2, 0.2) == []
    att[4] *= 1.01
    problems = checks.attention_matches(att, g, x, w, p1, p2, 0.2)
    assert any("sum to 1" in p for p in problems)
