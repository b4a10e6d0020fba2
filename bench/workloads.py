"""The benchmark's workloads.

A workload builds its inputs from the workload seed when constructed (part
of set-up), runs one operation per ``op(i)`` (the timed region) and checks
that operation's outputs in ``check(i, out)`` (untimed). Every operation
does the same amount of work. Operation ``i`` draws its inputs from
``derive(seed, 1, i)``; set-up and warm-up use ``derive(seed, 0)``.
The program is reached only through the public functions of its modules,
looked up at call time so that a traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from oversmooth import experiments, graph, metrics, pipeline, propagate, rng

from checks import (
    attention_matches,
    bits_equal,
    correlation_matches,
    csv_rows,
    derive,
    eigenvector_fixed,
    report_bounds,
    report_matches,
    uniforms_match,
)

WIDTH = 32
ATTACH = 2  # preferential-attachment edges per arriving vertex
REF_DRAWS = 64  # leading draws compared against the reference generator
# Metrics classified as rank-minus-one series by the decay grid (README).
RANK_METRICS = ("erank", "num_rank")


def _op_seed(seed: int, i: int) -> int:
    return derive(seed, 1, i)


def _trace_csv_problems(written, reports) -> list[str]:
    """The trace CSV holds one line per layer and round-trips the last one."""
    if len(written) != 1:
        return [f"write_report wrote {len(written)} files, expected 1"]
    rows = csv_rows(written[0])
    if len(rows) != len(reports) + 1:
        return [f"trace CSV has {len(rows) - 1} layers, expected {len(reports)}"]
    last = reports[-1]
    cells = rows[-1][1:]
    want = [getattr(last, m) for m in metrics.CANONICAL_METRICS] + [last.frob_norm]
    if [float(c) for c in cells] != [float("nan") if v is None else float(v) for v in want]:
        return ["trace CSV does not round-trip the last layer"]
    return []


class GridDesk:
    """Decay-grid passes at the ``synth`` defaults. One op is one pass over
    the twelve grid rows at one base seed; each cell runs ``run_grid_cell``,
    ``decay_classify`` on its seven series and ``write_report`` of its trace."""

    def __init__(self, seed: int, work_dir: str, depth: int = 300):
        self.seed = seed
        self.work_dir = work_dir
        self.depth = depth
        self.rerun_row = derive(seed, 0) % len(experiments.GRID_ROWS)

    def _cell(self, row_index: int, base_seed: int):
        row = experiments.GRID_ROWS[row_index]
        config = experiments.SynthConfig(depth=self.depth, base_seed=base_seed)
        reports = experiments.run_grid_cell(row, config, 0)
        verdicts = [
            experiments.decay_classify(
                experiments.metric_series(reports, m),
                experiments.RANK_KIND if m in RANK_METRICS else experiments.ENERGY_KIND,
            )
            for m in metrics.CANONICAL_METRICS
        ]
        written = pipeline.write_report(self.work_dir, traces={(row.name, 0): reports})
        return config, reports, verdicts, written

    def warm_up(self) -> None:
        # One GCN and one GAT row, both cheap identity-weight rows.
        for name in ("gcn_lrelu_identity", "gat_lrelu_identity"):
            self._cell(experiments.GRID_ROW_NAMES.index(name), derive(self.seed, 0))

    def op(self, i: int):
        base_seed = _op_seed(self.seed, i)
        return [self._cell(k, base_seed) for k in range(len(experiments.GRID_ROWS))]

    def check(self, i: int, out) -> list[str]:
        if len(out) != len(experiments.GRID_ROWS):
            return [f"{len(out)} cells, expected {len(experiments.GRID_ROWS)}"]
        problems = []
        for k, cell in enumerate(out):
            name = experiments.GRID_ROWS[k].name
            problems += [f"{name}: {p}" for p in self.check_cell(k, cell, i == 0)]
        return problems

    def check_cell(self, k: int, cell, first_pass: bool) -> list[str]:
        config, reports, verdicts, written = cell
        problems = []
        if len(reports) != self.depth + 1:
            problems.append(f"{len(reports)} layers, expected {self.depth + 1}")
        bound = min(config.n, config.width)
        for layer, rep in enumerate(reports):
            problems += [f"layer {layer}: {p}" for p in report_bounds(rep, bound)]
        for metric, v in zip(metrics.CANONICAL_METRICS, verdicts):
            series = experiments.metric_series(reports, metric)
            if v.decayed:
                crossing_ok = v.crossed_at is not None and series[v.crossed_at] <= v.threshold
            else:
                crossing_ok = v.crossed_at is None
            if v.decayed != (v.window_min <= v.threshold) or not crossing_ok:
                problems.append(f"{metric}: verdict {v} contradicts its series")
        # The rollout stream of this cell: subseed(subseed(subseed(base, k), 0), 1).
        stream = derive(config.base_seed, k, 0, 1)
        problems += uniforms_match(rng.Xoshiro256pp(stream).fill(REF_DRAWS), stream)
        problems += _trace_csv_problems(written, reports)
        if first_pass and k == self.rerun_row:
            again = experiments.run_grid_cell(experiments.GRID_ROWS[k], config, 0)
            if [repr(dataclasses.astuple(r)) for r in again] != [
                repr(dataclasses.astuple(r)) for r in reports
            ]:
                problems.append("rerun of the cell is not bit-identical")
        return problems


class Rollout:
    """One seeded rollout on a fresh preferential-attachment graph: tanh,
    nonnegative uniform weights on [0, 0.1), width 32, a ``metric_suite``
    hook on every layer, and ``write_report`` of the trace."""

    def __init__(self, seed: int, work_dir: str, arch: str, n: int, depth: int):
        self.seed = seed
        self.work_dir = work_dir
        self.arch = arch
        self.n = n
        self.depth = depth

    def _run(self, seed: int):
        g = graph.barabasi_albert(self.n, ATTACH, derive(seed, 0))
        if self.arch == "gcn":
            u = graph.gcn_dominant_eigenvector(g)
        else:
            u = graph.constant_unit_vector(g.n)
        config = propagate.PropagationConfig(
            graph=g,
            width=WIDTH,
            depth=self.depth,
            arch=self.arch,
            activation=propagate.tanh(),
            weights=propagate.uniform_nonneg(0.1),
            seed=derive(seed, 1),
        )
        trace = propagate.rollout(config, metric_hook=lambda x: metrics.metric_suite(x, g, u))
        written = pipeline.write_report(self.work_dir, traces={(self.arch, 0): trace.reports})
        return g, u, trace, written

    def warm_up(self) -> None:
        self._run(derive(self.seed, 0))

    def op(self, i: int):
        return self._run(_op_seed(self.seed, i))

    def check(self, i: int, out) -> list[str]:
        g, u, trace, written = out
        problems = []
        if trace.truncated_at is not None:
            problems.append(f"rollout truncated at layer {trace.truncated_at}")
        if not len(trace.features) == len(trace.reports) == self.depth + 1:
            return problems + [f"{len(trace.features)} layers, expected {self.depth + 1}"]
        x0 = trace.features[0].ravel()[:REF_DRAWS]
        problems += uniforms_match(x0, trace.config.seed)
        bound = min(g.n, WIDTH)
        for layer, rep in enumerate(trace.reports):
            problems += [f"layer {layer}: {p}" for p in report_bounds(rep, bound)]
        for layer in sorted({0, self.depth // 2, self.depth}):
            problems += [
                f"layer {layer}: {p}"
                for p in report_matches(trace.reports[layer], trace.features[layer], u)
            ]
        if self.arch == "gcn":
            problems += eigenvector_fixed(graph.sym_norm_adjacency(g), u)
        else:
            draw = np.random.default_rng(derive(_op_seed(self.seed, i), 2))
            x = draw.standard_normal((g.n, WIDTH))
            w = draw.standard_normal((WIDTH, WIDTH)) / math.sqrt(WIDTH)
            p1, p2 = draw.standard_normal(WIDTH), draw.standard_normal(WIDTH)
            alpha = trace.config.gat_leaky_alpha
            att = propagate.gat_attention(x, w, p1, p2, g, alpha)
            problems += attention_matches(att, g, x, w, p1, p2, alpha)
        return problems + _trace_csv_problems(written, trace.reports)


class RolloutPair:
    """One GCN rollout, then one GAT rollout, per op."""

    def __init__(self, gcn: Rollout, gat: Rollout):
        self.parts = (gcn, gat)

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def op(self, i: int):
        return [part.op(i) for part in self.parts]

    def check(self, i: int, out) -> list[str]:
        return [
            f"{part.arch}: {p}" for part, o in zip(self.parts, out) for p in part.check(i, o)
        ]


def _rollout_pair(seed, d, gcn_n, gcn_depth, gat_n, gat_depth) -> RolloutPair:
    # The GAT half takes its seeds from derive(seed, 2), so that the two
    # halves never share a graph seed.
    return RolloutPair(Rollout(seed, d, "gcn", gcn_n, gcn_depth),
                       Rollout(derive(seed, 2), d, "gat", gat_n, gat_depth))


class CorrelateFiles:
    """Correlation of stored runs against accuracy. Set-up writes one `.grf`
    and ``runs`` manifests, each with its own depth, accuracy and final-layer
    `.dmat`; one op reads them all back, correlates, and writes the report.

    Run ``k``'s features are ``outer(u, a) + t_k * outer(w, b)`` with ``u``
    the GCN dominant eigenvector and unit ``w`` orthogonal to it, so its
    projection energy is ``t_k^2 |b|^2`` in closed form.
    """

    def __init__(self, seed: int, work_dir: str, n: int = 2000, runs: int = 8):
        s = derive(seed, 0)
        g = graph.barabasi_albert(n, ATTACH, derive(s, 0))
        self.n = n
        self.edges = g.edges
        self.work_dir = work_dir
        self.grf = os.path.join(work_dir, "graph.grf")
        graph.write_grf(g, self.grf)
        u = graph.gcn_dominant_eigenvector(g)
        draw = np.random.default_rng(derive(s, 1))
        a = draw.standard_normal(WIDTH)
        b = draw.standard_normal(WIDTH)
        w = draw.standard_normal(n)
        w -= u * (u @ w)
        w /= np.linalg.norm(w)
        self.b_norm2 = float(b @ b)
        self.depths = [int(d) for d in draw.choice(np.arange(2, 65), size=runs, replace=False)]
        self.t = [math.exp(-0.1 * d) * float(draw.uniform(0.8, 1.25)) for d in self.depths]
        self.accuracies = [
            min(1.0, max(0.05, 0.9 - 0.01 * d + float(draw.uniform(-0.05, 0.05))))
            for d in self.depths
        ]
        self.matrices = []
        self.manifests = []
        for k, (depth, acc, t) in enumerate(zip(self.depths, self.accuracies, self.t)):
            x = np.outer(u, a) + t * np.outer(w, b)
            pipeline.write_matrix(x, os.path.join(work_dir, f"run{k}.dmat"))
            self.matrices.append(x)
            path = os.path.join(work_dir, f"run{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"depth": depth, "accuracy": acc, "layer_paths": [f"run{k}.dmat"],
                           "arch_label": "gcn", "u_source": "gcn"}, fh)
            self.manifests.append(path)

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int):
        g = graph.read_grf(self.grf)
        manifests = [pipeline.read_manifest(p) for p in self.manifests]
        report = pipeline.correlate(manifests, g)
        written = pipeline.write_report(self.work_dir, correlation=report)
        return g, manifests, report, written

    def check(self, i: int, out) -> list[str]:
        g, manifests, report, written = out
        problems = []
        if g.n != self.n or g.edges != self.edges:
            problems.append("read_grf does not return the written graph")
        if [m.depth for m in manifests] != self.depths or [
            m.accuracy for m in manifests
        ] != self.accuracies:
            problems.append("manifests do not return the written depths and accuracies")
        problems += correlation_matches(report, self.t, self.b_norm2, self.depths, self.accuracies)
        # One stored matrix per op, in turn, is compared bit for bit.
        k = i % len(self.manifests)
        loaded = pipeline.load_matrix(manifests[k].layer_paths[-1])
        problems += bits_equal(loaded, self.matrices[k], f"run{k}.dmat")
        rows = dict((r[0], r[1]) for r in csv_rows(written[0])) if len(written) == 1 else {}
        if rows.get("e_proj") != pipeline.format_float(report.correlations["e_proj"]):
            problems.append("correlations.csv does not hold the e_proj correlation")
        return problems


FULL = {
    "grid_desk": lambda seed, d: GridDesk(seed, d),
    "rollout_large": lambda seed, d: _rollout_pair(seed, d, 2000, 20, 1000, 10),
    "correlate_files": lambda seed, d: CorrelateFiles(seed, d),
}

# Small sizes for the benchmark's own tests.
TINY = {
    "grid_desk": lambda seed, d: GridDesk(seed, d, depth=24),
    "rollout_large": lambda seed, d: _rollout_pair(seed, d, 60, 4, 60, 4),
    "correlate_files": lambda seed, d: CorrelateFiles(seed, d, n=60, runs=4),
}
