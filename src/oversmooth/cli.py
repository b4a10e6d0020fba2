"""Command line front end.

Exit codes: 0 success, 2 parse/shape/argument problems, 3 numerical
degeneracies, 4 insufficient input (too few runs, too short series, no
edges). Everything is printed as plain text; file outputs are the same CSV
artifacts the library writes.
"""

from __future__ import annotations

import argparse
import glob
import sys

from . import errors, experiments, graph, hilbert, metrics, pipeline, propagate
from .rng import subseed

EXIT_OK = 0
EXIT_PARSE = errors._BadInput.exit_code
EXIT_NUMERIC = errors._NumericFailure.exit_code
EXIT_INSUFFICIENT = errors._InsufficientInput.exit_code

_ACTIVATIONS = {
    "lrelu": propagate.leaky_relu,
    "tanh": propagate.tanh,
}

_WEIGHTS = {
    "identity": lambda scale: propagate.identity_weights(),
    "uniform-nonneg": propagate.uniform_nonneg,
    "uniform-signed": propagate.uniform_signed,
}


def _ba_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected N,M, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers N,M, got {text!r}") from None


def _resolve_graph(args) -> graph.Graph:
    if args.graph is not None:
        return graph.read_grf(args.graph)
    n, m = args.ba
    return graph.barabasi_albert(n, m, subseed(args.seed, 0))


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="path to a .grf graph file")
    src.add_argument(
        "--ba",
        type=_ba_pair,
        metavar="N,M",
        help="generate a preferential-attachment graph (seeded from --seed)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oversmooth",
        description="Deterministic laboratory for feature-collapse metrics of graph message passing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="run the 12-row decay grid and write verdicts + traces")
    p.add_argument("--rows", default="all", help="'all' or one grid row name")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--depth", type=int, default=300)
    p.add_argument("--base-seed", type=int, default=17)
    p.add_argument("--out", required=True)

    p = sub.add_parser("toy", help="evaluate the four hand-built scenarios")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rollout", help="run one propagation and write its metric trace")
    _add_graph_source(p)
    p.add_argument("--arch", choices=["gcn", "gat"], default="gcn")
    p.add_argument("--act", choices=sorted(_ACTIVATIONS), default="lrelu")
    p.add_argument("--weights", choices=sorted(_WEIGHTS), default="identity")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--depth", type=int, default=50)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bias", action="store_true")
    p.add_argument("--residual", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="print the metric suite for a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--u", default="gcn", help="'gcn', 'const', or a vector file")

    p = sub.add_parser("correlate", help="correlate run manifests against accuracy")
    p.add_argument("--manifests", required=True, help="glob over manifest JSON files")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rate", help="measured vs predicted off-direction decay rate")
    _add_graph_source(p)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("contraction", help="sampled projective contraction ratio")
    p.add_argument("--matrix", required=True)
    p.add_argument("--u", required=True, help="vector file with the fixed positive direction")
    p.add_argument("--cap", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_synth(args) -> int:
    rows = experiments.GRID_ROW_NAMES if args.rows == "all" else (args.rows,)
    config = experiments.SynthConfig(
        n=args.n,
        m=args.m,
        width=args.width,
        depth=args.depth,
        seeds=args.seeds,
        base_seed=args.base_seed,
        rows=tuple(rows),
    )
    grid = experiments.synth_table(config)
    written = pipeline.write_report(args.out, grid=grid, traces=grid.traces)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_toy(args) -> int:
    _, scenarios = experiments.toy_scenarios(seed=args.seed)
    lines = pipeline._report_table([sc.report for sc in scenarios], "scenario",
                                   [sc.name for sc in scenarios])
    print(pipeline._write_table(args.out, "toy_scenarios.csv", lines))
    return EXIT_OK


def _cmd_rollout(args) -> int:
    g = _resolve_graph(args)
    activation = _ACTIVATIONS[args.act]()
    weights = _WEIGHTS[args.weights](args.scale)
    config = propagate.PropagationConfig(
        graph=g,
        width=args.width,
        depth=args.depth,
        arch=args.arch,
        activation=activation,
        weights=weights,
        seed=subseed(args.seed, 1),
        use_bias=args.bias,
        use_residual=args.residual,
    )
    trace = propagate.rollout(config)
    reports = metrics.metric_suite(trace.features, g, propagate._direction(args.arch, g))
    written = pipeline.write_report(args.out, traces={(args.arch, args.seed): reports})
    if trace.truncated_at is not None:
        print(f"truncated at layer {trace.truncated_at}", file=sys.stderr)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    g = graph.read_grf(args.graph)
    x = pipeline.load_matrix(args.features)
    rep = metrics.metric_suite(x, g, pipeline._direction(args.u, g))
    for line in pipeline._report_table([rep]):
        print(line)
    return EXIT_OK


def _cmd_correlate(args) -> int:
    paths = sorted(glob.glob(args.manifests))
    if not paths:
        raise errors.InsufficientRuns(f"no manifests match {args.manifests!r}")
    manifests = [pipeline.read_manifest(p) for p in paths]
    g = graph.read_grf(args.graph)
    report = pipeline.correlate(manifests, g)
    written = pipeline.write_report(args.out, correlation=report)
    for path in written:
        print(path)
    print(f"accuracy_ratio={pipeline.format_float(report.accuracy_ratio)}")
    return EXIT_OK


def _cmd_rate(args) -> int:
    g = _resolve_graph(args)
    report = experiments.rate_check(g, args.width, args.depth, subseed(args.seed, 1))
    print(
        f"measured_rate={pipeline.format_float(report.measured_rate)} "
        f"predicted_rate={pipeline.format_float(report.predicted_rate)}"
    )
    return EXIT_OK


def _cmd_contraction(args) -> int:
    a = pipeline.load_matrix(args.matrix)
    u = pipeline.load_vector(args.u)
    ratio = hilbert.contraction_ratio(a, u, args.cap, args.samples, args.seed)
    print(f"contraction_ratio={pipeline.format_float(ratio)}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "toy": _cmd_toy,
    "rollout": _cmd_rollout,
    "metrics": _cmd_metrics,
    "correlate": _cmd_correlate,
    "rate": _cmd_rate,
    "contraction": _cmd_contraction,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except errors.OversmoothError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
