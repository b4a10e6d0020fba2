"""Benchmark of the oversmooth package, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. One process runs one workload as a closed loop with one
client: the next operation starts when the previous one has ended.
Operations run until their summed wall time reaches ``--seconds``; each
operation's outputs are checked outside the timed region, and an
operation that raises or fails a check counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; ``setup_s`` is the median over three fresh child
processes of the time from spawn until imports, input generation and
warm-up are done. With ``--trace 1`` the program's public functions are
wrapped in spans and the JSON carries per-operation self times and counters
per module; the spans are written to ``bench/out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# BLAS and OpenMP pools are pinned to one thread, so that a run measures the
# same single-threaded computation whatever the machine's core count, and
# BLAS threads do not compete with the rest of the machine's load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0
# A run stops after the first operation past this much loop wall time, so
# that it ends well inside three minutes even on a slow machine.
LOOP_WALL_LIMIT_S = 120.0

WORKLOADS = ("grid_desk", "rollout_large", "correlate_files")

PER_LAYER = (
    ("rng.fill.self_s", "s"),
    ("rng.fill.draws", "count"),
    ("graph.barabasi_albert.self_s", "s"),
    ("graph.sym_norm_adjacency.self_s", "s"),
    ("graph.read_grf.self_s", "s"),
    ("propagate.gcn_layer.self_s", "s"),
    ("propagate.gcn_layer.calls", "count"),
    ("propagate.gcn_layer.bytes", "bytes_computed"),
    ("propagate.gat_attention.self_s", "s"),
    ("propagate.gat_attention.bytes", "bytes_computed"),
    ("propagate.rollout.self_s", "s"),
    ("metrics.metric_suite.self_s", "s"),
    ("metrics.metric_suite.calls", "count"),
    ("linalg.singular_values.self_s", "s"),
    ("experiments.run_grid_cell.self_s", "s"),
    ("experiments.decay_classify.self_s", "s"),
    ("pipeline.read_manifest.self_s", "s"),
    ("pipeline.load_matrix.self_s", "s"),
    ("pipeline.load_matrix.bytes", "bytes"),
    ("pipeline.correlate.self_s", "s"),
    ("pipeline.write_report.self_s", "s"),
    ("pipeline.write_report.bytes", "bytes"),
)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """Put the checkout's ``src`` first on the path and import the benchmark
    modules; exits with status 2 when the checkout holds no program."""
    src = ROOT / "src"
    if not (src / "oversmooth" / "__init__.py").is_file():
        _log(f"bench: no program at {src / 'oversmooth'}; run from a source checkout")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import oversmooth

    if Path(oversmooth.__file__).resolve().parent != (src / "oversmooth").resolve():
        _log(f"bench: imported oversmooth from {oversmooth.__file__}, not from {src}")
        sys.exit(2)
    import tracer
    import workloads

    return workloads, tracer


def measure(workload, seconds: float, tracer=None):
    """Closed loop; returns (op durations, failed count)."""
    durations: list[float] = []
    failed = 0
    i = 0
    loop_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
            problems = None
        except Exception:
            problems = [traceback.format_exc()]
        finally:
            durations.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
        if problems is None:
            try:
                problems = workload.check(i, out)
            except Exception:
                problems = ["check raised: " + traceback.format_exc()]
        if problems:
            failed += 1
            _log(f"bench: op {i} failed: " + "; ".join(problems[:5]))
        i += 1
        if sum(durations) >= seconds or time.perf_counter() - loop_start > LOOP_WALL_LIMIT_S:
            return durations, failed


def _probe_setup(args) -> float:
    """Wall time from spawning a fresh benchmark process until it reports
    that set-up and warm-up are done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: set up, warm up, print "ready" and exit (one setup_s sample).
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workloads, tracer_mod = import_program()

    setup_samples = []
    if not args.trace and not args.probe:
        setup_samples = [_probe_setup(args) for _ in range(SETUP_PROBES)]

    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.FULL[args.workload](args.seed, str(work_dir))
        workload.warm_up()
        if args.probe:
            print("ready", flush=True)
            return 0
        tracer = tracer_mod.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            durations, failed = measure(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(durations)
    completed = attempted - failed
    timed = sum(durations)
    ops_per_s = completed / timed
    if tracer is None:
        values = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_s_p50": (statistics.median(durations), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write_spans(spans_path)
        per_op = tracer.per_op(attempted)
        values = {name: (per_op.get(name, 0.0), unit) for name, unit in PER_LAYER}
        _log(f"bench: traced ops_per_s={ops_per_s:.4f}, spans in {spans_path}")
    _log(f"bench: {args.workload} seed={args.seed}: {attempted} ops, {failed} failed, "
         f"{timed:.2f} s timed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
