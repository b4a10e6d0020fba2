"""Hash every output of a fixed set of CLI commands, to check byte identity.

    python tools/golden.py --src <checkout>/src [--python-kernels]

Each command runs in a fresh interpreter with ``--src`` first on the import
path and OpenBLAS, OpenMP and MKL pinned to one thread, inside one temporary
directory. Paths are passed relative to that directory, so nothing a clean
run prints depends on where it is. The input files are written by the
package under test, in a subprocess of their own.

The output starts with a header: numpy's version, the BLAS it was built
with, and ``np.show_runtime()`` (SIMD extensions, BLAS threads). Then come
sorted ``sha256  path`` lines for every file written and for each command's
stdout and stderr, one ``exit=<code>  <command>`` line per command, and a
last ``digest`` line over all of them. Two checkouts that print the same
digest on one machine and numpy build wrote the same bytes.

Every command must exit 0 with an empty stderr, or with exactly the text
``STDERR`` expects of it: a warning or a traceback names the checkout's
absolute path, and a command that fails the same way on both trees proves
nothing. Any that does not is named on a ``FAILED`` line, and the script
exits 1. The set-up must exit 0 with an empty stderr too.

With ``--python-kernels`` every process, the set-up included, gets a
kernel cache directory that others may write to, which the package
refuses, so each C kernel runs its Python specification. Its stderr may
then also hold one fallback warning for each kernel it uses, and nothing
else; the warnings are dropped before stderr is hashed, so the digest is
the default run's when every kernel equals its specification. A run in
which no process warned at all did not force anything, and fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# Writes the inputs of the commands below into ./inputs.
SETUP = r"""
import json
import numpy as np
from oversmooth.graph import (barabasi_albert, gcn_dominant_eigenvector,
                              row_stochastic_adjacency, write_grf)
from oversmooth.pipeline import write_matrix
from oversmooth.propagate import PropagationConfig, rollout, tanh, uniform_signed

g = barabasi_albert(30, 2, 5)
write_grf(g, "inputs/g.grf")
write_matrix(3.7e200 * gcn_dominant_eigenvector(g)[None, :], "inputs/u_big.dmat")
accuracies = (0.91, 0.74, 0.52, 0.33)
for k, depth in enumerate((2, 4, 8, 16)):
    config = PropagationConfig(graph=g, width=8, depth=depth, activation=tanh(),
                               weights=uniform_signed(1.0), seed=9)
    write_matrix(rollout(config).features[-1], f"inputs/run{k}.dmat")
    with open(f"inputs/run{k}.json", "w") as f:
        json.dump({"depth": depth, "accuracy": accuracies[k], "layer_paths": [f"run{k}.dmat"],
                   "arch_label": "gcn", "u_source": "gcn"}, f)
walk = row_stochastic_adjacency(barabasi_albert(12, 2, 77))
write_matrix(np.asarray(walk), "inputs/walk.dmat")
write_matrix(np.ones((1, 12)), "inputs/ones.dmat")
"""

COMMANDS = {
    "synth": ["synth", "--out", "synth"],
    "toy": ["toy", "--out", "toy"],
    "rollout_gcn": ["rollout", "--ba", "50,2", "--out", "rollout_gcn"],
    "rollout_gcn_2000": ["rollout", "--ba", "2000,2", "--act", "tanh", "--weights",
                         "uniform-signed", "--depth", "20", "--width", "64", "--seed", "1",
                         "--out", "rollout_gcn_2000"],
    "rollout_gat_300": ["rollout", "--ba", "300,2", "--arch", "gat", "--depth", "10",
                        "--out", "rollout_gat_300"],
    "rollout_gat_1000": ["rollout", "--ba", "1000,2", "--arch", "gat", "--depth", "10",
                         "--out", "rollout_gat_1000"],
    "rollout_gat_overflow": ["rollout", "--ba", "10,2", "--arch", "gat", "--weights",
                             "uniform-nonneg", "--scale", "1e60", "--depth", "20",
                             "--out", "rollout_gat_overflow"],
    "rollout_bias_residual": ["rollout", "--graph", "inputs/g.grf", "--act", "tanh",
                              "--weights", "uniform-nonneg", "--scale", "0.1", "--bias",
                              "--residual", "--depth", "30", "--width", "16", "--seed", "2",
                              "--out", "rollout_bias_residual"],
    "rate_defaults": ["rate", "--ba", "20,2"],
    "rate_ba12": ["rate", "--ba", "12,2", "--depth", "60", "--seed", "3"],
    "metrics_gcn": ["metrics", "--features", "inputs/run3.dmat", "--graph", "inputs/g.grf"],
    "metrics_const": ["metrics", "--features", "inputs/run3.dmat", "--graph", "inputs/g.grf",
                      "--u", "const"],
    "metrics_file": ["metrics", "--features", "inputs/run3.dmat", "--graph", "inputs/g.grf",
                     "--u", "inputs/u_big.dmat"],
    "correlate": ["correlate", "--manifests", "inputs/run*.json", "--graph", "inputs/g.grf",
                  "--out", "correlate"],
    "contraction": ["contraction", "--matrix", "inputs/walk.dmat", "--u", "inputs/ones.dmat",
                    "--cap", "2.302585092994046", "--samples", "2000", "--seed", "2718"],
}

# The stderr a command must print, where it is not empty.
STDERR = {"rollout_gat_overflow": b"truncated at layer 5\n"}

MAIN = "import sys; from oversmooth.cli import main; sys.exit(main(sys.argv[1:]))"

# A fallback warning as Python prints it: where it is attributed, the
# message naming the kernel, then that line of source.
FALLBACK = re.compile(rb"^[^\n]*:\d+: RuntimeWarning: ([^\n]*?) C kernel unavailable "
                      rb"[^\n]*; running its Python specification\n(?:  [^\n]*\n)?", re.M)


def _env(src: Path, cache: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    if cache is not None:
        env["XDG_CACHE_HOME"] = str(cache)
    return env


def _without_fallbacks(stderr: bytes) -> tuple[bytes, list[bytes]]:
    """``stderr`` without its fallback warnings, and the kernels they name."""
    return FALLBACK.sub(b"", stderr), FALLBACK.findall(stderr)


def _header() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = io.StringIO()
    with contextlib.redirect_stdout(runtime):
        np.show_runtime()
    lines = [f"# numpy {np.__version__}", f"# blas {blas.get('name')} {blas.get('version')}"]
    return lines + [f"# {line}" for line in runtime.getvalue().splitlines()]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden(src: Path, python_kernels: bool = False) -> tuple[list[str], list[str]]:
    """The sorted hash and exit-code lines of one run of the command set, and
    a ``FAILED`` line for the set-up or each command that exited nonzero or
    wrote other stderr than ``STDERR`` expects."""
    entries = []
    failed = []
    fallbacks = []
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        root = Path(tmp)
        (root / "inputs").mkdir()
        cache = None
        if python_kernels:
            cache = root / "cache"
            (cache / "oversmooth").mkdir(parents=True)
            (cache / "oversmooth").chmod(0o777)
        env = _env(src, cache)

        def run(name: str, code: str, *argv: str) -> subprocess.CompletedProcess:
            done = subprocess.run([sys.executable, "-c", code, *argv], cwd=root, env=env,
                                  capture_output=True)
            kernels = []
            if python_kernels:
                done.stderr, kernels = _without_fallbacks(done.stderr)
                fallbacks.extend(kernels)
            if done.returncode != 0 or done.stderr != STDERR.get(name, b""):
                failed.append(f"FAILED  {name}: exit={done.returncode}, "
                              f"{len(done.stderr)} bytes of stderr")
            elif len(set(kernels)) != len(kernels):
                failed.append(f"FAILED  {name}: a kernel warned twice")
            return done

        run("setup", SETUP)
        for name, argv in COMMANDS.items():
            done = run(name, MAIN, *argv)
            entries.append((f"{name}.stdout", f"{_sha(done.stdout)}  {name}.stdout"))
            entries.append((f"{name}.stderr", f"{_sha(done.stderr)}  {name}.stderr"))
            entries.append((f"{name}.exit", f"exit={done.returncode}  {name}"))
        for path in root.rglob("*"):
            if path.is_file():
                rel = path.relative_to(root).as_posix()
                entries.append((rel, f"{_sha(path.read_bytes())}  {rel}"))
    if python_kernels and not fallbacks:
        failed.append("FAILED  --python-kernels: no kernel fell back")
    return [line for _, line in sorted(entries)], failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src directory of the checkout to hash")
    parser.add_argument("--python-kernels", action="store_true",
                        help="run each C kernel's Python specification instead")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "oversmooth" / "__init__.py").is_file():
        parser.error(f"{src} holds no oversmooth package")
    lines, failed = golden(src, args.python_kernels)
    header = _header() + ["# C kernels: Python specifications"] * args.python_kernels
    for line in header + lines + failed:
        print(line)
    listing = "".join(line + "\n" for line in lines)
    print(f"digest  {_sha(listing.encode())}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
