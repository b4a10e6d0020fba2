"""File formats, run manifests, and the cross-run correlation pipeline.

Matrices travel as `.dmat` text (header ``dmat 1 <rows> <cols>``, then one
space-separated row per line, shortest round-trip float formatting so a
write/read cycle is bit-exact) or as headerless rectangular CSV. A `.dmat`
body is parsed by a cached C kernel when it can vouch for it, and otherwise
by the Python reader ``_load_dmat``, its specification, with the same
result. A run manifest is a JSON object describing one trained run: its
depth, final accuracy, per-layer feature files, an architecture label, and
which direction vector to measure against. ``correlate`` turns at least
three such runs into per-metric Pearson correlations between log-metric
values at the final layer and the accuracies.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from ._native import NoKernel, load_function, warn_fallback
from .errors import (
    DegenerateInput,
    InsufficientRuns,
    InvalidParameter,
    IoError,
    LengthMismatch,
    ParseError,
    ShapeMismatch,
)
from .experiments import metric_series
from .graph import Graph, constant_unit_vector, gcn_dominant_eigenvector
from .linalg import pow2_scale
from .metrics import _RANK_METRICS, CANONICAL_METRICS, MetricReport, metric_suite
from .validation import (
    as_matrix,
    body_tokens,
    decode_text,
    parse_header,
    read_bytes,
    read_text,
    write_lines,
)

# Metric values are clamped here before the log transform.
CLAMP_FLOOR = 1e-15

TRACE_COLUMNS = ("layer",) + CANONICAL_METRICS + ("frob_norm",)
# Every MetricReport field in declaration order: the columns of a full report.
_REPORT_FIELDS = tuple(f.name for f in fields(MetricReport))


def format_float(value) -> str:
    """Shortest decimal string that round-trips the float (NaN -> 'nan')."""
    return repr(float(value))


def write_matrix(m, path) -> None:
    """Write a `.dmat` file; reading it back is bit-exact.

    Refuses what ``load_matrix`` would refuse: non-2-D, empty or non-finite.
    """
    m = as_matrix(m)
    lines = [f"dmat 1 {m.shape[0]} {m.shape[1]}"]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in m)
    write_lines(path, lines)


def _parse_row(tokens: list[str], lineno: int) -> np.ndarray:
    """One row of finite floats parsed from ``tokens``; ParseError at ``lineno``."""
    try:
        row = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None
    finite = np.isfinite(row)
    if not finite.all():
        bad = tokens[int(np.argmin(finite))].strip()
        raise ParseError(f"non-finite entry {bad!r}", line=lineno)
    return row


def _load_dmat(lines: list[str]) -> np.ndarray:
    # Rows are kept as they are read, so no header count reserves memory
    # before the body has shown that many values.
    rows, cols = parse_header(lines[0], "dmat 1 <rows> <cols>", (1, 1))
    out = []
    for lineno, tokens in body_tokens(lines, 1):
        if len(out) == rows:
            raise ParseError("more data rows than the header promised", line=lineno)
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} values, got {len(tokens)}", line=lineno)
        out.append(_parse_row(tokens, lineno))
    if len(out) != rows:
        raise ParseError(f"header promised {rows} rows, file has {len(out)}", line=len(lines))
    return np.array(out)


def _load_csv(lines: list[str]) -> np.ndarray:
    rows = []
    for lineno, tokens in body_tokens(lines, 0, ","):
        if rows and len(tokens) != len(rows[0]):
            raise ParseError(
                f"ragged row: expected {len(rows[0])} values, got {len(tokens)}", line=lineno
            )
        rows.append(_parse_row(tokens, lineno))
    if not rows:
        raise ParseError("no data rows", line=1)
    return np.asarray(rows)


# The body walk of ``_load_dmat`` in C, for the files it can vouch for: ASCII
# tokens [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? separated by spaces, lines ended by
# '\n' (blank ones skipped), exactly ``rows`` lines of ``cols`` tokens, and
# every token read whole by strtod without ERANGE. Each such token is a
# float() literal and both round correctly, so the values are float()'s bit
# for bit. Anything else (tabs, '\r', nan, hex, overflow, subnormals, a wrong
# count, a locale whose decimal point is not '.') returns 0 and is left to
# the Python reader. ``buf`` is a bytes object, so buf[len] is a NUL.
_DMAT_SOURCE = r"""
#include <errno.h>
#include <stdint.h>
#include <stdlib.h>
#define DIGIT(c) ((c) >= '0' && (c) <= '9')
int dmat_parse(const char *buf, int64_t start, int64_t len, int64_t rows, int64_t cols,
               double *out) {
    const char *p = buf + start, *end = buf + len;
    int64_t row = 0, col = 0;
    for (;;) {
        if (p == end || *p == '\n') {
            if (col) {
                if (col != cols) return 0;
                row++;
                col = 0;
            }
            if (p == end) return row == rows;
            p++;
            continue;
        }
        if (*p == ' ') { p++; continue; }
        if (row == rows || col == cols) return 0;
        const char *token = p, *digits;
        if (*p == '+' || *p == '-') p++;
        for (digits = p; p < end && DIGIT(*p); p++) {}
        int mantissa = p > digits;
        if (p < end && *p == '.') {
            for (digits = ++p; p < end && DIGIT(*p); p++) {}
            mantissa |= p > digits;
        }
        if (!mantissa) return 0;
        if (p < end && (*p == 'e' || *p == 'E')) {
            if (++p < end && (*p == '+' || *p == '-')) p++;
            for (digits = p; p < end && DIGIT(*p); p++) {}
            if (p == digits) return 0;
        }
        if (p < end && *p != ' ' && *p != '\n') return 0;
        char *stop;
        errno = 0;
        double value = strtod(token, &stop);
        if (stop != p || errno) return 0;
        out[row * cols + col++] = value;
    }
}
"""
_DMAT_FLAGS = ("-O2", "-fPIC", "-shared")
# Odd but valid spellings, blank and space-only lines, leading and trailing
# spaces, no final newline, and values that stress rounding: what the kernel
# must parse exactly as ``_load_dmat`` before it is used.
_DMAT_PROBE = (
    b"dmat 1 3 4\n\n 0.1 -2.5e-3  +1E+300 -0.\n   \n.5 7 9007199254740993 -0\n"
    b"2.2250738585072014e-308 123456789012345678901234567890 1.7976931348623157e308 4e-0"
)


def _load_dmat_kernel():
    """The C body walk, built and checked; raises NoKernel naming why it is unusable."""
    proto = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
                             ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
    fn = load_function("dmat_parse", _DMAT_SOURCE, _DMAT_FLAGS, proto)

    def parse_c(data: bytes, start: int, rows: int, cols: int) -> np.ndarray | None:
        # Tokens are one byte or more, each after the first behind a
        # separator, so a body too short for rows * cols of them is refused
        # before the header's counts reserve any memory.
        if rows * cols > (len(data) - start + 1) // 2:
            return None
        out = np.empty((rows, cols))
        return out if fn(data, start, len(data), rows, cols, out.ctypes.data) else None

    want = _load_dmat(_DMAT_PROBE.decode("ascii").split("\n"))
    got = parse_c(_DMAT_PROBE, _DMAT_PROBE.index(b"\n") + 1, *want.shape)
    if got is None or got.tobytes() != want.tobytes():
        raise NoKernel("self-check mismatch: the C parser differs from the Python reader")
    return parse_c


@functools.cache
def _dmat_kernel():
    """This process's C body walk, or None (after one warning) when unusable."""
    try:
        return _load_dmat_kernel()
    except NoKernel as exc:
        warn_fallback(f".dmat C parser unavailable ({exc}); parsing at Python speed", __file__)
        return None


def _parse_dmat_fast(data: bytes) -> np.ndarray | None:
    """The matrix of ``data`` when the C kernel vouches for its body; None
    leaves the file, whatever is wrong with it, to ``_load_dmat``."""
    newline = data.find(b"\n")
    if newline < 0:
        return None
    # A '\r' would end the header line of the text the Python reader sees.
    head = data[:newline]
    if not head.isascii() or b"\r" in head:
        return None
    try:
        rows, cols = parse_header(head.decode("ascii"), "dmat 1 <rows> <cols>", (1, 1))
    except ParseError:
        return None
    kernel = _dmat_kernel()
    return None if kernel is None else kernel(data, newline + 1, rows, cols)


def load_matrix(path, fmt: str | None = None) -> np.ndarray:
    """Load a `.dmat` or headerless CSV matrix; sniffs the format when
    ``fmt`` is None (a first line starting with ``dmat`` wins)."""
    if fmt not in (None, "dmat", "csv"):
        raise InvalidParameter(f"fmt must be None, 'dmat' or 'csv', got {fmt!r}")
    data = read_bytes(path)
    if fmt is None:
        fmt = "dmat" if data.startswith(b"dmat") else "csv"
    if fmt == "dmat" and (m := _parse_dmat_fast(data)) is not None:
        return m
    lines = decode_text(data, path, "utf-8").split("\n")
    return _load_dmat(lines) if fmt == "dmat" else _load_csv(lines)


def load_vector(path) -> np.ndarray:
    """Load a one-row or one-column matrix file as a vector."""
    m = load_matrix(path)
    if m.shape[0] != 1 and m.shape[1] != 1:
        raise ShapeMismatch(f"expected a vector-shaped file, got {m.shape[0]}x{m.shape[1]}")
    return m.ravel()


@dataclass(frozen=True)
class RunManifest:
    """One trained run: depth, accuracy, layer feature files, labels.

    ``u_source`` is 'gcn', 'const', or 'file'; ``u_path`` holds the file for
    the latter. Relative paths are resolved against the manifest location.
    """

    depth: int
    accuracy: float
    layer_paths: tuple[str, ...]
    arch_label: str
    u_source: str
    u_path: str | None = None


def read_manifest(path) -> RunManifest:
    try:
        raw = json.loads(read_text(path, "utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))

    def fail(msg: str):
        raise ParseError(f"{path}: {msg}")

    depth = raw.get("depth")
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        fail(f"'depth' must be an integer >= 1, got {depth!r}")
    accuracy = raw.get("accuracy")
    if isinstance(accuracy, bool) or not isinstance(accuracy, (int, float)):
        fail(f"'accuracy' must be a number, got {accuracy!r}")
    accuracy = float(accuracy)
    if not 0.0 <= accuracy <= 1.0:
        fail(f"'accuracy' must lie in [0, 1], got {accuracy}")
    paths = raw.get("layer_paths")
    if not isinstance(paths, list) or not paths or not all(isinstance(p, str) for p in paths):
        fail("'layer_paths' must be a nonempty list of strings")
    arch_label = raw.get("arch_label")
    if not isinstance(arch_label, str):
        fail(f"'arch_label' must be a string, got {arch_label!r}")
    source = raw.get("u_source")
    u_path = None
    if isinstance(source, str) and source in ("gcn", "const"):
        u_source = source
    elif isinstance(source, dict) and isinstance(source.get("file"), str):
        u_source = "file"
        u_path = source["file"] if os.path.isabs(source["file"]) else os.path.join(base, source["file"])
    else:
        fail(f"'u_source' must be 'gcn', 'const', or {{'file': path}}, got {source!r}")
    resolved = tuple(
        p if os.path.isabs(p) else os.path.join(base, p) for p in paths
    )
    return RunManifest(
        depth=depth,
        accuracy=accuracy,
        layer_paths=resolved,
        arch_label=arch_label,
        u_source=u_source,
        u_path=u_path,
    )


def pearson(xs, ys) -> float:
    """Pearson correlation of two equal-length sequences (length >= 3).

    Raises DegenerateInput when either side is constant.
    """
    xs = np.asarray(list(xs), dtype=np.float64)
    ys = np.asarray(list(ys), dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ShapeMismatch("pearson needs 1-D sequences")
    if xs.shape[0] != ys.shape[0]:
        raise LengthMismatch(f"lengths differ: {xs.shape[0]} vs {ys.shape[0]}")
    if xs.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 pairs, got {xs.shape[0]}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InvalidParameter("sequences must be finite")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("constant sequence has no correlation")
    r = float(dx @ dy) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class CorrelationReport:
    """Per-metric correlation between log final-layer metrics and accuracy.

    ``correlations[metric]`` is None when that metric was undefined or
    degenerate across the runs; ``failures[metric]`` then explains why.
    ``transform`` records the shift/clamp/log recipe applied to raw values.
    """

    correlations: dict
    failures: dict
    accuracy_ratio: float
    run_count: int
    transform: dict


def _direction(source: str, g: Graph) -> np.ndarray:
    """Unit reference direction: 'gcn', 'const', or a vector file path."""
    if source == "gcn":
        return gcn_dominant_eigenvector(g)
    if source == "const":
        return constant_unit_vector(g.n)
    u = load_vector(source)
    # Divide by an exact power of two first, as the metric core does, so the
    # squared norm neither overflows nor underflows at any magnitude.
    u = u / pow2_scale(u)
    norm = math.sqrt(float(u @ u))
    if norm == 0.0:
        raise InvalidParameter(f"direction file {source} holds a zero vector")
    return u / norm


def correlate(manifests, g: Graph) -> CorrelationReport:
    """Correlate log final-layer metric values with run accuracies.

    Needs at least three manifests with pairwise distinct depths. Rank
    metrics are shifted by -1 first; all values are clamped to
    ``CLAMP_FLOOR`` before the natural log. A metric that is undefined on
    some run, or constant after the transform, gets a None entry and an
    explanation instead of poisoning the rest.
    """
    manifests = list(manifests)
    if len(manifests) < 3:
        raise InsufficientRuns(f"need at least 3 runs, got {len(manifests)}")
    depths = [m.depth for m in manifests]
    if len(set(depths)) != len(depths):
        raise InsufficientRuns(f"run depths must be pairwise distinct, got {depths}")
    reports: list[MetricReport] = []
    # Each source is resolved on first use, so the first error is the same
    # as if every run resolved its own.
    directions: dict[str, np.ndarray] = {}
    for manifest in manifests:
        x = load_matrix(manifest.layer_paths[-1])
        if x.shape[0] != g.n:
            raise ShapeMismatch(
                f"{manifest.layer_paths[-1]}: {x.shape[0]} rows for a graph with {g.n} vertices"
            )
        source = manifest.u_path if manifest.u_source == "file" else manifest.u_source
        if source not in directions:
            directions[source] = _direction(source, g)
        reports.append(metric_suite(x, g, directions[source]))
    accuracies = [m.accuracy for m in manifests]
    correlations: dict = {}
    failures: dict = {}
    for metric in CANONICAL_METRICS:
        logs = []
        for manifest, value in zip(manifests, metric_series(reports, metric)):
            if math.isnan(value):
                failures[metric] = f"undefined at depth {manifest.depth}"
                correlations[metric] = None
                break
            logs.append(math.log(max(value, CLAMP_FLOOR)))
        else:
            try:
                correlations[metric] = pearson(logs, accuracies)
            except DegenerateInput as exc:
                correlations[metric] = None
                failures[metric] = str(exc)
    deep = max(range(len(manifests)), key=lambda i: depths[i])
    shallow = min(range(len(manifests)), key=lambda i: depths[i])
    if accuracies[shallow] == 0.0:
        raise DegenerateInput("shallowest run has zero accuracy; ratio undefined")
    return CorrelationReport(
        correlations=correlations,
        failures=failures,
        accuracy_ratio=accuracies[deep] / accuracies[shallow],
        run_count=len(manifests),
        transform={
            "shifted_metrics": _RANK_METRICS,
            "clamp_floor": CLAMP_FLOOR,
            "log": "natural",
        },
    )


def _report_cell(value) -> str:
    """One CSV cell: 'nan' for an undefined value, counts as integers."""
    if value is None:
        return "nan"
    if isinstance(value, int):
        return str(value)
    return format_float(value)


def _write_table(out_dir, name: str, header, rows) -> str:
    """Write one CSV table (header, then rows of cells) under ``out_dir``.

    ``rows`` may be a generator, so each row's cells are freed once joined.
    """
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    write_lines(path, itertools.chain([",".join(header)], (",".join(cells) for cells in rows)))
    return path


def write_report(out_dir, correlation=None, grid=None, traces=None) -> list[str]:
    """Emit CSV artifacts into ``out_dir``; returns the paths written.

    ``correlation`` -> correlations.csv (one row per metric);
    ``grid`` -> table3_grid.csv (row, metric, yes/no verdict);
    ``traces`` (mapping ``(label, seed) -> reports``) -> one
    trace_<label>_<seed>.csv per rollout with the canonical trace columns.
    Identical inputs produce byte-identical files.
    """
    written = []
    if correlation is not None:
        rows = [(m, _report_cell(correlation.correlations[m])) for m in CANONICAL_METRICS]
        written.append(_write_table(out_dir, "correlations.csv", ("metric", "r"), rows))
    if grid is not None:
        rows = [
            (name, metric, "yes" if grid.verdicts[(name, metric)] else "no")
            for name in grid.config.rows
            for metric in CANONICAL_METRICS
        ]
        written.append(_write_table(out_dir, "table3_grid.csv", ("row", "metric", "verdict"), rows))
    if traces is not None:
        for (label, seed) in sorted(traces):
            rows = (
                [str(layer)] + [_report_cell(getattr(rep, c)) for c in TRACE_COLUMNS[1:]]
                for layer, rep in enumerate(traces[(label, seed)])
            )
            written.append(_write_table(out_dir, f"trace_{label}_{seed}.csv", TRACE_COLUMNS, rows))
    return written
