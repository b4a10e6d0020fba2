"""Span tracing around the program's public functions, for traced runs only.

``Tracer.install`` replaces each traced function, in every ``oversmooth``
module namespace that holds it, by a wrapper that records a span (name,
start, end, parent, operation) and the counters below; ``uninstall`` puts
the originals back. Calls made outside an operation span (warm-up, output
checks) pass straight through, so only timed work is attributed. A span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

import oversmooth  # noqa: F401  (loads every submodule the tracer patches)

# Traced functions as (module, attribute path); the span name is
# "<module>.<last path component>".
TRACED = (
    ("rng", "Xoshiro256pp.fill"),
    ("graph", "barabasi_albert"),
    ("graph", "sym_norm_adjacency"),
    ("graph", "read_grf"),
    ("propagate", "rollout"),
    ("propagate", "gcn_layer"),
    ("propagate", "gat_attention"),
    ("metrics", "metric_suite"),
    ("linalg", "singular_values"),
    ("experiments", "run_grid_cell"),
    ("experiments", "decay_classify"),
    ("pipeline", "read_manifest"),
    ("pipeline", "load_matrix"),
    ("pipeline", "correlate"),
    ("pipeline", "write_report"),
)

OP_SPAN = "bench.op"

# Bytes of float64/bool n x n temporaries gat_attention allocates: scores,
# the leaky-ReLU product and result, the masked scores, the shifted scores,
# their exponentials and the output (7 x 8 bytes), plus the sign mask and
# the support mask (2 x 1 byte).
GAT_TEMP_BYTES_PER_ENTRY = 7 * 8 + 2


def _gcn_layer_bytes(args) -> float:
    # 8 * (n^2 + n*w + w^2): the operator, the features and the weights.
    a, x, w = (np.shape(v) for v in args[:3])
    return 8.0 * (a[0] * a[1] + x[0] * x[1] + w[0] * w[1])


def _file_bytes(path) -> float:
    return float(os.path.getsize(path))


# Counters recorded per call: span name -> (counter, f(args, result)).
COUNTERS = {
    "rng.fill": ("draws", lambda a, r: float(len(r))),
    "propagate.gcn_layer": ("bytes", lambda a, r: _gcn_layer_bytes(a)),
    "propagate.gat_attention": (
        "bytes", lambda a, r: float(GAT_TEMP_BYTES_PER_ENTRY * r.shape[0] * r.shape[1])),
    "pipeline.write_report": ("bytes", lambda a, r: sum(_file_bytes(p) for p in r)),
    "pipeline.load_matrix": ("bytes", lambda a, r: _file_bytes(a[0])),
}


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        # Each span: [name, start, end, parent index, op index, child time].
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, op_index: int) -> None:
        self._op = op_index
        self._open(OP_SPAN)

    def end_op(self) -> None:
        self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, 0.0])

    def _close(self) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0.0) + 1.0
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counts[key] = self.counts.get(key, 0.0) + counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path in TRACED:
            module = sys.modules[f"oversmooth.{module_name}"]
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            if owner_path:
                targets = [owner]
            else:
                targets = [m for k, m in sys.modules.items()
                           if (k == "oversmooth" or k.startswith("oversmooth."))
                           and getattr(m, attr, None) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _parent, _op, child in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def per_op(self, ops: int) -> dict[str, float]:
        """Self time and counters per operation, keyed like the benchmark's
        per-layer metrics (``<module>.<function>.<self_s|calls|...>``)."""
        out = {f"{name}.self_s": v / ops for name, v in self.self_times().items()}
        out.update({k: v / ops for k, v in self.counts.items()})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,op,parent,start_s,end_s,self_s\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, op, child in self.spans:
                fh.write(f"{name},{op},{parent},{start - t0!r},{end - t0!r},"
                         f"{(end - start) - child!r}\n")

