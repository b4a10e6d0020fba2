"""Undirected graphs, preferential-attachment generation, and the normalized
operators message passing runs on.

A Graph on vertices ``0..n-1`` is its sorted, read-only ``intp`` edge arrays
``(heads, tails)``, each edge once with ``heads[k] < tails[k]``; every other
view derives from them. The `.grf` text format round-trips graphs: a header
``grf 1 <n> <num_edges>``, then one ``i j`` line per edge.

``barabasi_albert`` runs a C copy of its attachment loop ``_attach_python``,
built and chosen by ``_native`` and used only if it draws the same edges on
probe graphs; otherwise the loop runs, after one RuntimeWarning naming the
cause.

Propagation runs on closed neighbourhoods (each vertex plus its neighbours),
stored once per graph in CSR order; ``sym_norm_adjacency`` returns a
``CsrOperator`` over them, whose ``@`` costs O(m) per column and whose dense
copy is ``np.asarray(op)``. Its specification ``_csr_reduceat`` sums with
``np.add.reduceat``; float64 products run a C copy of it that sums in the
same order, used only if it matches bit for bit on probe rows of every
summation class, with the same fallback as the attachment loop.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._native import NoKernel, kernel, load_function
from .errors import DisconnectedGraph, InvalidParameter, ParseError, ShapeMismatch
from .linalg import _unit
from .rng import _C_XOSHIRO, Xoshiro256pp
from .validation import body_tokens, parse_header, read_text, require_positive_int, write_lines


@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    edge_arrays: tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Validated constructor: rejects anything but ``(i, j)`` pairs of
        integers, self-loops, duplicates and bad indices.

        Edge pairs are canonicalized to ``i < j`` and sorted.
        """
        require_positive_int(n, "vertex count")
        try:
            pairs = np.array(list(edges) or np.empty((0, 2), dtype=np.intp))
        except ValueError:  # pairs of unequal length
            pairs = np.empty(0)
        if pairs.dtype.kind not in "iu" or pairs.shape[1:] != (2,):
            raise InvalidParameter("edges must be (i, j) pairs of integers within int64")
        heads, tails = pairs.min(axis=1), pairs.max(axis=1)
        fault = _first_fault(n, heads, tails)
        if fault is not None:
            raise InvalidParameter(fault[1])
        return _sorted_graph(n, heads, tails)

    @property
    def num_edges(self) -> int:
        return self.edge_arrays[0].shape[0]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as a sorted tuple of ``(i, j)`` tuples, ``i < j``."""
        return tuple(zip(*(a.tolist() for a in self.edge_arrays)))

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self.edge_arrays), minlength=self.n)

    @cached_property
    def closed_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed neighbourhoods in CSR order, ``(rows, indptr, indices)``:
        entry ``k`` is ``(rows[k], indices[k])``, row ``i`` spans
        ``indptr[i]:indptr[i + 1]``, is sorted and holds ``i`` itself, so no
        row is empty. The arrays are read-only."""
        heads, tails = self.edge_arrays
        n = self.n
        loops = np.arange(n, dtype=np.intp)
        # The keys row * n + col are unique, so sorting them sorts by (row, col).
        keys = np.concatenate([heads * n + tails, tails * n + heads, loops * (n + 1)])
        rows, cols = np.divmod(np.sort(keys), n)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        for arr in (rows, indptr, cols):
            arr.setflags(write=False)
        return rows, indptr, cols

    @cached_property
    def _connected(self) -> bool:
        """Whether a walk from vertex 0 over the closed neighbourhoods reaches
        every vertex: ``is_connected``, walked once per graph."""
        _, indptr, cols = self.closed_csr
        indptr, cols = indptr.tolist(), cols.tolist()
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for w in cols[indptr[v]:indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)


def _first_fault(n: int, heads: np.ndarray, tails: np.ndarray) -> tuple[int, str] | None:
    """The edge rules, in order: no self-loop, ``heads[k] < tails[k]``, both
    endpoints in ``0..n-1``, no repeat of an earlier edge. Returns the first
    edge ``k`` that breaks one, with the first rule's message, or None."""
    order = np.lexsort((tails, heads))
    repeat = np.zeros(order.shape, dtype=bool)
    repeat[order[1:]] = (np.diff(heads[order]) == 0) & (np.diff(tails[order]) == 0)
    rules = (
        (heads == tails, "self-loop at vertex {i}"),
        (heads > tails, "edge endpoints must satisfy i < j, got {i} {j}"),
        ((heads < 0) | (tails >= n), "edge ({i}, {j}) out of range for n={n}"),
        (repeat, "duplicate edge ({i}, {j})"),
    )
    faults = [(int(np.argmax(bad)), rank) for rank, (bad, _) in enumerate(rules) if bad.any()]
    if not faults:
        return None
    k, rank = min(faults)
    return k, rules[rank][1].format(i=heads[k], j=tails[k], n=n)


def _sorted_graph(n: int, heads, tails) -> Graph:
    """The graph on edges that keep ``_first_fault``'s rules, sorted by key."""
    heads, tails = (np.asarray(a, dtype=np.intp) for a in (heads, tails))
    arrays = np.divmod(np.sort(heads * n + tails), n)
    for arr in arrays:
        arr.setflags(write=False)
    return Graph(int(n), arrays)


def is_connected(g: Graph) -> bool:
    return g._connected


def barabasi_albert(n: int, m: int = 2, seed: int = 0) -> Graph:
    """Preferential-attachment graph: complete seed on ``m + 1`` vertices,
    then each arriving vertex attaches ``m`` edges to distinct existing
    vertices with probability proportional to their degree at arrival time
    (duplicate targets are redrawn). The graph is connected by construction:
    the seed is, and every arriving vertex links to ``m >= 1`` earlier ones.
    """
    n, m = require_positive_int(n, "n", 2), require_positive_int(m, "m")
    if m >= n:
        raise InvalidParameter(f"m must satisfy 1 <= m < n, got m={m}, n={n}")
    seed_heads = [i for i in range(m + 1) for _ in range(i + 1, m + 1)]
    seed_tails = [j for i in range(m + 1) for j in range(i + 1, m + 1)]
    heads, tails = _attach_loop()(Xoshiro256pp(seed), n, m)
    return _sorted_graph(n, np.concatenate([seed_heads, heads]),
                         np.concatenate([seed_tails, tails]))


def _attach_python(rng: Xoshiro256pp, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges ``(heads, tails)`` that vertices ``m + 1 .. n - 1`` attach,
    each arrival's ``m`` in increasing order of target, drawn from ``rng``:
    the attachment kernel's specification."""
    heads: list[int] = []
    tails: list[int] = []
    # Fenwick tree over the integer degrees: tree[k] holds the degree sum of
    # vertices k - (k & -k) .. k - 1, so prefix sums and updates are O(log n).
    tree = [0] * (n + 1)

    def add_degree(v: int, delta: int) -> None:
        k = v + 1
        while k <= n:
            tree[k] += delta
            k += k & -k

    for v in range(m + 1):
        add_degree(v, m)
    top = 1 << (n.bit_length() - 1)
    total = m * (m + 1)
    for t in range(m + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            # Degrees are integers, so the first prefix sum above int(r) is the
            # first above r: the target of searchsorted(cumsum, r, "right").
            slot = int(rng.random() * total)
            target, step = 0, top
            while step:
                if target + step <= n and tree[target + step] <= slot:
                    target += step
                    slot -= tree[target]
                step >>= 1
            chosen.add(min(target, t - 1))
        for j in sorted(chosen):
            heads.append(j)
            tails.append(t)
            add_degree(j, 1)
        add_degree(t, m)
        total += 2 * m
    return np.array(heads, dtype=np.int64), np.array(tails, dtype=np.int64)


# The loop of ``_attach_python`` in C. Each arrival keeps its targets sorted
# in its own slice of ``heads`` (insertion), so a duplicate is found where it
# would be inserted and redrawn. ``tree`` is n + 1 zeros on entry.
_BA_SOURCE = _C_XOSHIRO + r"""
static void add_degree(int64_t *tree, int64_t n, int64_t v, int64_t delta) {
    for (int64_t k = v + 1; k <= n; k += k & -k)
        tree[k] += delta;
}
void ba_attach(uint64_t *state, int64_t n, int64_t m, int64_t *tree, int64_t *heads,
               int64_t *tails) {
    uint64_t s[4] = {state[0], state[1], state[2], state[3]};
    int64_t top = 1, total = m * (m + 1);
    while (top <= n / 2)
        top *= 2;
    for (int64_t v = 0; v <= m; v++)
        add_degree(tree, n, v, m);
    for (int64_t t = m + 1; t < n; t++, heads += m, tails += m, total += 2 * m) {
        int64_t count = 0;
        while (count < m) {
            int64_t slot = (int64_t)(xoshiro_random(s) * (double)total), target = 0;
            for (int64_t step = top; step; step >>= 1) {
                if (target + step <= n && tree[target + step] <= slot) {
                    target += step;
                    slot -= tree[target];
                }
            }
            if (target > t - 1)
                target = t - 1;
            int64_t k = count;
            while (k > 0 && heads[k - 1] > target)
                k--;
            if (k > 0 && heads[k - 1] == target)
                continue;
            for (int64_t i = count; i > k; i--)
                heads[i] = heads[i - 1];
            heads[k] = target;
            count++;
        }
        for (int64_t i = 0; i < m; i++) {
            tails[i] = t;
            add_degree(tree, n, heads[i], 1);
        }
        add_degree(tree, n, t, m);
    }
    for (int k = 0; k < 4; k++)
        state[k] = s[k];
}
"""
# A single arrival, the m = 1 case, and n = 70, m = 4, whose 276 draws
# include 16 duplicate redraws and whose descents start at step 2^6.
_BA_PROBES = ((5, 3, 1), (40, 1, 2), (70, 4, 3))


@kernel("preferential-attachment", _attach_python)
def _attach_loop():
    """The C attachment loop, built and checked against ``_attach_python``."""
    proto = ctypes.CFUNCTYPE(None, ctypes.POINTER(ctypes.c_uint64), ctypes.c_int64,
                             ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    fn = load_function("ba_attach", _BA_SOURCE, proto)

    def attach_c(rng: Xoshiro256pp, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        state = (ctypes.c_uint64 * 4)(*rng._s)
        heads, tails = np.empty((2, (n - m - 1) * m), dtype=np.int64)
        tree = np.zeros(n + 1, dtype=np.int64)
        fn(state, n, m, tree.ctypes.data, heads.ctypes.data, tails.ctypes.data)
        rng._s = state[:]
        return heads, tails

    for n, m, seed in _BA_PROBES:
        want_rng, got_rng = Xoshiro256pp(seed), Xoshiro256pp(seed)
        want, got = _attach_python(want_rng, n, m), attach_c(got_rng, n, m)
        if (want_rng._s != got_rng._s
                or any(w.tobytes() != g.tobytes() for w, g in zip(want, got))):
            raise NoKernel("self-check mismatch: the C attachment differs from the Python loop")
    return attach_c


@dataclass(frozen=True, eq=False)
class CsrOperator:
    """A square sparse matrix in CSR order: entry ``(rows[k], indices[k])``
    is ``data[k]``, and row ``i`` spans ``indptr[i]:indptr[i + 1]``. Every
    row must be nonempty, as closed neighbourhoods are.

    ``op @ x`` sums ``data * x[indices]`` row by row for a 1-D or 2-D ``x``,
    with the bits of ``_csr_reduceat``; ``np.asarray(op)`` is the dense copy.
    """

    rows: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.shape[0] - 1
        return n, n

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ShapeMismatch(f"operator is {self.shape[0]}x{self.shape[1]}, operand has "
                                f"shape {x.shape}")
        # Float64 products on a well-formed operator run in C, when this
        # process has the kernel; the rest run the specification.
        if x.dtype == np.float64 and self._addresses is not None:
            product = _csr_kernel()
            if product is not None:
                return product(self._addresses, np.ascontiguousarray(x))
        return _csr_reduceat(self, x)

    @cached_property
    def _addresses(self) -> tuple[int, int, int, int] | None:
        """``(n, indptr, indices, data)`` as the C product takes them, the
        arrays by address, checked once: None unless ``data`` is float64 and
        the index arrays are read-only ``intp`` forming nonempty rows of
        in-range columns, the only operators the kernel runs on."""
        n = self.shape[0]
        indptr, indices, data = self.indptr, self.indices, self.data
        arrays = (indptr, indices, data)
        if not (indptr.dtype == indices.dtype == np.intp and data.dtype == np.float64
                and not (indptr.flags.writeable or indices.flags.writeable)
                and all(a.ndim == 1 and a.flags.c_contiguous for a in arrays)
                and indptr[0] == 0 and indptr[-1] == indices.shape[0] == data.shape[0]
                and np.all(indptr[1:] > indptr[:-1])
                and (n == 0 or 0 <= indices.min() and indices.max() < n)):
            return None
        return n, *(a.ctypes.data for a in arrays)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a dense view of a CsrOperator is always a copy")
        a = np.zeros(self.shape)
        a[self.rows, self.indices] = self.data
        return a if dtype is None else a.astype(dtype, copy=False)


def _csr_reduceat(op: CsrOperator, x: np.ndarray) -> np.ndarray:
    """``op @ x``, C-ordered: the product's specification, which the C kernel
    matches bit for bit.

    One contiguous row of terms ``x * data`` per column of ``x``, each summed
    segment by segment into a column of the result. reduceat adds every
    segment as ``t0 + pairwise(t1..)`` along whatever stride it has, so the
    bits are those of the row-major ``data[:, None] * x[indices]`` form.
    """
    terms = x.T.take(op.indices, axis=-1)
    if terms.dtype == op.data.dtype:
        terms *= op.data
    else:
        terms = terms * op.data
    out = np.empty(x.shape, terms.dtype)
    np.add.reduceat(terms, op.indptr[:-1], axis=-1, out=out.T)
    return out


# ``_csr_reduceat`` in C, for float64 operands. Row i of the result is
# t0 + pairwise(t1..) over its terms t = x[indices[k]] * data[k], each one
# rounding, where pairwise is numpy's: fewer than 8 terms summed in order
# from -0.0; up to 128 in 8 accumulators, combined as
# ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order; more split at
# n/2 - (n/2 mod 8). Short rows go across all w columns at once, long rows
# column by column. Nothing but ``out`` is written.
_CSR_SOURCE = r"""
#include <stdint.h>
/* numpy's pairwise sum of n >= 8 terms; its halves hold 64 or more. */
static double pairwise(const intptr_t *idx, const double *d, const double *x, int64_t w,
                       int64_t n) {
    if (n <= 128) {
        double r[8];
        int64_t k;
        for (int j = 0; j < 8; j++)
            r[j] = x[idx[j] * w] * d[j];
        for (k = 8; k < n - n % 8; k += 8)
            for (int j = 0; j < 8; j++)
                r[j] += x[idx[k + j] * w] * d[k + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; k < n; k++)
            res += x[idx[k] * w] * d[k];
        return res;
    }
    int64_t half = n / 2 - (n / 2) % 8;
    return pairwise(idx, d, x, w, half) + pairwise(idx + half, d + half, x, w, n - half);
}
void csr_matmul(int64_t n, const intptr_t *indptr, const intptr_t *indices, const double *data,
                int64_t w, const double *x, double *out) {
    for (int64_t i = 0; i < n; i++, out += w) {
        const intptr_t *idx = indices + indptr[i];
        const double *d = data + indptr[i], *x0 = x + idx[0] * w;
        int64_t rest = indptr[i + 1] - indptr[i] - 1;
        if (rest < 8) {
            for (int64_t c = 0; c < w; c++)
                out[c] = -0.0;
            for (int64_t k = 1; k <= rest; k++) {
                const double *xk = x + idx[k] * w;
                for (int64_t c = 0; c < w; c++)
                    out[c] += xk[c] * d[k];
            }
            for (int64_t c = 0; c < w; c++)
                out[c] = x0[c] * d[0] + out[c];
        } else {
            for (int64_t c = 0; c < w; c++)
                out[c] = x0[c] * d[0] + pairwise(idx + 1, d + 1, x + c, w, rest);
        }
    }
}
"""
# Rows of every summation class, 619 terms in all, on a 10-column operator;
# the self-check runs them on widths 1 and 3, one column all -0.0.
_CSR_PROBE_ROWS = (1, 2, 7, 8, 9, 16, 17, 129, 130, 300)


@kernel("CSR product", None)
def _csr_kernel():
    """The C product, built and checked against ``_csr_reduceat``; its
    fallback None leaves every product to ``_csr_reduceat``."""
    proto = ctypes.CFUNCTYPE(None, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                             ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)
    fn = load_function("csr_matmul", _CSR_SOURCE, proto)

    def product_c(addresses: tuple[int, int, int, int], x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape)
        fn(*addresses, 1 if x.ndim == 1 else x.shape[1], x.ctypes.data, out.ctypes.data)
        return out

    n = len(_CSR_PROBE_ROWS)
    indptr = np.concatenate([[0], np.cumsum(_CSR_PROBE_ROWS)]).astype(np.intp)
    terms = np.arange(indptr[-1])
    indices = terms * 7 % n
    for arr in (indptr, indices):
        arr.setflags(write=False)
    op = CsrOperator(np.repeat(np.arange(n), _CSR_PROBE_ROWS), indptr, indices,
                     np.sin(terms * 1.7) * 3.0 ** (terms % 5))
    x = np.cos(np.arange(3 * n) * 0.9).reshape(n, 3)
    x[:, 1] = -0.0
    for operand in (x, x[:, 0]):
        operand = np.ascontiguousarray(operand)
        if product_c(op._addresses, operand).tobytes() != _csr_reduceat(op, operand).tobytes():
            raise NoKernel("self-check mismatch: the C product differs from np.add.reduceat")
    return product_c


def sym_norm_adjacency(g: Graph) -> CsrOperator:
    """Symmetrically normalized adjacency with self-loops:
    entry ``1 / sqrt((1 + d_i)(1 + d_j))`` on the closed neighborhood.
    """
    scale = 1.0 / np.sqrt(1.0 + g.degrees.astype(np.float64))
    rows, indptr, cols = g.closed_csr
    return CsrOperator(rows, indptr, cols, scale[rows] * scale[cols])


def row_stochastic_adjacency(g: Graph) -> CsrOperator:
    """Row-normalized adjacency with self-loops: row ``i`` puts
    ``1/(1+d_i)`` on each closed-neighborhood entry, so rows sum to one.
    """
    inv = 1.0 / (1.0 + g.degrees.astype(np.float64))
    rows, indptr, cols = g.closed_csr
    return CsrOperator(rows, indptr, cols, inv[rows])


def gcn_dominant_eigenvector(g: Graph) -> np.ndarray:
    """Unit positive eigenvector of sym_norm_adjacency for eigenvalue 1:
    entries proportional to ``sqrt(1 + d_i)``. Requires a connected graph
    (otherwise eigenvalue 1 is not simple and the direction is meaningless).
    """
    if not is_connected(g):
        raise DisconnectedGraph("dominant eigenvector needs a connected graph")
    return _unit(np.sqrt(1.0 + g.degrees.astype(np.float64)))


def constant_unit_vector(n: int) -> np.ndarray:
    """Unit vector with equal entries: the dominant direction of any
    row-stochastic propagation operator."""
    n = require_positive_int(n, "n")
    return np.full(n, 1.0 / math.sqrt(n))


def write_grf(g: Graph, path) -> None:
    lines = [f"grf 1 {g.n} {g.num_edges}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    write_lines(path, lines)


def read_grf(path) -> Graph:
    """Parse a `.grf` file; ParseError carries the 1-based offending line,
    the earliest one when several are at fault."""
    lines = read_text(path, "ascii").split("\n")
    n, num_edges = parse_header(lines[0], "grf 1 <n> <num_edges>", (1, 0))
    heads, tails, linenos = [], [], []
    error = None  # raised only if no edge on an earlier line breaks a rule
    for lineno, tokens in body_tokens(lines, 1):
        if len(linenos) == num_edges:
            error = ParseError("more edge lines than the header promised", line=lineno)
            break
        try:
            i, j = map(int, tokens)
        except ValueError:
            error = ParseError(f"expected integers 'i j', got {' '.join(tokens)!r}", line=lineno)
            break
        heads.append(i)
        tails.append(j)
        linenos.append(lineno)
    try:
        pairs = np.array([heads, tails], dtype=np.intp)
    except OverflowError:  # an endpoint beyond intp; object entries keep it exact
        pairs = np.array([heads, tails], dtype=object)
    fault = _first_fault(n, *pairs)
    if fault is not None:
        raise ParseError(fault[1], line=linenos[fault[0]])
    if error is not None:
        raise error
    if len(linenos) < num_edges:
        raise ParseError(f"header promised {num_edges} edges, file has {len(linenos)}",
                         line=linenos[-1] if linenos else 1)
    return _sorted_graph(n, *pairs)
