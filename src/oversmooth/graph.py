"""Undirected graphs, preferential-attachment generation, and the normalized
operators message passing runs on.

A Graph is an immutable edge list over vertices ``0..n-1``; every edge is
stored exactly once as ``(i, j)`` with ``i < j``. The `.grf` text format
round-trips graphs: a header line ``grf 1 <n> <num_edges>`` followed by one
``i j`` line per edge.

Propagation runs on closed neighbourhoods (each vertex plus its neighbours),
stored once per graph in CSR order; ``sym_norm_adjacency`` returns a
``CsrOperator`` over them, whose ``@`` costs O(m) per column and whose dense
copy is ``np.asarray(op)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraph, InvalidParameter, ParseError, ShapeMismatch
from .rng import Xoshiro256pp
from .validation import body_tokens, parse_header, read_text, write_lines


@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Validated constructor: rejects self-loops, duplicates, bad indices.

        Edge pairs are canonicalized to ``i < j`` and sorted.
        """
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise InvalidParameter(f"vertex count must be an integer >= 1, got {n!r}")
        canon = []
        seen = set()
        for pair in edges:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise InvalidParameter(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParameter(f"edge ({i}, {j}) out of range for n={n}")
            e = (i, j) if i < j else (j, i)
            if e in seen:
                raise InvalidParameter(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        return cls(int(n), tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self.edge_arrays), minlength=self.n)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint index arrays (heads, tails) for vectorized edge sums."""
        if not self.edges:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty.copy()
        arr = np.asarray(self.edges, dtype=np.intp)
        return arr[:, 0].copy(), arr[:, 1].copy()

    @cached_property
    def closed_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed neighbourhoods in CSR order, ``(rows, indptr, indices)``:
        entry ``k`` is ``(rows[k], indices[k])``, row ``i`` spans
        ``indptr[i]:indptr[i + 1]``, is sorted and holds ``i`` itself, so no
        row is empty. The arrays are read-only."""
        heads, tails = self.edge_arrays
        loops = np.arange(self.n, dtype=np.intp)
        rows = np.concatenate([heads, tails, loops])
        cols = np.concatenate([tails, heads, loops])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        for arr in (rows, indptr, cols):
            arr.setflags(write=False)
        return rows, indptr, cols

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(v)) for v in nbrs)


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    nbrs = g.neighbor_lists
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


def barabasi_albert(n: int, m: int = 2, seed: int = 0) -> Graph:
    """Preferential-attachment graph: complete seed on ``m + 1`` vertices,
    then each arriving vertex attaches ``m`` edges to distinct existing
    vertices with probability proportional to their degree at arrival time
    (duplicate targets are redrawn).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise InvalidParameter(f"n must be an integer >= 2, got {n!r}")
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise InvalidParameter(f"m must be an integer, got {m!r}")
    if not 1 <= m < n:
        raise InvalidParameter(f"m must satisfy 1 <= m < n, got m={m}, n={n}")
    rng = Xoshiro256pp(seed)
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    deg = np.zeros(n, dtype=np.float64)
    deg[: m + 1] = m
    for t in range(m + 1, n):
        cum = np.cumsum(deg[:t])
        total = float(cum[-1])
        chosen: set[int] = set()
        while len(chosen) < m:
            r = rng.random() * total
            # searchsorted(side='right') maps r in [cum[k-1], cum[k]) to k
            target = int(np.searchsorted(cum, r, side="right"))
            if target >= t:
                target = t - 1
            chosen.add(target)
        for j in sorted(chosen):
            edges.append((j, t))
            deg[j] += 1.0
        deg[t] = float(m)
    g = Graph.from_edges(n, edges)
    if not is_connected(g):
        raise DisconnectedGraph("preferential attachment produced a disconnected graph")
    return g


@dataclass(frozen=True, eq=False)
class CsrOperator:
    """A square sparse matrix in CSR order: entry ``(rows[k], indices[k])``
    is ``data[k]``, and row ``i`` spans ``indptr[i]:indptr[i + 1]``. Every
    row must be nonempty, as closed neighbourhoods are.

    ``op @ x`` sums ``data * x[indices]`` row by row for a 1-D or 2-D ``x``;
    ``np.asarray(op)`` is the dense copy.
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
        gathered = x[self.indices]
        weights = self.data if x.ndim == 1 else self.data[:, None]
        return np.add.reduceat(weights * gathered, self.indptr[:-1], axis=0)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a dense view of a CsrOperator is always a copy")
        a = np.zeros(self.shape)
        a[self.rows, self.indices] = self.data
        return a if dtype is None else a.astype(dtype, copy=False)


def sym_norm_adjacency(g: Graph) -> CsrOperator:
    """Symmetrically normalized adjacency with self-loops:
    entry ``1 / sqrt((1 + d_i)(1 + d_j))`` on the closed neighborhood.
    """
    scale = 1.0 / np.sqrt(1.0 + g.degrees.astype(np.float64))
    rows, indptr, cols = g.closed_csr
    return CsrOperator(rows, indptr, cols, scale[rows] * scale[cols])


def row_stochastic_adjacency(g: Graph) -> np.ndarray:
    """Row-normalized adjacency with self-loops, dense: row ``i`` puts
    ``1/(1+d_i)`` on each closed-neighborhood entry, so rows sum to one.
    """
    inv = 1.0 / (1.0 + g.degrees.astype(np.float64))
    rows, indptr, cols = g.closed_csr
    return np.asarray(CsrOperator(rows, indptr, cols, inv[rows]))


def gcn_dominant_eigenvector(g: Graph) -> np.ndarray:
    """Unit positive eigenvector of sym_norm_adjacency for eigenvalue 1:
    entries proportional to ``sqrt(1 + d_i)``. Requires a connected graph
    (otherwise eigenvalue 1 is not simple and the direction is meaningless).
    """
    if not is_connected(g):
        raise DisconnectedGraph("dominant eigenvector needs a connected graph")
    u = np.sqrt(1.0 + g.degrees.astype(np.float64))
    return u / math.sqrt(float(u @ u))


def constant_unit_vector(n: int) -> np.ndarray:
    """Unit vector with equal entries: the dominant direction of any
    row-stochastic propagation operator."""
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    return np.full(n, 1.0 / math.sqrt(n))


def write_grf(g: Graph, path) -> None:
    lines = [f"grf 1 {g.n} {g.num_edges}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    write_lines(path, lines)


def read_grf(path) -> Graph:
    """Parse a `.grf` file; ParseError carries the 1-based offending line."""
    lines = read_text(path, "ascii").split("\n")
    n, num_edges = parse_header(lines[0], "grf 1 <n> <num_edges>", (1, 0))
    edges = []
    seen = set()
    lineno = 1
    for lineno, tokens in body_tokens(lines, 1):
        if len(edges) == num_edges:
            raise ParseError("more edge lines than the header promised", line=lineno)
        try:
            i, j = map(int, tokens)
        except ValueError:
            got = " ".join(tokens)
            raise ParseError(f"expected integers 'i j', got {got!r}", line=lineno) from None
        if i == j:
            raise ParseError(f"self-loop at vertex {i}", line=lineno)
        if not i < j:
            raise ParseError(f"edge endpoints must satisfy i < j, got {i} {j}", line=lineno)
        if not (0 <= i and j < n):
            raise ParseError(f"edge ({i}, {j}) out of range for n={n}", line=lineno)
        if (i, j) in seen:
            raise ParseError(f"duplicate edge ({i}, {j})", line=lineno)
        seen.add((i, j))
        edges.append((i, j))
    if len(edges) != num_edges:
        raise ParseError(
            f"header promised {num_edges} edges, file has {len(edges)}", line=lineno
        )
    edges.sort()
    return Graph(n, tuple(edges))
