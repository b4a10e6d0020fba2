"""Graph construction, generation, normalized operators, and .grf parsing."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth import graph as graph_module
from oversmooth.errors import (
    DisconnectedGraph,
    InvalidParameter,
    IoError,
    ParseError,
    ShapeMismatch,
)
from oversmooth.graph import (
    CsrOperator,
    Graph,
    barabasi_albert,
    constant_unit_vector,
    gcn_dominant_eigenvector,
    is_connected,
    read_grf,
    row_stochastic_adjacency,
    sym_norm_adjacency,
    write_grf,
)
from oversmooth.rng import Xoshiro256pp



def path3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def neighbor_lists(g: Graph) -> list[list[int]]:
    """Reference: each vertex's sorted neighbours, from a loop over the edges."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return [sorted(v) for v in nbrs]


def test_from_edges_canonicalizes_and_sorts():
    g = Graph.from_edges(4, [(3, 1), (2, 0)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.num_edges == 2


def test_from_edges_rejects_bad_input():
    with pytest.raises(InvalidParameter):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InvalidParameter):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidParameter):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidParameter):
        Graph.from_edges(0, [])
    with pytest.raises(InvalidParameter):
        Graph.from_edges(2.5, [])
    for edges in ([(0, 1.7)], [(0, 1, 2)], [("0", "2")], [(0,)], [(0, 1), (1,)], [(0, 2**63)]):
        with pytest.raises(InvalidParameter):
            Graph.from_edges(3, edges)


def test_edge_arrays_are_sorted_read_only_intp():
    for g in (Graph.from_edges(4, [(3, 1), (2, 0), (np.int64(1), np.int64(0))]),
              Graph.from_edges(2, []), barabasi_albert(50, 3, seed=2)):
        heads, tails = g.edge_arrays
        for arr in (heads, tails):
            assert arr.dtype == np.intp and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0
        assert np.all(heads < tails)
        assert list(zip(heads.tolist(), tails.tolist())) == sorted(g.edges)


def test_degree_and_neighbor_views():
    g = path3()
    assert np.array_equal(g.degrees, [1, 2, 1])
    assert neighbor_lists(g) == [[1], [0, 2], [1]]
    ei, ej = g.edge_arrays
    assert np.array_equal(ei, [0, 1])
    assert np.array_equal(ej, [1, 2])


def test_is_connected():
    assert is_connected(path3())
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph.from_edges(1, []))


def test_preferential_attachment_edge_count():
    # Complete core on m+1 vertices plus m edges per arrival: the count is
    # seed-independent.
    g = barabasi_albert(10, 2, seed=7)
    assert g.n == 10
    assert g.num_edges == 17


def test_preferential_attachment_smallest_case_is_complete():
    g = barabasi_albert(3, 2)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_preferential_attachment_deterministic_and_seed_sensitive():
    a = barabasi_albert(30, 2, seed=5)
    b = barabasi_albert(30, 2, seed=5)
    c = barabasi_albert(30, 2, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_preferential_attachment_always_connected():
    for seed in range(10):
        assert is_connected(barabasi_albert(25, 2, seed=seed))


# sha256 of the heads bytes then the tails bytes of barabasi_albert(n, m,
# seed=0), recorded with the O(n^2) cumulative-sum sampler that the Fenwick
# descent replaced: the same draws must pick the same targets.
BA_EDGE_SHA256 = {
    (2000, 1): "b05c105cd850fd65c85e85ff2618084813ed146d8ef52e08cd3a8fed34c0e881",
    (2000, 2): "92166991ebc27f7eaf01c140e81c6e38a3b387af735fd2960809c45d3871ee3b",
    (2000, 5): "0070569fe460fe5a24130aa7485290c719474ea85f4377926bff72a4ba01537f",
    (8000, 1): "1a9070dffd20171c568f2d57c6f0e4df7caf605ab2f6a65a10d27fd1d545a38f",
    (8000, 2): "0bf309298301e9460d95355453f7f5a165e389d60e9e86906d656b429df63953",
    (8000, 5): "3f44483287bdca7b56bc9838b534f3c1980ac69255621f5c185af4eab1fd3f13",
}


@pytest.mark.parametrize("n,m", sorted(BA_EDGE_SHA256))
def test_preferential_attachment_edges_are_pinned(n, m):
    g = barabasi_albert(n, m, seed=0)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in g.edge_arrays)).hexdigest()
    assert digest == BA_EDGE_SHA256[(n, m)]
    assert g.num_edges == m * (m + 1) // 2 + m * (n - m - 1)


@pytest.mark.needs_cc
@pytest.mark.parametrize("m", [1, 2, 5])
def test_c_attachment_equals_python_loop(m, fresh_kernels):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        attach = graph_module._attach_loop()
    assert attach is not graph_module._attach_python
    for n in sorted({2, m + 1, 50, 2000, 10**4} - set(range(m + 1))):
        for seed in (0, 42, (1 << 64) - 1):
            want_rng, got_rng = Xoshiro256pp(seed), Xoshiro256pp(seed)
            want = graph_module._attach_python(want_rng, n, m)
            got = attach(got_rng, n, m)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (n, m, seed)
            assert got_rng._s == want_rng._s


@pytest.mark.needs_cc
def test_unusable_attachment_kernel_falls_back_with_one_warning(unusable_kernel):
    cause = unusable_kernel("attach")
    with pytest.warns(RuntimeWarning) as record:
        graphs = [barabasi_albert(n, m, seed=0) for n, m in ((2000, 2), (2000, 5))]
    assert len(record) == 1
    assert cause in str(record[0].message)
    assert record[0].filename == __file__
    assert graph_module._attach_loop() is graph_module._attach_python
    for g, key in zip(graphs, ((2000, 2), (2000, 5))):
        digest = hashlib.sha256(b"".join(a.tobytes() for a in g.edge_arrays)).hexdigest()
        assert digest == BA_EDGE_SHA256[key]


def test_preferential_attachment_validation():
    with pytest.raises(InvalidParameter):
        barabasi_albert(1, 1)
    with pytest.raises(InvalidParameter):
        barabasi_albert(5, 0)
    with pytest.raises(InvalidParameter):
        barabasi_albert(5, 5)
    for seed in (1.5, "0", None, True):
        with pytest.raises(InvalidParameter, match="seed"):
            barabasi_albert(6, 2, seed)


def test_sym_norm_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    assert_allclose(sym_norm_adjacency(g), [[0.5, 0.5], [0.5, 0.5]], rtol=1e-15)


def test_sym_norm_triangle_is_uniform_third():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert_allclose(sym_norm_adjacency(g), np.full((3, 3), 1.0 / 3.0), rtol=1e-15)


def test_sym_norm_is_symmetric_with_unit_spectral_radius():
    g = barabasi_albert(12, 2, seed=3)
    a = sym_norm_adjacency(g)
    dense = np.asarray(a)
    assert np.array_equal(dense, dense.T)
    # The degree vector certifies eigenvalue 1.
    u = np.sqrt(1.0 + g.degrees)
    assert_allclose(a @ u, u, rtol=1e-12)


def dense_sym_norm(g: Graph) -> np.ndarray:
    """Reference: the dense builder sym_norm_adjacency replaced."""
    scale = 1.0 / np.sqrt(1.0 + g.degrees.astype(np.float64))
    a = np.zeros((g.n, g.n))
    ei, ej = g.edge_arrays
    vals = scale[ei] * scale[ej]
    a[ei, ej] = vals
    a[ej, ei] = vals
    np.fill_diagonal(a, scale * scale)
    return a


def dense_row_stochastic(g: Graph) -> np.ndarray:
    """Reference: the dense builder row_stochastic_adjacency replaced."""
    inv = 1.0 / (1.0 + g.degrees.astype(np.float64))
    a = np.zeros((g.n, g.n))
    ei, ej = g.edge_arrays
    a[ei, ej] = inv[ei]
    a[ej, ei] = inv[ej]
    np.fill_diagonal(a, inv)
    return a


OPERATOR_GRAPHS = {
    "ba2000": lambda: barabasi_albert(2000, 2, seed=1),
    "ba12": lambda: barabasi_albert(12, 2, seed=3),
    "isolated vertex": lambda: Graph.from_edges(4, [(0, 1)]),
    "edgeless n=1": lambda: Graph.from_edges(1, []),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_GRAPHS))
def test_closed_csr_rows_are_sorted_closed_neighborhoods(name):
    g = OPERATOR_GRAPHS[name]()
    rows, indptr, cols = g.closed_csr
    nbrs = neighbor_lists(g)
    assert np.array_equal(np.diff(indptr), 1 + g.degrees)
    assert np.array_equal(rows, np.repeat(np.arange(g.n), np.diff(indptr)))
    for i in range(min(g.n, 50)):
        want = sorted(nbrs[i] + [i])
        assert cols[indptr[i]:indptr[i + 1]].tolist() == want
    assert not any(arr.flags.writeable for arr in (rows, indptr, cols))


def test_degrees_count_edge_endpoints():
    g = barabasi_albert(300, 3, seed=4)
    want = np.zeros(g.n, dtype=np.int64)
    for i, j in g.edges:
        want[i] += 1
        want[j] += 1
    assert g.degrees.dtype == np.int64
    assert np.array_equal(g.degrees, want)
    assert np.array_equal(Graph.from_edges(3, []).degrees, [0, 0, 0])


@pytest.mark.parametrize("name", sorted(OPERATOR_GRAPHS))
def test_sym_norm_operator_matches_dense_reference(name):
    g = OPERATOR_GRAPHS[name]()
    a = sym_norm_adjacency(g)
    ref = dense_sym_norm(g)
    assert isinstance(a, CsrOperator) and a.shape == (g.n, g.n)
    assert np.array_equal(np.asarray(a), ref)
    rng = np.random.default_rng(7)
    for operand in (rng.standard_normal((g.n, 32)), rng.standard_normal(g.n)):
        got, want = a @ operand, ref @ operand
        assert got.shape == want.shape
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_sym_norm_operator_rejects_mismatched_operands():
    a = sym_norm_adjacency(path3())
    for bad in (np.ones(2), np.ones((4, 2)), np.ones((3, 2, 2)), 1.0):
        with pytest.raises(ShapeMismatch):
            a @ bad


def row_major_product(op: CsrOperator, x) -> np.ndarray:
    """Reference: the row-major product ``CsrOperator.@`` replaced, summing
    the weighted rows ``x[indices]`` of each segment with ``axis=0``."""
    x = np.asarray(x)
    weights = op.data if x.ndim == 1 else op.data[:, None]
    return np.add.reduceat(weights * x[op.indices], op.indptr[:-1], axis=0)


def segment_classes() -> Graph:
    """Closed neighbourhoods of 1 vertex (isolated), 2 to 8, 9 to 128 and
    over 128 (a hub with 300 leaves)."""
    edges = [(0, j) for j in range(1, 301)]
    edges += [(301, j) for j in range(302, 362)]
    edges += [(362 + i, 362 + j) for i in range(7) for j in range(i + 1, 7)]
    return Graph.from_edges(370, edges)


PRODUCT_OPERANDS = {
    "2-D": lambda rng, n: rng.standard_normal((n, 32)),
    "1-D": lambda rng, n: rng.standard_normal(n),
    "Fortran": lambda rng, n: np.asfortranarray(rng.standard_normal((n, 5))),
    "strided": lambda rng, n: rng.standard_normal((2 * n, 12))[::2, ::3],
    "width 1": lambda rng, n: rng.standard_normal((n, 1)),
    "negative zero rows": lambda rng, n: np.where(np.arange(n)[:, None] % 3 == 0, -0.0,
                                                  rng.standard_normal((n, 4))),
    "all negative zero": lambda rng, n: np.full((n, 3), -0.0),
    "subnormal": lambda rng, n: rng.standard_normal((n, 6)) * 1e-310,
}


@pytest.mark.parametrize("operand", sorted(PRODUCT_OPERANDS))
@pytest.mark.parametrize("name", ["segment classes", "ba2000"])
def test_csr_product_is_bit_identical_to_row_major_form(name, operand):
    g = segment_classes() if name == "segment classes" else barabasi_albert(2000, 2, seed=1)
    a = sym_norm_adjacency(g)
    lengths = np.diff(a.indptr)
    if name == "segment classes":
        assert {1, 7, 61, 301} <= set(lengths.tolist())
    x = PRODUCT_OPERANDS[operand](np.random.default_rng(21), g.n)
    got, want = a @ x, row_major_product(a, x)
    assert got.shape == want.shape == x.shape
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(OPERATOR_GRAPHS))
def test_row_stochastic_matches_dense_reference(name):
    g = OPERATOR_GRAPHS[name]()
    assert np.array_equal(row_stochastic_adjacency(g), dense_row_stochastic(g))


def test_row_stochastic_path_middle_row():
    a = row_stochastic_adjacency(path3())
    assert_allclose(a[1], [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], rtol=1e-15)
    assert_allclose(a.sum(axis=1), np.ones(3), rtol=1e-15)


def test_row_stochastic_respects_support():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    a = row_stochastic_adjacency(g)
    assert a[0, 2] == 0.0 and a[0, 3] == 0.0 and a[3, 0] == 0.0


def test_dominant_eigenvector_path():
    u = gcn_dominant_eigenvector(path3())
    want = np.array([math.sqrt(2.0), math.sqrt(3.0), math.sqrt(2.0)])
    assert_allclose(u, want / np.linalg.norm(want), rtol=1e-15)


def test_dominant_eigenvector_needs_connectivity():
    with pytest.raises(DisconnectedGraph):
        gcn_dominant_eigenvector(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_constant_unit_vector():
    u = constant_unit_vector(4)
    assert_allclose(u, np.full(4, 0.5), rtol=0, atol=0)
    with pytest.raises(InvalidParameter):
        constant_unit_vector(0)


def test_grf_round_trip(tmp_path):
    g = barabasi_albert(15, 2, seed=9)
    path = tmp_path / "g.grf"
    write_grf(g, path)
    back = read_grf(path)
    assert back.n == g.n and back.edges == g.edges


def test_grf_header_format(tmp_path):
    g = Graph.from_edges(3, [(0, 2)])
    path = tmp_path / "g.grf"
    write_grf(g, path)
    assert path.read_text().splitlines()[0] == "grf 1 3 1"


def test_grf_parse_errors_carry_line_numbers(tmp_path):
    def parse(text: str):
        p = tmp_path / "bad.grf"
        p.write_text(text)
        return read_grf(p)

    cases = [
        ("nope 1 2 1\n0 1\n", 1),
        ("grf 2 2 1\n0 1\n", 1),
        ("grf 1 two 1\n0 1\n", 1),
        ("grf 1 0 0\n", 1),
        ("grf 1 3 1\n0 1 2\n", 2),
        ("grf 1 3 1\n0 x\n", 2),
        ("grf 1 3 1\n1 1\n", 2),
        ("grf 1 3 1\n1 0\n", 2),
        ("grf 1 3 1\n0 3\n", 2),
        ("grf 1 3 2\n0 1\n0 1\n", 3),
        ("grf 1 3 1\n0 1\n1 2\n", 3),
        ("grf 1 3 2\n0 1\n", 2),
    ]
    for text, lineno in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == lineno, text


def test_grf_earliest_faulty_line_is_reported(tmp_path):
    cases = [
        # line 3 is out of range, line 4 repeats line 2
        ("grf 1 3 3\n0 1\n1 3\n0 1\n", 3, "out of range"),
        ("grf 1 3 2\n1 1\n0 x\n", 2, "self-loop"),
        ("grf 1 3 2\n0 x\n1 1\n", 2, "expected integers"),
        ("grf 1 3 1\n2 1\n0 1\n", 2, "i < j"),
    ]
    p = tmp_path / "bad.grf"
    for text, lineno, words in cases:
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            read_grf(p)
        assert err.value.line == lineno and words in str(err.value), text


@pytest.mark.parametrize("edges", [[(1, 1)], [(0, 3)], [(0, 1), (0, 1)]])
def test_grf_and_from_edges_share_edge_rule_messages(tmp_path, edges):
    p = tmp_path / "bad.grf"
    p.write_text(f"grf 1 3 {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    with pytest.raises(ParseError) as parsed:
        read_grf(p)
    with pytest.raises(InvalidParameter) as built:
        Graph.from_edges(3, edges)
    line = len(edges) + 1
    assert parsed.value.line == line
    assert str(parsed.value) == f"line {line}: {built.value}"


def test_grf_blank_lines_are_ignored(tmp_path):
    p = tmp_path / "g.grf"
    p.write_text("grf 1 3 2\n\n0 1\n\n1 2\n\n")
    g = read_grf(p)
    assert g.edges == ((0, 1), (1, 2))


def test_grf_reader_sorts_edge_lines(tmp_path):
    p = tmp_path / "g.grf"
    p.write_text("grf 1 4 3\n2 3\n0 1\n1 3\n")
    g = read_grf(p)
    assert g.edges == ((0, 1), (1, 3), (2, 3))
    assert g.edges == Graph.from_edges(4, [(2, 3), (0, 1), (1, 3)]).edges


def test_grf_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_grf(tmp_path / "absent.grf")
