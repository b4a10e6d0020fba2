"""Graph construction, generation, normalized operators, and .grf parsing."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth.errors import DisconnectedGraph, InvalidParameter, IoError, ParseError
from oversmooth.graph import (
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


def path3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


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


def test_degree_and_neighbor_views():
    g = path3()
    assert np.array_equal(g.degrees, [1, 2, 1])
    assert g.neighbor_lists == ((1,), (0, 2), (1,))
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


def test_preferential_attachment_validation():
    with pytest.raises(InvalidParameter):
        barabasi_albert(1, 1)
    with pytest.raises(InvalidParameter):
        barabasi_albert(5, 0)
    with pytest.raises(InvalidParameter):
        barabasi_albert(5, 5)


def test_sym_norm_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    assert_allclose(sym_norm_adjacency(g), [[0.5, 0.5], [0.5, 0.5]], rtol=1e-15)


def test_sym_norm_triangle_is_uniform_third():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert_allclose(sym_norm_adjacency(g), np.full((3, 3), 1.0 / 3.0), rtol=1e-15)


def test_sym_norm_is_symmetric_with_unit_spectral_radius():
    g = barabasi_albert(12, 2, seed=3)
    a = sym_norm_adjacency(g)
    assert np.array_equal(a, a.T)
    # The degree vector certifies eigenvalue 1.
    u = np.sqrt(1.0 + g.degrees)
    assert_allclose(a @ u, u, rtol=1e-12)


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
