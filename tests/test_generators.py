import pytest

from dagzip import (
    RookSpec,
    decompress,
    random_compression,
    random_graph,
    rook_canonical_compression,
    rook_graph,
    validate,
    write_compression,
)
from dagzip.generators import rook_coords, rook_hyperplanes, rook_index


def test_rook_indexing_row_major():
    spec = RookSpec(g=3, d=2)
    assert rook_index(spec, (1, 1)) == 1
    assert rook_index(spec, (2, 1)) == 2
    assert rook_index(spec, (1, 2)) == 4
    for v in range(1, spec.n + 1):
        assert rook_index(spec, rook_coords(spec, v)) == v


def test_rook_hyperplanes_match_coordinates():
    for g, d in ((1, 2), (2, 2), (3, 2), (5, 2), (2, 3), (4, 3), (3, 4)):
        spec = RookSpec(g=g, d=d)
        want = [[v for v in range(1, spec.n + 1) if rook_coords(spec, v)[k] == val]
                for k in range(d) for val in range(1, g + 1)]
        assert rook_hyperplanes(spec) == want


def test_rook_edge_counts():
    # per vertex: 2g-1 targets including itself
    for g in (1, 2, 3, 4):
        graph = rook_graph(RookSpec(g=g, d=2))
        assert graph.m == g * g * (2 * g - 1)


def test_rook_g1_single_loop():
    graph = rook_graph(RookSpec(g=1, d=2))
    assert graph.n == 1 and graph.edges == frozenset({(1, 1)})


def test_rook_no_loops_flag():
    graph = rook_graph(RookSpec(g=2, d=2, include_loops=False))
    assert all(u != v for u, v in graph.edges)
    assert graph.m == 4 * (2 * 2 - 2)


def test_rook_d3_cross_plane_adjacency():
    spec = RookSpec(g=2, d=3)
    graph = rook_graph(spec)
    u = rook_index(spec, (1, 1, 1))
    v = rook_index(spec, (1, 2, 2))  # agrees in the first coordinate only
    w = rook_index(spec, (2, 2, 2))  # agrees nowhere
    assert graph.has_edge(u, v)
    assert not graph.has_edge(u, w)


def test_canonical_compression_size_formula():
    for g in range(1, 11):
        c = rook_canonical_compression(RookSpec(g=g))
        assert c.size() == 2 * g * g + 2 * g
        assert validate(c) == []


def test_canonical_compression_g1():
    c = rook_canonical_compression(RookSpec(g=1))
    assert c.n_clusters == 2 and len(c.arcs) == 2 and len(c.cedges) == 2
    assert c.size() == 4
    assert decompress(c).edges == frozenset({(1, 1)})


def test_canonical_decompresses_to_rook_2d():
    for g in range(1, 11):
        spec = RookSpec(g=g)
        assert decompress(rook_canonical_compression(spec)) == rook_graph(spec)


def test_canonical_decompresses_to_rook_3d():
    for g in range(1, 5):
        spec = RookSpec(g=g, d=3)
        c = rook_canonical_compression(spec)
        assert c.size() == 3 * g ** 3 + 3 * g
        assert decompress(c) == rook_graph(spec)


def test_random_graph_contract():
    assert random_graph(0, 0.5, seed=1).m == 0
    full = random_graph(4, 1.0, seed=1, directed=True)
    assert full.m == 16
    assert random_graph(7, 0.4, seed=9).edges == random_graph(7, 0.4, seed=9).edges
    with pytest.raises(ValueError):
        random_graph(3, 1.5, seed=0)


def test_random_compression_validates():
    for seed in range(10_000):
        d = random_compression(n_sinks=1 + seed % 12, n_clusters=seed % 9,
                               arc_density=0.3, edge_count=seed % 10,
                               max_weight=5, seed=seed)
        assert validate(d) == []
        if seed % 50 == 0:
            decompress(d)


def test_random_compression_no_clusters():
    d = random_compression(n_sinks=6, n_clusters=0, arc_density=0.5,
                           edge_count=5, max_weight=3, seed=11)
    assert d.n_clusters == 0
    assert all(u <= 6 and v <= 6 for u, v in d.cedges)


def test_random_compression_seed_determinism():
    a = random_compression(8, 4, 0.4, 6, 7, seed=42)
    b = random_compression(8, 4, 0.4, 6, 7, seed=42)
    assert write_compression(a) == write_compression(b)
