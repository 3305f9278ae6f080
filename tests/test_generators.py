import re

import pytest

from dagzip import (
    RookSpec,
    decompress,
    random_compression,
    random_graph,
    rook_canonical_compression,
    rook_graph,
    rook_mst_compression,
    validate,
    write_compression,
)
from dagzip import generators, graphs
from dagzip.cli import main
from dagzip.generators import rook_hyperplanes


def rook_index(spec: RookSpec, coords: tuple[int, ...]) -> int:
    """Row-major vertex id: 1 + sum (i_k - 1) * g^(k-1)."""
    idx = 0
    for k, c in enumerate(coords):
        idx += (c - 1) * spec.g ** k
    return idx + 1


def rook_coords(spec: RookSpec, v: int) -> tuple[int, ...]:
    x = v - 1
    out = []
    for _ in range(spec.d):
        out.append(x % spec.g + 1)
        x //= spec.g
    return tuple(out)


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


def test_canonical_compression_refuses_no_loops():
    with pytest.raises(ValueError) as exc:
        rook_canonical_compression(RookSpec(g=3, include_loops=False))
    assert str(exc.value) == "the canonical rook compression exists only with loops on"


def _no_planes(spec):
    raise AssertionError("a refused rook spec built its planes")


def test_rook_builders_refuse_vertices_before_building(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 8)
    monkeypatch.setattr(generators, "rook_hyperplanes", _no_planes)
    message = "rook g=3, d=2 has 3^2 vertices, above the limit of 8"
    for build in (lambda: rook_graph(RookSpec(g=3)), lambda: rook_canonical_compression(RookSpec(g=3)),
                  lambda: rook_mst_compression(3)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    out = tmp_path / "rook.graph"
    assert main(["generate", "rook", "--g", "3", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(graphs, "MAX_VERTICES", 9)
    assert rook_graph(RookSpec(g=3)).n == 9


def test_rook_pair_and_arc_guards_are_exact(monkeypatch, capsys):
    # g=2, d=3: 6 planes of 4 vertices expand 6 * 4^2 = 96 = 3 * 2^5 pairs; the
    # canonical compression has 3 * 2^3 = 24 arcs
    spec = RookSpec(g=2, d=3)
    monkeypatch.setattr(generators, "MAX_ROOK_PAIRS", 95)
    monkeypatch.setattr(generators, "rook_hyperplanes", _no_planes)
    with pytest.raises(ValueError, match="^rook g=2, d=3 needs 96 pairs, above the limit of 95$"):
        rook_graph(spec)
    assert main(["generate", "rook", "--g", "2", "--d", "3"]) == 2
    assert capsys.readouterr().err == "error: rook g=2, d=3 needs 96 pairs, above the limit of 95\n"
    monkeypatch.setattr(generators, "MAX_ROOK_PAIRS", 23)
    with pytest.raises(ValueError, match="^rook g=2, d=3 needs 24 arcs, above the limit of 23$"):
        rook_canonical_compression(spec)
    monkeypatch.undo()
    monkeypatch.setattr(generators, "MAX_ROOK_PAIRS", 96)
    graph = rook_graph(spec)
    assert decompress(rook_canonical_compression(spec)) == graph
    # each ordered pair is expanded once per coordinate it agrees in; 56 of the
    # 64 agree in at least one, all but each point and its antipode
    assert graph.m == 56


def test_rook_hyperplanes_refuse_before_building(monkeypatch):
    # 3^40 vertices: refused by the vertex limit, before numpy sees the size
    with pytest.raises(ValueError, match=r"^rook g=3, d=40 has 3\^40 vertices, above the limit of "):
        rook_hyperplanes(RookSpec(g=3, d=40))
    # g=3, d=3: 9 planes of 9 vertices, 81 entries
    monkeypatch.setattr(generators, "MAX_ROOK_PAIRS", 80)
    monkeypatch.setattr(generators, "np", None)  # any array built would raise AttributeError
    with pytest.raises(ValueError, match="^rook g=3, d=3 needs 81 hyperplane entries, above the limit of 80$"):
        rook_hyperplanes(RookSpec(g=3, d=3))
    monkeypatch.undo()
    monkeypatch.setattr(generators, "MAX_ROOK_PAIRS", 81)
    assert sum(map(len, rook_hyperplanes(RookSpec(g=3, d=3)))) == 81


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


def test_random_compression_rejects_density_outside_unit_interval():
    for density in (0.0, -4.0, 1.0000001, 1.5):
        with pytest.raises(ValueError, match=r"arc density must lie in \(0, 1\]"):
            random_compression(8, 4, density, 6, 7, seed=42)
    # the upper bound itself is valid: every cluster vertex points at every lower vertex
    d = random_compression(5, 3, 1.0, 0, 7, seed=42)
    assert len(d.arc_u) == sum(range(5, 8))


def test_random_compression_arc_guard_is_exact(monkeypatch):
    # 4 clusters over 8 sinks draw over 8 + 9 + 10 + 11 lower vertices: 19 expected arcs
    monkeypatch.setattr(generators, "MAX_RANDOM_ARCS", 18)
    with pytest.raises(ValueError, match="^a random compression of 4 clusters over 8 sinks "
                                         "expects 19 arcs, above the limit of 18$"):
        random_compression(8, 4, 0.5, 6, 7, seed=42)
    monkeypatch.setattr(generators, "MAX_RANDOM_ARCS", 19)
    accepted = write_compression(random_compression(8, 4, 0.5, 6, 7, seed=42))
    monkeypatch.undo()  # the guard leaves the draw alone
    assert accepted == write_compression(random_compression(8, 4, 0.5, 6, 7, seed=42))


def test_random_compression_arc_guard_on_the_command_line(monkeypatch, capsys, tmp_path):
    out = tmp_path / "rc.dagc"
    monkeypatch.setattr(generators, "MAX_RANDOM_ARCS", 18)
    argv = ["generate", "random-compression", "--sinks", "8", "--clusters", "4",
            "--arc-density", "0.5", "--edges", "6", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: a random compression of 4 clusters over 8 sinks "
                                       "expects 19 arcs, above the limit of 18\n")
    assert not out.exists()


def test_random_compression_seed_determinism():
    a = random_compression(8, 4, 0.4, 6, 7, seed=42)
    b = random_compression(8, 4, 0.4, 6, 7, seed=42)
    assert write_compression(a) == write_compression(b)


def test_random_graph_draw_guard_is_exact(monkeypatch, capsys, tmp_path):
    # 5 vertices draw 25 candidate pairs when directed, 10 when undirected
    for directed, draws in ((True, 25), (False, 10)):
        monkeypatch.setattr(generators, "MAX_RANDOM_PAIRS", draws - 1)
        with pytest.raises(ValueError, match=f"^a random graph on 5 vertices draws {draws} "
                                             f"candidate pairs, above the limit of {draws - 1}$"):
            random_graph(5, 0.5, seed=3, directed=directed)
        monkeypatch.setattr(generators, "MAX_RANDOM_PAIRS", draws)
        accepted = random_graph(5, 0.5, seed=3, directed=directed)
        monkeypatch.undo()  # the guard leaves the draw alone
        assert accepted == random_graph(5, 0.5, seed=3, directed=directed)
    monkeypatch.setattr(generators, "MAX_RANDOM_PAIRS", 24)
    out = tmp_path / "g.graph"
    assert main(["generate", "random", "--n", "5", "--p", "0.5", "--directed", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: a random graph on 5 vertices draws 25 candidate pairs, above the limit of 24\n")
    assert not out.exists()
