"""decompress as one ragged product expansion: a differential check against a
literal product loop, and the size guard that refuses oversized expansions."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dagzip import (
    DagCompression,
    Graph,
    RookSpec,
    clusters,
    decompress,
    rook_canonical_compression,
    rook_mst_compression,
    write_compression,
    write_graph,
)
from dagzip import compression
from dagzip.cli import main
from dagzip.graphs import canonical_edge


def _reachable_sinks(d, v):
    """C(v) by a depth-first walk over the arcs, independent of the library's clusters."""
    children = {}
    for a, b in d.arcs:
        children.setdefault(a, []).append(b)
    seen, stack = set(), [v]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(children.get(x, ()))
    return {x for x in seen if x <= d.n_sinks}


def _literal_decompress(d):
    """Every product pair in turn, keeping the minimum weight per edge."""
    edges, weights = set(), {}
    ws = d.cedge_w.tolist() if d.weighted else [None] * len(d.cedge_u)
    for u, v, w in zip(d.cedge_u.tolist(), d.cedge_v.tolist(), ws):
        for x in _reachable_sinks(d, u):
            for y in _reachable_sinks(d, v):
                e = canonical_edge(d.directed, x, y)
                edges.add(e)
                if w is not None and (e not in weights or w < weights[e]):
                    weights[e] = w
    return Graph(directed=d.directed, n=d.n_sinks, edges=frozenset(edges),
                 weights=weights if d.weighted else None)


@st.composite
def compressions(draw):
    """Valid compressions: each cluster vertex has children among lower ids,
    compression edges include loops, and weighted ones draw repeated weights."""
    directed = draw(st.booleans())
    weighted = not directed and draw(st.booleans())
    n_sinks, n_clusters = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    top = n_sinks + n_clusters
    arcs = [(v, c) for v in range(n_sinks + 1, top + 1)
            for c in draw(st.sets(st.integers(1, v - 1), min_size=1, max_size=4))]
    ids = st.integers(1, top)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=8))
    pairs += [(v, v) for v in draw(st.sets(ids, max_size=3))]
    cedges = {canonical_edge(directed, u, v) for u, v in pairs}
    weights = {e: draw(st.integers(0, 4)) for e in sorted(cedges)} if weighted else None
    return DagCompression(directed=directed, n_sinks=n_sinks, n_clusters=n_clusters,
                          arcs=arcs, cedges=pairs, weights=weights)


# Two overlapping products on {1, 2} x {1, 2} with a loop: the cheaper one must win.
_OVERLAP = DagCompression(directed=False, n_sinks=3, n_clusters=2,
                          arcs=[(4, 1), (4, 2), (5, 4), (5, 3)], cedges=[(4, 4), (5, 5), (1, 2)],
                          weights={(4, 4): 2, (5, 5): 7, (1, 2): 1})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(compressions())
@example(_OVERLAP)
def test_expansion_matches_literal_product_loop(d):
    got, want = decompress(d), _literal_decompress(d)
    assert got == want
    assert got.edges == want.edges
    if d.weighted:
        assert dict(got.weights) == dict(want.weights)
    assert write_graph(got) == write_graph(want)


def test_overlapping_products_keep_the_minimum_weight():
    g = decompress(_OVERLAP)
    assert dict(g.weights) == {(1, 1): 2, (1, 2): 1, (2, 2): 2, (1, 3): 7, (2, 3): 7, (3, 3): 7}


def test_expansion_guard_is_exact(monkeypatch):
    d = rook_mst_compression(4, max_weight=3, seed=1)  # 8 loop cedges on 4-sink lines: 128 pairs
    monkeypatch.setattr(compression, "MAX_EXPANDED_PAIRS", 127)
    with pytest.raises(ValueError, match="expands 128 vertex pairs, above the limit of 127"):
        decompress(d)
    monkeypatch.setattr(compression, "MAX_EXPANDED_PAIRS", 128)
    assert decompress(d).m == 8 * 10 - 16  # 10 pairs per line, each loop on two lines


def test_expansion_guard_on_the_command_line(monkeypatch, capsys, tmp_path):
    path = tmp_path / "rook.dagc"
    path.write_text(write_compression(rook_mst_compression(4, max_weight=3, seed=1)))
    monkeypatch.setattr(compression, "MAX_EXPANDED_PAIRS", 127)
    out = ["-o", str(tmp_path / "out")]
    for argv in (["decompress", str(path)], ["mst", "--baseline", str(path)],
                 ["mst", "--baseline", "--check", str(path)]):
        assert main(argv + out) == 2, argv
        err = capsys.readouterr().err
        assert err == "error: decompressing expands 128 vertex pairs, above the limit of 127\n"
    for argv in (["mst", str(path)], ["mst", "--check", str(path)]):
        assert main(argv + out) == 0, argv  # compressed Kruskal and its certificate never expand


def test_edge_keys_must_fit_in_int64(monkeypatch):
    # x * (n + 1) + y keys each edge; a smaller bound stands in for int64 here.
    d = DagCompression(directed=True, n_sinks=9, n_clusters=0, arcs=[], cedges=[(1, 2)])
    monkeypatch.setattr(compression, "INT64_MAX", 99)
    with pytest.raises(ValueError, match="got 9 sinks"):
        decompress(d)


def test_cluster_table_guard_is_exact(monkeypatch):
    d = rook_mst_compression(4, max_weight=3, seed=1)  # 8 cluster sets of 4 sinks: 32 members
    monkeypatch.setattr(compression, "MAX_CLUSTER_MEMBERS", 31)
    for build in (decompress, clusters):
        with pytest.raises(ValueError, match="^the cluster sets exceed the limit of 31 members in all$"):
            build(d)
    monkeypatch.setattr(compression, "MAX_CLUSTER_MEMBERS", 32)
    assert decompress(d).m == 8 * 10 - 16
    assert sum(map(len, clusters(d).cluster.values())) == 32 + 16


def _chain(n):
    """Cluster n + i -> sink i and cluster n + i - 1, so C(n + i) = {1..i}, with one
    compression edge, a loop on the one-sink cluster n + 1."""
    arcs = [(n + i, i) for i in range(1, n + 1)] + [(n + i, n + i - 1) for i in range(2, n + 1)]
    return DagCompression(directed=True, n_sinks=n, n_clusters=n, arcs=arcs, cedges=[(n + 1, n + 1)])


def test_decompress_folds_only_the_sets_below_compression_edges(monkeypatch):
    # 2000 clusters hold 2,001,000 members, but the one product needs only C(2001) = {1}.
    d = _chain(2000)
    monkeypatch.setattr(compression, "MAX_CLUSTER_MEMBERS", 1)
    assert decompress(d) == Graph(True, 2000, [(1, 1)])
    with pytest.raises(ValueError, match="^the cluster sets exceed the limit of 1 members in all$"):
        clusters(d)  # which folds every vertex


def test_cluster_table_size_guard_is_exact(monkeypatch):
    d = rook_mst_compression(4, max_weight=3, seed=1)  # 24 vertices; 48 members, the sinks' own included
    need = 100 * 48 + 400 * 24
    monkeypatch.setattr(compression, "MAX_CLUSTER_TABLE_BYTES", need - 1)
    with pytest.raises(ValueError, match=f"^the cluster table needs about {need} bytes, above the limit of {need - 1}$"):
        clusters(d)
    assert decompress(d).m == 8 * 10 - 16  # the CSR alone is not limited by the table's size
    monkeypatch.setattr(compression, "MAX_CLUSTER_TABLE_BYTES", need)
    assert sum(map(len, clusters(d).cluster.values())) == 48


def test_cluster_table_guard_on_the_command_line(monkeypatch, capsys, tmp_path):
    weighted, plain = tmp_path / "rook.dagc", tmp_path / "plain.dagc"
    weighted.write_text(write_compression(rook_mst_compression(4, max_weight=3, seed=1)))
    plain.write_text(write_compression(rook_canonical_compression(RookSpec(g=2))))  # 4 sets of 2
    shores = tmp_path / "plain.shores"
    shores.write_text("shore1 2 1 2\nshore2 2 3 4\n")
    monkeypatch.setattr(compression, "MAX_CLUSTER_MEMBERS", 7)
    out = ["-o", str(tmp_path / "out")]
    for argv in (["decompress", str(weighted)], ["mst", "--baseline", str(weighted)],
                 ["mst", "--baseline", "--check", str(weighted)], ["decompress", str(plain)],
                 ["normalize", "--pass", "twins", "--shores", str(shores), str(plain)],
                 ["normalize", "--pass", "single-edge", "--shores", str(shores), str(plain)]):
        assert main(argv + out) == 2, argv
        assert capsys.readouterr().err == "error: the cluster sets exceed the limit of 7 members in all\n"
    assert not (tmp_path / "out").exists()
    for argv in (["mst", str(weighted)], ["mst", "--check", str(weighted)]):
        assert main(argv + out) == 0, argv  # compressed Kruskal and its certificate build no cluster sets


def test_mst_check_neither_expands_nor_builds_cluster_sets(monkeypatch, capsys, tmp_path):
    path = tmp_path / "rook.dagc"
    path.write_text(write_compression(rook_mst_compression(6, max_weight=5, seed=2)))
    monkeypatch.setattr(compression, "MAX_EXPANDED_PAIRS", 1)
    monkeypatch.setattr(compression, "MAX_CLUSTER_MEMBERS", 1)
    assert main(["mst", "--check", str(path)]) == 0
    assert capsys.readouterr().out.startswith("mst 36 35 ")
