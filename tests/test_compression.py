import random
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from dagzip import (
    CompressionFormatError,
    DagCompression,
    Graph,
    ShorePartition,
    clusters,
    decompress,
    kruskal_compressed,
    random_compression,
    read_compression,
    rook_canonical_compression,
    shore_normalize,
    twin_normalize,
    twin_single_edge,
    validate,
    write_compression,
)
from dagzip.generators import RookSpec


def reachable_sinks(d, start):
    # independent DFS oracle for cluster sets
    children = {}
    for u, v in d.arcs:
        children.setdefault(u, []).append(v)
    seen = set()
    stack = [start]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(children.get(x, []))
    return frozenset(v for v in seen if v <= d.n_sinks)


def test_validate_ok(fig_compression):
    assert validate(fig_compression) == []


def test_validate_sink_with_out_arc():
    d = DagCompression(directed=True, n_sinks=2, n_clusters=1,
                       arcs=frozenset({(1, 3), (3, 2)}), cedges=frozenset())
    assert any("outgoing arc" in v for v in validate(d))


def test_validate_cycle():
    d = DagCompression(directed=True, n_sinks=1, n_clusters=2,
                       arcs=frozenset({(2, 3), (3, 2), (2, 1), (3, 1)}), cedges=frozenset())
    assert any("cycle" in v for v in validate(d))


def test_validate_cluster_without_arc():
    d = DagCompression(directed=True, n_sinks=2, n_clusters=1,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}))
    assert any("no outgoing arc" in v for v in validate(d))


def test_validate_lists_every_violation():
    # sink 1 has an arc, cluster 4 has none, clusters 2 and 3 form a cycle
    d = DagCompression(directed=True, n_sinks=1, n_clusters=3,
                       arcs=frozenset({(1, 2), (2, 3), (3, 2)}), cedges=frozenset())
    assert validate(d) == [
        "original vertex 1 has outgoing arc",
        "cluster vertex 4 with no outgoing arc",
        "cycle in cluster DAG",
    ]
    cases = [
        (d.n_sinks, d.n_clusters, d.arcs, d.cedges),
        (3, 1, {(4, 2), (4, 3)}, {(1, 4)}),  # well-formed
        (2, 1, {(3, 1), (1, 2)}, {(3, 3)}),  # a sink with an out-arc
        (1, 2, {(2, 3), (3, 2), (2, 1), (3, 1)}, set()),  # a cycle
        (2, 1, set(), {(1, 2)}),  # a childless cluster
        (2, 2, {(3, 4), (4, 3), (3, 1), (4, 2)}, {(1, 3)}),  # a two-cluster cycle above sinks 1 and 2
        (4, 0, {(1, 4)}, {(1, 3), (2, 3)}),  # a sink with an out-arc, no clusters
    ]
    for s, c, arcs, cedges in cases:
        directed = DagCompression(True, s, c, arcs, cedges)
        weighted = DagCompression(False, s, c, arcs, cedges, weights={e: 1 for e in cedges})
        shores = ShorePartition(shore1={1}, shore2=set(range(2, s + 1)))
        violations = validate(directed)
        assert validate(weighted) == violations
        for query in (lambda: decompress(directed), lambda: clusters(directed),
                      lambda: decompress(weighted), lambda: clusters(weighted),
                      lambda: kruskal_compressed(weighted),
                      lambda: shore_normalize(directed, shores),
                      lambda: twin_normalize(directed, [(1, 2)] if s > 1 else []),
                      lambda: twin_single_edge(directed, [])):
            if violations:
                message = "invalid compression: " + "; ".join(violations)
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    query()
            else:
                query()


def _full_kahn(d):
    """The DAG index's order, violations and representatives as a loop over
    every vertex computes them: Kahn's FIFO order of all vertices over all
    arcs (None on a cycle), and rep by pointer jumping along first children."""
    n, s = d.n_vertices, d.n_sinks
    outdegree = np.bincount(d.arc_u, minlength=n + 1)
    indegree = np.bincount(d.arc_v, minlength=n + 1)
    indptr = np.concatenate(([0], np.cumsum(outdegree)))
    ptr, ind, indeg = indptr.tolist(), d.arc_v.tolist(), indegree.tolist()
    order = (np.flatnonzero(indegree[1:] == 0) + 1).tolist()
    for x in order:
        for y in ind[ptr[x]:ptr[x + 1]]:
            indeg[y] -= 1
            if not indeg[y]:
                order.append(y)
    violations = [f"original vertex {v} has outgoing arc" for v in range(1, s + 1) if outdegree[v]]
    violations += [f"cluster vertex {v} with no outgoing arc" for v in range(s + 1, n + 1) if not outdegree[v]]
    if len(order) < n:
        return None, violations + ["cycle in cluster DAG"], None
    rep = None
    if not violations:
        rep = np.arange(n + 1)
        rep[s + 1:] = d.arc_v[indptr[s + 1: n + 1]]
        while not np.array_equal(jumped := rep[rep], rep):
            rep = jumped
        rep = rep.tolist()
    return order, violations, rep


def test_index_order_is_the_full_kahn_order_less_the_childless_vertices():
    from test_mst import _fuzz_compressions, _pinned_compressions

    well_formed = [*_fuzz_compressions(), *_pinned_compressions("rook"), *_pinned_compressions("random"),
                   rook_canonical_compression(RookSpec(g=8))]
    invalid = [DagCompression(True, s, c, arcs, []) for s, c, arcs in [
        (1, 3, {(1, 2), (2, 3), (3, 2)}),  # the cases of test_validate_lists_every_violation
        (2, 1, {(3, 1), (1, 2)}),
        (1, 2, {(2, 3), (3, 2), (2, 1), (3, 1)}),
        (2, 1, set()),
        (2, 2, {(3, 4), (4, 3), (3, 1), (4, 2)}),
        (4, 0, {(1, 4)}),
        (2, 1, {(3, 1), (1, 3), (3, 2)}),  # a cycle through a sink
        (3, 1, {(1, 4), (4, 2), (4, 3)}),  # a sink's arc into a cluster, on no cycle
        (3, 1, {(1, 2), (4, 1), (4, 3)}),  # a sink's arc into a sink, on no cycle
    ]]
    for d in well_formed:
        order, violations, rep = _full_kahn(d)
        assert validate(d) == violations == []
        assert d._index.order == [v for v in order if v > d.n_sinks]
        assert d._index.rep == rep
    for d in invalid:
        order, violations, _ = _full_kahn(d)
        assert validate(d) == violations
        parents = set(d.arc_u.tolist())
        assert d._index.order == (None if order is None else [v for v in order if v in parents])
        assert d._index.rep is None


def test_childless_cluster_has_no_representatives():
    d = DagCompression(directed=True, n_sinks=2, n_clusters=1,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}))
    assert d._index.order == []
    assert d._index.rep is None
    with pytest.raises(ValueError):
        clusters(d)


def test_constructors_convert_lists_and_check_ranges():
    edges = frozenset({(1, 2), (2, 2)})
    assert Graph(directed=True, n=2, edges=[[1, 2], [2, 2]]) == Graph(directed=True, n=2, edges=edges)
    assert Graph(directed=True, n=2, edges=edges).edges == edges
    assert Graph(directed=False, n=2, edges=[[2, 1]]).edges == frozenset({(1, 2)})
    arcs, cedges = frozenset({(3, 1), (3, 2)}), frozenset({(3, 1), (2, 3)})
    d = DagCompression(directed=True, n_sinks=2, n_clusters=1, arcs=arcs, cedges=cedges)
    assert d.arcs == arcs and d.cedges == cedges
    assert DagCompression(directed=True, n_sinks=2, n_clusters=1,
                          arcs=[[3, 1], [3, 2]], cedges=[[3, 1], [2, 3]]) == d
    u = DagCompression(directed=False, n_sinks=2, n_clusters=1, arcs=[[3, 1], [3, 2]],
                       cedges=[[3, 1], [3, 2]])
    assert u.cedges == frozenset({(1, 3), (2, 3)})
    with pytest.raises(ValueError):
        Graph(directed=True, n=2, edges=[[1, 3]])
    for bad_arcs, bad_cedges in ((arcs | {(4, 1)}, cedges), (arcs, cedges | {(0, 3)})):
        with pytest.raises(ValueError):
            DagCompression(directed=True, n_sinks=2, n_clusters=1,
                           arcs=bad_arcs, cedges=bad_cedges)
    for n_sinks, n_clusters in ((2, -1), (-1, 0)):
        with pytest.raises(ValueError, match="sink and cluster counts must be non-negative"):
            DagCompression(directed=True, n_sinks=n_sinks, n_clusters=n_clusters,
                           arcs=[], cedges=[])


def test_validate_weight_coverage():
    # a weight map that misses or adds a compression edge cannot be built at all
    for weights in ({}, {(1, 2): 1, (1, 1): 2}):
        with pytest.raises(ValueError, match="weights must cover exactly the compression edges"):
            DagCompression(directed=False, n_sinks=2, n_clusters=0,
                           arcs=frozenset(), cedges=frozenset({(1, 2)}), weights=weights)
    # negative weights are refused as Graph refuses them
    with pytest.raises(ValueError, match=r"^negative weight on \(1, 2\)$"):
        DagCompression(directed=False, n_sinks=2, n_clusters=0,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}), weights={(1, 2): -5})


def test_weighted_compressions_are_undirected():
    with pytest.raises(ValueError, match="weighted compressions are undirected"):
        DagCompression(directed=True, n_sinks=2, n_clusters=0,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}), weights={(1, 2): 1})


def test_compression_attributes_cannot_be_rebound(fig_compression):
    for name in ("n_sinks", "arc_u", "cedges", "_index"):
        with pytest.raises(FrozenInstanceError):
            setattr(fig_compression, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(fig_compression, name)


def test_clusters_fig_values(fig_compression):
    table = clusters(fig_compression)
    assert table.cluster[9] == frozenset({1, 2})
    assert table.cluster[10] == frozenset({1, 2, 3})
    assert table.cluster[3] == frozenset({3})
    for v, c in table.cluster.items():
        assert table.representative[v] in c


def test_clusters_sink_is_its_own():
    d = DagCompression(directed=True, n_sinks=2, n_clusters=0,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}))
    table = clusters(d)
    assert table.cluster[1] == frozenset({1})
    assert table.representative[1] == 1


def test_clusters_rejects_cycle():
    d = DagCompression(directed=True, n_sinks=1, n_clusters=2,
                       arcs=frozenset({(2, 3), (3, 2), (3, 1)}), cedges=frozenset())
    with pytest.raises(ValueError):
        clusters(d)


def test_clusters_match_dfs_oracle_on_random_dags():
    for seed in range(30):
        d = random_compression(n_sinks=6 + seed % 5, n_clusters=8, arc_density=0.35,
                               edge_count=5, max_weight=3, seed=seed)
        table = clusters(d)
        for v in range(1, d.n_vertices + 1):
            assert table.cluster[v] == reachable_sinks(d, v)
            assert table.representative[v] in table.cluster[v]  # the clean precondition


def test_cluster_recurrence():
    for seed in range(20):
        d = random_compression(n_sinks=5, n_clusters=6, arc_density=0.4,
                               edge_count=4, max_weight=2, seed=seed)
        table = clusters(d)
        for v in range(d.n_sinks + 1, d.n_vertices + 1):
            union = frozenset()
            for (u, w) in d.arcs:
                if u == v:
                    union |= table.cluster[w]
            assert table.cluster[v] == union


def test_representatives_deterministic_choice(fig_compression):
    rep = clusters(fig_compression).representative
    # vertex 9 has arc targets {1, 2}; canonical order picks 1 first
    assert rep[9] == 1
    # vertex 10 has arc targets {3, 9}; canonical order picks 3 first
    assert rep[10] == 3


def test_decompress_fig_products(fig_compression):
    g = decompress(fig_compression)
    assert g.has_edge(1, 3)          # via compression edge (9, 11)
    for x in (1, 2, 3):
        for y in (1, 2, 3):
            assert g.has_edge(x, y)  # loop (10, 10) makes {1,2,3} a clique with loops
    assert g.has_edge(4, 6) and g.has_edge(6, 4)
    assert not g.has_edge(7, 1)


def test_decompress_weighted_minimum(mst_compression):
    g = decompress(mst_compression)
    assert g.weights[(1, 4)] == 1
    assert g.weights[(1, 7)] == 2


def test_size_values(fig_compression):
    assert fig_compression.size() == 17
    empty = DagCompression(directed=True, n_sinks=3, n_clusters=0,
                           arcs=frozenset(), cedges=frozenset())
    assert empty.size() == 0
    assert rook_canonical_compression(RookSpec(g=3)).size() == 24


def test_compression_roundtrip(fig_compression, mst_compression):
    for d in (fig_compression, mst_compression):
        text = write_compression(d)
        assert read_compression(text) == d
        assert write_compression(read_compression(text)) == text


def test_read_compression_header_mismatch():
    text = "dagc directed\nsinks 2\nclusters 0\narcs 1\ncedges 0\n"
    with pytest.raises(CompressionFormatError):
        read_compression(text)


def test_read_compression_missing_weight():
    text = "dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2\n"
    with pytest.raises(CompressionFormatError):
        read_compression(text)


def test_read_compression_dangling_id():
    text = "dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 5\n"
    with pytest.raises(CompressionFormatError):
        read_compression(text)


def test_monotone_weights_under_edge_addition():
    rng = random.Random(5)
    for seed in range(25):
        d = random_compression(n_sinks=5, n_clusters=3, arc_density=0.4,
                               edge_count=4, max_weight=9, seed=seed)
        before = decompress(d)
        u = rng.randint(1, d.n_vertices)
        v = rng.randint(1, d.n_vertices)
        e = (min(u, v), max(u, v))
        if e in d.cedges:
            continue
        weights = dict(d.weights)
        weights[e] = rng.randint(1, 9)
        bigger = DagCompression(directed=False, n_sinks=d.n_sinks, n_clusters=d.n_clusters,
                                arcs=d.arcs, cedges=d.cedges | {e}, weights=weights)
        after = decompress(bigger)
        for edge, w in before.weights.items():
            assert after.weights[edge] <= w


def test_isolated_sinks_are_legal():
    d = DagCompression(directed=True, n_sinks=5, n_clusters=0,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}))
    assert validate(d) == []
    assert decompress(d) == Graph(directed=True, n=5, edges=frozenset({(1, 2)}))
