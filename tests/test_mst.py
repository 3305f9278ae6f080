import itertools

import pytest

from dagzip import (
    DagCompression,
    Graph,
    UnionFind,
    WeightedGraph,
    decompress,
    kruskal_baseline,
    kruskal_compressed,
    random_compression,
    rook_mst_compression,
    write_mst,
)
from dagzip.mst import MstRun, MstStats, add_edge, make_clean, spanning_forest_partition
from dagzip.compression import sink_representatives


def brute_force_mst_weight(g: WeightedGraph) -> int:
    """Exhaustive oracle: cheapest spanning tree over all edge subsets."""
    n = g.n
    edges = sorted(g.weights.items())
    best = None
    for combo in itertools.combinations(edges, n - 1):
        uf = UnionFind(n)
        merges = sum(1 for (u, v), _ in combo if uf.unite(u, v))
        if merges == n - 1:
            weight = sum(w for _, w in combo)
            best = weight if best is None else min(best, weight)
    assert best is not None, "graph not connected"
    return best


def test_union_find_contract():
    uf = UnionFind(4)
    assert uf.find(1) != uf.find(2)
    assert uf.unite(1, 2)
    assert not uf.unite(2, 1)
    assert uf.find(1) == uf.find(2)
    assert uf.find(3) != uf.find(1)


def test_baseline_triangle():
    g = Graph(directed=False, n=3, edges=frozenset({(1, 2), (2, 3), (1, 3)}))
    wg = WeightedGraph(graph=g, weights={(1, 2): 1, (2, 3): 2, (1, 3): 3})
    res = kruskal_baseline(wg)
    assert res.total_weight == 3
    assert len(res.edges) == 2


def test_baseline_single_vertex():
    wg = WeightedGraph(graph=Graph(directed=False, n=1, edges=frozenset()), weights={})
    res = kruskal_baseline(wg)
    assert res.edges == [] and res.total_weight == 0


def test_baseline_spanning_tree_size_on_connected(mst_compression):
    g = decompress(mst_compression)
    res = kruskal_baseline(g)
    assert len(res.edges) == g.n - 1


def test_fig_run_weight_is_brute_force_minimum(mst_compression):
    g = decompress(mst_compression)
    assert brute_force_mst_weight(g) == 7
    assert kruskal_baseline(g).total_weight == 7


def test_compressed_fig_run(mst_compression):
    res = kruskal_compressed(mst_compression, debug=True)
    assert res.total_weight == 7
    assert res.edge_set == frozenset({(1, 4), (1, 5), (1, 6), (2, 4), (3, 4), (1, 7)})
    assert res.stats.add_edge_calls <= 10
    assert res.stats.arcs_traversed <= 8


def test_compressed_single_edge_between_sinks():
    d = DagCompression(directed=False, n_sinks=2, n_clusters=0,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}), weights={(1, 2): 5})
    res = kruskal_compressed(d)
    assert res.edges == [(1, 2, 5)]
    assert res.total_weight == 5


def test_compressed_matches_baseline_on_fuzz():
    for seed in range(300):
        d = random_compression(
            n_sinks=3 + seed % 10, n_clusters=seed % 8, arc_density=0.4,
            edge_count=2 + seed % 9, max_weight=6, seed=seed,
        )
        mine = kruskal_compressed(d)
        base = kruskal_baseline(decompress(d))
        assert mine.total_weight == base.total_weight, seed
        assert mine.stats.add_edge_calls <= len(d.arcs) + len(d.cedges), seed
        assert mine.stats.arcs_traversed <= len(d.arcs), seed


def test_clean_order_immaterial_for_weight():
    # replay the run cleaning the second endpoint of each compression edge first
    for seed in range(60):
        d = random_compression(n_sinks=6, n_clusters=4, arc_density=0.4,
                               edge_count=5, max_weight=4, seed=seed)
        run = _run_for(d)
        for (u, v) in sorted(d.cedges, key=lambda e: (d.weights[e], e)):
            run.current_weight = d.weights[(u, v)]
            make_clean(run, v, run.rep[u])
            make_clean(run, u, run.rep[v])
            add_edge(run, run.rep[u], run.rep[v])
        swapped = sum(w for _, _, w in run.forest)
        assert kruskal_compressed(d).total_weight == swapped


def test_debug_invariant_checks_pass(mst_compression):
    for seed in range(40):
        d = random_compression(n_sinks=5 + seed % 6, n_clusters=3, arc_density=0.5,
                               edge_count=4, max_weight=5, seed=seed)
        kruskal_compressed(d, debug=True)


def test_disconnected_input_yields_forest():
    d = DagCompression(directed=False, n_sinks=4, n_clusters=0,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}), weights={(1, 2): 3})
    res = kruskal_compressed(d)
    assert res.edges == [(1, 2, 3)]
    parts = spanning_forest_partition(res.edges, 4)
    assert parts == [frozenset({1, 2}), frozenset({3}), frozenset({4})]


def _run_for(d):
    children = {v: [] for v in range(1, d.n_vertices + 1)}
    for u, v in sorted(d.arcs):
        children[u].append(v)
    return MstRun(
        uf=UnionFind(d.n_sinks),
        rep=sink_representatives(d),
        children=children,
        clean=[False] + [v <= d.n_sinks for v in range(1, d.n_vertices + 1)],
        stats=MstStats(),
    )


def test_make_clean_noop_on_clean_vertex(mst_compression):
    run = _run_for(mst_compression)
    make_clean(run, 1, 4)
    assert run.stats.arcs_traversed == 0
    assert run.forest == []


def test_make_clean_fig_first_step(mst_compression):
    # processing {8, 9}: cleaning 8 connects children 1, 2, 3 to rep(9) = 4
    run = _run_for(mst_compression)
    run.current_weight = 1
    assert run.rep[9] == 4
    make_clean(run, 8, run.rep[9])
    assert run.forest == [(1, 4, 1), (2, 4, 1), (3, 4, 1)]
    assert run.clean[8]


def test_fig_partition_evolution(mst_compression):
    # replay the full run and snapshot the partition after each compression edge
    d = mst_compression
    run = _run_for(d)
    snapshots = []
    for (u, v) in sorted(d.cedges, key=lambda e: (d.weights[e], e)):
        run.current_weight = d.weights[(u, v)]
        make_clean(run, u, run.rep[v])
        make_clean(run, v, run.rep[u])
        add_edge(run, run.rep[u], run.rep[v])
        snapshots.append(spanning_forest_partition(run.forest, d.n_sinks))
    assert snapshots[0] == [frozenset({1, 2, 3, 4, 5, 6}), frozenset({7})]
    assert snapshots[1] == [frozenset(range(1, 8))]


def test_arcs_traversed_at_most_once():
    for seed in range(100):
        d = random_compression(n_sinks=4 + seed % 8, n_clusters=2 + seed % 5,
                               arc_density=0.5, edge_count=6, max_weight=3, seed=seed)
        res = kruskal_compressed(d)
        assert res.stats.arcs_traversed <= len(d.arcs)


def test_add_edge_same_component_is_noop():
    run = MstRun(uf=UnionFind(3), rep={v: v for v in range(1, 4)},
                 children={v: [] for v in range(1, 4)},
                 clean=[False, True, True, True])
    run.current_weight = 1
    add_edge(run, 1, 2)
    add_edge(run, 2, 1)
    assert run.forest == [(1, 2, 1)]
    assert run.stats.add_edge_calls == 2


def test_deterministic_output_text(mst_compression):
    a = write_mst(kruskal_compressed(mst_compression), mst_compression.n_sinks)
    b = write_mst(kruskal_compressed(mst_compression), mst_compression.n_sinks)
    assert a == b
    assert a.startswith("mst 7 6 7\n")


def test_rook_mst_compression_contract():
    d = rook_mst_compression(6)
    assert d.size() == 2 * 36 + 12
    res = kruskal_compressed(d)
    base = kruskal_baseline(decompress(d))
    assert res.total_weight == base.total_weight == 35


def test_compressed_rejects_unweighted(fig_compression):
    with pytest.raises(ValueError):
        kruskal_compressed(fig_compression)
