import gc
import hashlib
import itertools
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagzip import (
    DagCompression,
    Graph,
    MstResult,
    MstStats,
    certify_forest,
    decompress,
    kruskal_baseline,
    kruskal_compressed,
    random_compression,
    read_compression,
    rook_mst_compression,
    validate,
    write_compression,
    write_mst,
)


def brute_force_mst_weight(g: Graph) -> int:
    """Exhaustive oracle: cheapest spanning tree over all edge subsets."""
    n = g.n
    edges = sorted(g.weights.items())
    best = None
    for combo in itertools.combinations(edges, n - 1):
        if nx.is_connected(_nx_graph(n, ((u, v, w) for (u, v), w in combo))):
            weight = sum(w for _, w in combo)
            best = weight if best is None else min(best, weight)
    assert best is not None, "graph not connected"
    return best


def test_baseline_triangle():
    wg = Graph(directed=False, n=3, edges=frozenset({(1, 2), (2, 3), (1, 3)}),
               weights={(1, 2): 1, (2, 3): 2, (1, 3): 3})
    res = kruskal_baseline(wg)
    assert res.total_weight == 3
    assert len(res.edges) == 2


def test_baseline_single_vertex():
    wg = Graph(directed=False, n=1, edges=frozenset(), weights={})
    res = kruskal_baseline(wg)
    assert res.edges == [] and res.total_weight == 0


def test_baseline_rejects_unweighted():
    with pytest.raises(ValueError, match="weighted graph"):
        kruskal_baseline(Graph(directed=False, n=2, edges=[(1, 2)]))


def test_baseline_spanning_tree_size_on_connected(mst_compression):
    g = decompress(mst_compression)
    res = kruskal_baseline(g)
    assert len(res.edges) == g.n - 1


def test_fig_run_weight_is_brute_force_minimum(mst_compression):
    g = decompress(mst_compression)
    assert brute_force_mst_weight(g) == 7
    assert kruskal_baseline(g).total_weight == 7


def test_compressed_fig_run(mst_compression):
    res = kruskal_compressed(mst_compression)
    assert res.total_weight == 7
    # 4 of the 10 links fall inside one component, and no arc is walked twice
    assert res.edges == [(1, 4, 1), (2, 4, 1), (3, 4, 1), (1, 5, 1), (1, 6, 1), (1, 7, 2)]
    assert res.stats.add_edge_calls == 10
    assert res.stats.arcs_traversed == 8


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


def _nx_graph(n, edges):
    """A networkx graph on 1..n with the weighted edges (u, v, w)."""
    h = nx.Graph()
    h.add_nodes_from(range(1, n + 1))
    h.add_weighted_edges_from(edges)
    return h


def _msf_weight(g):
    """The weight of a minimum spanning forest of g, by networkx."""
    msf = nx.minimum_spanning_tree(_nx_graph(g.n, ((u, v, w) for (u, v), w in g.weights.items())))
    return sum(w for _, _, w in msf.edges(data="weight"))


def _partition(edges, n):
    """Connected components of a forest on 1..n, ordered by smallest vertex."""
    return sorted(map(frozenset, nx.connected_components(_nx_graph(n, edges))), key=min)


def test_disconnected_input_yields_forest():
    d = DagCompression(directed=False, n_sinks=4, n_clusters=0,
                       arcs=frozenset(), cedges=frozenset({(1, 2)}), weights={(1, 2): 3})
    res = kruskal_compressed(d)
    assert res.edges == [(1, 2, 3)]
    assert _partition(res.edges, 4) == [frozenset({1, 2}), frozenset({3}), frozenset({4})]


def _weight_order_prefixes(d):
    # Kruskal on the first k compression edges in weight order replays the
    # full run up to its k-th compression edge.
    order = sorted(d.cedges, key=lambda e: (d.weights[e], e))
    for k in range(1, len(order) + 1):
        yield DagCompression(directed=False, n_sinks=d.n_sinks, n_clusters=d.n_clusters,
                             arcs=d.arcs, cedges=frozenset(order[:k]),
                             weights={e: d.weights[e] for e in order[:k]})


def test_weight_order_prefixes_are_nested_minimum_forests(mst_compression):
    # The running invariant of compressed Kruskal: after each compression edge
    # the forest only grows, and it is a minimum spanning forest of the
    # products processed so far, each edge at its weight in them.
    cases = [mst_compression] + [
        random_compression(n_sinks=5 + seed % 6, n_clusters=3, arc_density=0.5,
                           edge_count=4, max_weight=5, seed=seed) for seed in range(40)]
    for d in cases:
        previous = []
        for prefix in _weight_order_prefixes(d):
            res = kruskal_compressed(prefix)
            assert res.edges[:len(previous)] == previous
            g = decompress(prefix)
            assert all(g.weights.get((u, v)) == w for u, v, w in res.edges)
            assert res.total_weight == _msf_weight(g)
            previous = res.edges


def test_make_clean_fig_first_step(mst_compression):
    # processing {8, 9}: cleaning 8 connects children 1, 2, 3 to rep(9) = 4
    assert mst_compression._index.rep[9] == 4
    first = next(_weight_order_prefixes(mst_compression))
    assert kruskal_compressed(first).edges[:3] == [(1, 4, 1), (2, 4, 1), (3, 4, 1)]


def test_fig_partition_evolution(mst_compression):
    # snapshot the partition after each compression edge
    d = mst_compression
    snapshots = [_partition(kruskal_compressed(p).edges, d.n_sinks) for p in _weight_order_prefixes(d)]
    assert snapshots[0] == [frozenset({1, 2, 3, 4, 5, 6}), frozenset({7})]
    assert snapshots[1] == [frozenset(range(1, 8))]


def test_arcs_traversed_at_most_once():
    for seed in range(100):
        d = random_compression(n_sinks=4 + seed % 8, n_clusters=2 + seed % 5,
                               arc_density=0.5, edge_count=6, max_weight=3, seed=seed)
        res = kruskal_compressed(d)
        assert res.stats.arcs_traversed <= len(d.arcs)


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
    with pytest.raises(ValueError, match="^max_weight does not fit in int64$"):
        rook_mst_compression(2, max_weight=2 ** 63)


@pytest.mark.parametrize("d", [
    rook_mst_compression(12, max_weight=9, seed=3),
    random_compression(n_sinks=60, n_clusters=20, arc_density=0.2, edge_count=80,
                       max_weight=9, seed=5),
], ids=["rook", "random"])
def test_mst_path_stays_on_the_arrays(d):
    """Parsing, validation and compressed Kruskal never build the tuple views
    (work stays O(|A| + |E|) on arrays) and hand back Python ints only."""
    read = read_compression(write_compression(d))
    assert validate(read) == []
    res = kruskal_compressed(read)
    assert write_mst(res, read.n_sinks) == write_mst(kruskal_compressed(d), d.n_sinks)
    assert not {"arcs", "cedges", "weights"} & vars(read).keys()
    values = [x for e in res.edges for x in e]
    values += [res.total_weight, res.stats.add_edge_calls, res.stats.arcs_traversed]
    assert len(values) > 3 and all(type(x) is int for x in values)


def test_compressed_rejects_unweighted(fig_compression):
    with pytest.raises(ValueError):
        kruskal_compressed(fig_compression)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(1, 14), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_mst_weight_matches_baseline_and_networkx(n_sinks, n_clusters, density, edge_count,
                                                  max_weight, seed):
    d = random_compression(n_sinks=n_sinks, n_clusters=n_clusters, arc_density=density,
                           edge_count=edge_count, max_weight=max_weight, seed=seed)
    mine = kruskal_compressed(d)
    g = decompress(d)
    assert mine.total_weight == kruskal_baseline(g).total_weight == _msf_weight(g)
    assert mine.stats.add_edge_calls <= len(d.arcs) + len(d.cedges)
    assert mine.stats.arcs_traversed <= len(d.arcs)


@st.composite
def weighted_graphs(draw):
    """Weighted graphs on 1..n: random edge lists (loops allowed), long paths
    and stars, each thinned to leave isolated vertices and several
    components; weights from {1, 2}, a wider range, or ascending along the
    edge list (the longest hooking chains)."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["random", "path", "star"]))
    if shape == "path":
        walk = draw(st.permutations(range(1, n + 1)))
        pairs = list(zip(walk, walk[1:]))
    elif shape == "star":
        hub = draw(st.integers(1, n))
        pairs = [(hub, x) for x in range(1, n + 1) if x != hub]
    else:
        vertex = st.integers(1, n)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if draw(st.booleans()):
        pairs = [p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                            max_size=len(pairs)))) if keep]
    kind = draw(st.sampled_from(["ties", "wide", "ascending"]))
    weights = {}
    for i, (a, b) in enumerate(pairs):
        w = i if kind == "ascending" else draw(st.integers(1, 2) if kind == "ties" else st.integers(0, 50))
        weights[min(a, b), max(a, b)] = w
    return Graph(directed=False, n=n, edges=list(weights), weights=weights)


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
def test_baseline_is_sequential_kruskal(g):
    # The direct encoding (no clusters, one compression edge per edge) turns
    # compressed Kruskal into plain sequential Kruskal.
    direct = DagCompression(directed=False, n_sinks=g.n, n_clusters=0, arcs=[],
                            cedges=g.edges, weights=dict(g.weights))
    base = kruskal_baseline(g)
    assert base.edges == kruskal_compressed(direct).edges
    assert base.total_weight == _msf_weight(g)


def _pinned_compressions(family):
    if family == "rook":
        for g in range(5, 41):
            yield rook_mst_compression(g, max_weight=1 if g % 2 else 7, seed=g)
    else:
        for seed in range(200):
            yield random_compression(
                n_sinks=3 + seed % 30, n_clusters=seed % 20,
                arc_density=(0.2, 0.4, 0.6)[seed % 3], edge_count=2 + seed % 25,
                max_weight=1 + seed % 6, seed=seed)


# sha256 over repr((edges, total_weight, stats)) of each run, taken from the
# step-level implementation (MstRun/make_clean/add_edge).
MST_DIGESTS = {
    "random": "38a9d5caa369351ee74e4e3ed96582fad446e215a484b651f37f383235881ec1",
    "rook": "1f9d6b7008601fb7014a27a4057c48742be5d419b2e31e223df5528782331a09",
}


@pytest.mark.parametrize("family", sorted(MST_DIGESTS))
def test_compressed_output_pinned(family):
    h = hashlib.sha256()
    for d in _pinned_compressions(family):
        r = kruskal_compressed(d)
        h.update(repr((r.edges, r.total_weight, r.stats)).encode())
        # Counted, not handed to the union-find: every walked arc and every edge is one link.
        assert r.stats.add_edge_calls == r.stats.arcs_traversed + len(d.cedge_u)
        assert r.stats.arcs_traversed <= len(d.arc_u)
    assert h.hexdigest() == MST_DIGESTS[family]


def _mutants(res, g):
    """Wrong forests made from res, a minimum spanning forest of g: the first of
    each kind, as (kind, edges, total_weight). A raised weight and a dropped
    edge exist for every edge; an edge in no product of the compression and a
    heavier edge of g exist where the two trees that the removal of a forest
    edge leaves have such a pair between them."""
    found = set()
    for i, (a, b, w) in enumerate(res.edges):
        rest = res.edges[:i] + res.edges[i + 1:]
        swaps = {"raised": ((a, b, w + 1), res.total_weight + 1), "dropped": (None, res.total_weight - w)}
        side = nx.node_connected_component(_nx_graph(g.n, rest), a)
        for x, y in itertools.product(sorted(side), range(1, g.n + 1)):
            if y in side:
                continue
            p = (min(x, y), max(x, y))
            if p not in g.weights:
                swaps.setdefault("in no product", ((*p, w), res.total_weight))
            elif g.weights[p] > w:
                swaps.setdefault("heavier swap", ((*p, g.weights[p]), res.total_weight - w + g.weights[p]))
        for kind, (edge, total) in swaps.items():
            if kind not in found:
                found.add(kind)
                yield kind, rest + ([edge] if edge else []), total


def _certificate_cases():
    for g in range(2, 9):
        yield rook_mst_compression(g, max_weight=1 + g % 4, seed=g)
    for seed in range(120):
        yield random_compression(n_sinks=2 + seed % 12, n_clusters=seed % 9,
                                 arc_density=(0.2, 0.4, 0.7)[seed % 3], edge_count=1 + seed % 10,
                                 max_weight=1 + seed % 6, seed=seed)


def test_certificate_accepts_kruskal_and_rejects_each_mutant(mst_compression):
    """The certificate accepts compressed Kruskal's forest, whose weight Borůvka
    on the expansion confirms, and rejects each wrong forest made from it."""
    rejected = dict.fromkeys(["raised", "dropped", "in no product", "heavier swap"], 0)
    for d in [mst_compression, *_certificate_cases()]:
        res = kruskal_compressed(d)
        assert certify_forest(d, res) is None
        g = decompress(d)
        assert res.total_weight == kruskal_baseline(g).total_weight
        for kind, edges, total in _mutants(res, g):
            why = certify_forest(d, MstResult(edges, total, MstStats()))
            assert why is not None and "\n" not in why, (kind, edges)
            rejected[kind] += 1
    assert min(rejected.values()) >= 20, rejected


def test_certificate_messages(mst_compression):
    d, good = mst_compression, kruskal_compressed(mst_compression).edges
    for edges, total, why in [
        (good[:-1] + [(1, 1, 0)], 5, "forest edge (1, 1) closes a cycle"),
        (good[:-1] + [(1, 9, 2)], 7, "a forest edge has an endpoint outside 1..7"),
        (good[:-1], 5, "compression edge (8, 10) joins two of its trees"),
    ]:
        assert certify_forest(d, MstResult(edges, total, MstStats())) == why
    with pytest.raises(OverflowError):
        MstResult(good[:-1] + [(1, 7, 2 ** 63)], 5 + 2 ** 63, MstStats())
    with pytest.raises(ValueError, match="weighted undirected"):
        certify_forest(DagCompression(False, 1, 0, [], []), MstResult([], 0, MstStats()))


def _sequential_kruskal(d):
    """Compressed Kruskal as one sequential loop: the walks of the mst module
    docstring, one after another, with every link of a clean vertex handed
    straight to a union-find (path halving, union by size). The reference
    that kruskal_compressed's array passes must reproduce exactly."""
    index = d._index
    index.check()
    parent = list(range(d.n_sinks + 1))
    size = [1] * (d.n_sinks + 1)
    rep, ptr, ind = index.rep, index.ptr, index.ind
    clean = bytearray(b"\0" + b"\1" * d.n_sinks + b"\0" * d.n_clusters)
    forest = []
    order = np.argsort(d.cedge_w, kind="stable")
    for u, v, w in zip(*(c[order].tolist() for c in (d.cedge_u, d.cedge_v, d.cedge_w))):
        ru, rv = rep[u], rep[v]
        for work, r in (([] if clean[u] else [u], rv), ([v], ru)):
            y = r  # r's root, found once and carried through the walk's unions
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            while work:
                c = work.pop()
                if not clean[c]:
                    clean[c] = 1
                    work += ind[ptr[c]:ptr[c + 1]][::-1]  # the first child pops first
                    continue
                x = a = rep[c]
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                if x != y:
                    if size[x] < size[y]:
                        x, y = y, x
                    parent[y] = x
                    size[x] += size[y]
                    y = x
                    forest.append((a, r, w) if a <= r else (r, a, w))
    s = d.n_sinks + 1
    arcs = int(index.outdegree[s:][np.frombuffer(clean, bool)[s:]].sum())
    return MstResult(edges=forest, total_weight=sum(w for _, _, w in forest),
                     stats=MstStats(add_edge_calls=arcs + len(d.cedge_u), arcs_traversed=arcs))


def _chained_compression(seed, chains, length, pool, sinks, cedges, max_weight, isolated=0):
    """Clusters in chains of the given length: each has an arc to a sink of
    its chain's pool and to one of the three clusters before it, and one in
    ten also to a random earlier cluster of its chain, so the DAG is hundreds
    of levels deep and walks meet diamonds. Compression edges join random
    sinks and clusters, loops included, with weights from 1..max_weight; the
    last `isolated` sinks take no arc and no edge."""
    rng = np.random.default_rng(seed)
    n = sinks + isolated
    arcs = set()
    for c in range(chains):
        base = n + 1 + c * length
        members = rng.choice(sinks, size=pool, replace=False) + 1
        for i in range(length):
            arcs.add((base + i, int(rng.choice(members))))
            if i:
                arcs.add((base + i, base + i - int(rng.integers(1, min(i, 3) + 1))))
            if i > 1 and rng.random() < 0.1:
                arcs.add((base + i, base + int(rng.integers(0, i))))
    ends = np.concatenate((np.arange(1, sinks + 1), np.arange(n + 1, n + chains * length + 1)))
    u, v = rng.choice(ends, size=cedges), rng.choice(ends, size=cedges)
    w = rng.integers(1, max_weight + 1, size=cedges)
    weights = {(min(a, b), max(a, b)): x for a, b, x in zip(u.tolist(), v.tolist(), w.tolist())}
    return DagCompression(directed=False, n_sinks=n, n_clusters=chains * length,
                          arcs=np.array(sorted(arcs)), cedges=list(weights), weights=weights)


def _diamonds(seed):
    """Stacked diamonds c -> a, b -> x over a few sinks, so one walk reaches x
    twice, with random edges over all vertices (ties, loops, sink pairs)."""
    rng = np.random.default_rng(seed)
    sinks, layers = 6, 5
    arcs, below = [], [1, 2]
    for i in range(layers):
        x, a, b, c = (sinks + 4 * i + k for k in range(1, 5))
        arcs += [(x, y) for y in below] + [(x, 3 + i % 4), (a, x), (b, x), (c, a), (c, b)]
        below = [c]
    top = sinks + 4 * layers
    pairs = {tuple(sorted(p)) for p in rng.integers(1, top + 1, size=(12, 2)).tolist()}
    weights = {p: int(rng.integers(1, 3)) for p in sorted(pairs)}
    return DagCompression(directed=False, n_sinks=sinks, n_clusters=4 * layers,
                          arcs=arcs, cedges=list(weights), weights=weights)


def _differential_cases():
    for seed in range(4):
        yield f"chained-{seed}", _chained_compression(seed, chains=2, length=500, pool=8, sinks=60,
                                                      cedges=150, max_weight=1 + 3 * seed, isolated=3)
    for seed in range(20):
        yield f"diamonds-{seed}", _diamonds(seed)
    for seed in range(60):
        yield f"random-{seed}", random_compression(
            n_sinks=1 + seed % 15, n_clusters=seed % 11, arc_density=(0.2, 0.5, 0.9)[seed % 3],
            edge_count=seed % 13, max_weight=1 + seed % 3, seed=seed)
    yield "no-cedges", _chained_compression(9, chains=1, length=50, pool=5, sinks=10, cedges=0,
                                            max_weight=1, isolated=2)
    yield "no-clusters", DagCompression(False, 5, 0, [], [(1, 1), (1, 2), (2, 3)],
                                        {(1, 1): 0, (1, 2): 4, (2, 3): 4})


def test_array_passes_match_the_sequential_loop():
    """The three array passes give the sequential loop's forest, edge for edge
    in acceptance order, with the same weight and counters."""
    for name, d in _differential_cases():
        mine, ref = kruskal_compressed(d), _sequential_kruskal(d)
        assert mine.edges == ref.edges, name
        assert mine.total_weight == ref.total_weight, name
        assert repr(mine.stats) == repr(ref.stats), name
        assert certify_forest(d, mine) is None, name


def _traced_peak(run, d):
    gc.collect()
    tracemalloc.start()
    try:
        run(d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", ["rook", "chained"])
def test_array_passes_peak_no_higher_than_the_sequential_loop(shape):
    """Traced peak of one run, the DAG index built beforehand: the link and
    forest arrays stay within 1.1 times the sequential loop's union-find."""
    if shape == "rook":
        d = rook_mst_compression(200, 5, 1)
    else:
        d = _chained_compression(7, chains=10, length=400, pool=96, sinks=10000, cedges=15000,
                                 max_weight=1000)
    d._index.check()
    reference, mine = _traced_peak(_sequential_kruskal, d), _traced_peak(kruskal_compressed, d)
    assert mine <= 1.1 * reference, (mine, reference)


def _fuzz_compressions():
    """The shapes of test_compressed_matches_baseline_on_fuzz."""
    for seed in range(300):
        yield random_compression(n_sinks=3 + seed % 10, n_clusters=seed % 8, arc_density=0.4,
                                 edge_count=2 + seed % 9, max_weight=6, seed=seed)


def _view_cases():
    """Both Kruskals' results on the pinned families, the fuzz shapes and an
    edgeless compression, then the empty forest built by hand."""
    empty = DagCompression(False, 3, 0, [], [], {})
    for d in [*_pinned_compressions("rook"), *_pinned_compressions("random"), *_fuzz_compressions(), empty]:
        yield kruskal_compressed(d)
        yield kruskal_baseline(decompress(d))
    yield MstResult(np.empty((0, 3), np.int64), 0, MstStats())


def test_forest_view_reads_as_the_tuple_list():
    """Both Kruskals' edges read as the list of (u, v, w) tuples of Python
    ints they stand for and take no edit, nor can a result's edges be
    rebound; that list builds an equal result."""
    from dagzip.mst import ForestView

    for res in _view_cases():
        view, ref = res.edges, list(res.edges)
        assert type(view) is ForestView and len(view) == len(ref) == len(view.array)
        assert view == ref and ref == view and view != ref + [(1, 1, 0)] and view == ForestView(view.array)
        listed = MstResult(ref, res.total_weight, res.stats)
        assert listed == res and repr(listed) == repr(res) and repr(view) == repr(ref)
        assert all(type(e) is tuple and all(type(x) is int for x in e) for e in view)
        for s in (slice(1, 3), slice(None, None, -1), slice(-2, None), slice(5, 1)):
            assert type(view[s]) is list and view[s] == ref[s]
        for i in {0, len(ref) // 2, len(ref) - 1} if ref else ():
            assert view[i] == view[i - len(ref)] == ref[i] and view.index(ref[i]) == ref.index(ref[i])
        with pytest.raises(IndexError):
            view[len(ref)]
        with pytest.raises(TypeError):
            view[0] = (1, 1, 0)
        with pytest.raises(AttributeError):
            res.edges = ref


def test_forest_size_counter_reads_only_len(monkeypatch):
    """len(edges or ()), the forest-size counter of the benchmark's tracer,
    gives the forest size on both Kruskals, 0 on an empty forest, without
    indexing or iterating the view: the view keeps its truth value."""
    from dagzip.mst import ForestView

    def fail(*args):
        raise AssertionError("the forest view was indexed or iterated")

    monkeypatch.setattr(ForestView, "__iter__", fail)
    monkeypatch.setattr(ForestView, "__getitem__", fail)
    results = list(_view_cases())
    sizes = [len(res.edges or ()) for res in results]
    assert sizes == [len(res.edges.array) for res in results]
    assert sizes[:2] == [24, 24] and sizes[-3:] == [0, 0, 0]  # both Kruskals on rook and on no edge


def test_totals_past_int64(tmp_path, capsys):
    """Two forest edges at the int64 maximum: both Kruskals and the
    certificate sum them past int64, and mst --check writes that total."""
    from dagzip.cli import main

    top = 2 ** 63 - 1
    d = DagCompression(False, 3, 0, [], [(1, 2), (2, 3)], {(1, 2): top, (2, 3): top})
    for res in (kruskal_compressed(d), kruskal_baseline(decompress(d))):
        assert res.total_weight == 2 * top and certify_forest(d, res) is None
    path = tmp_path / "max.dagc"
    path.write_text(write_compression(d), encoding="ascii")
    for flags in (["--check"], ["--baseline", "--check"]):
        assert main(["mst", *flags, str(path)]) == 0
        assert capsys.readouterr() == (f"mst 3 2 {2 * top}\nt 1 2 {top}\nt 2 3 {top}\n", "")


def test_forest_array_peak_no_higher_than_a_tuple_list():
    """Traced peak of kruskal_compressed plus write_mst on rook g=200, the
    DAG index built beforehand: no higher than when the forest is handed on
    as its list of (u, v, w) tuples, the endpoints shared with the index."""
    d = rook_mst_compression(200, 5, 1)
    d._index.check()

    def as_array(d):
        write_mst(kruskal_compressed(d), d.n_sinks)

    def as_tuples(d):
        res = kruskal_compressed(d)
        rep, (lo, hi, w) = d._index.rep, (memoryview(c.copy()) for c in res.edges.array.T)
        edges = list(zip(map(rep.__getitem__, lo), map(rep.__getitem__, hi), w))
        write_mst(MstResult(edges, res.total_weight, res.stats), d.n_sinks)

    reference, mine = _traced_peak(as_tuples, d), _traced_peak(as_array, d)
    assert mine <= reference, (mine, reference)
