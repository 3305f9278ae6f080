import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagzip import (
    DagCompression,
    Graph,
    RookSpec,
    clusters,
    dag_compress_greedy,
    decompress,
    gap_experiment,
    gap_report_csv,
    min_dag_size,
    random_graph,
    rook_graph,
    tree_compress,
    twins,
    validate,
    validate_tree_compression,
    write_compression,
    write_graph,
)
from dagzip import heuristics
from dagzip.cli import main
from dagzip.graphs import _twin_classes
from dagzip.heuristics import _greedy_pairs, _overlaps, _saving


def test_tree_two_vertices_single_edge():
    g = Graph(directed=True, n=2, edges=frozenset({(1, 2)}))
    t = tree_compress(g)
    assert validate_tree_compression(t) == []
    assert t.n_clusters == 1
    assert len(t.arcs) == 2
    assert t.cedges == frozenset({(1, 2)})
    assert decompress(t) == g


def test_tree_clique_with_loops_gets_root_loop():
    g = Graph(directed=True, n=4,
              edges=frozenset((u, v) for u in range(1, 5) for v in range(1, 5)))
    t = tree_compress(g, merge_policy="balanced")
    root = t.n_sinks + t.n_clusters
    assert t.cedges == frozenset({(root, root)})
    assert t.size() == 6 + 1
    assert decompress(t) == g


def test_tree_shape_rejects_two_trees():
    # C(5) = {1, 2} and C(6) = {3, 4}: each tree is binary, but neither root
    # covers every sink
    d = DagCompression(directed=True, n_sinks=4, n_clusters=2,
                       arcs=frozenset({(5, 1), (5, 2), (6, 3), (6, 4)}),
                       cedges=frozenset({(5, 6)}))
    assert validate_tree_compression(d) == ["expected a unique root, found 2"]


def test_tree_shape_names_a_one_child_cluster_and_a_shared_child():
    one_child = DagCompression(directed=True, n_sinks=1, n_clusters=1, arcs=[(2, 1)], cedges=[])
    assert validate_tree_compression(one_child) == ["cluster vertex 2 has 1 children, want 2"]
    # C(3) = {1, 2} and C(4) = C(3) + {2}: one root, but sink 2 has two parents
    shared = DagCompression(directed=True, n_sinks=2, n_clusters=2,
                            arcs=[(3, 1), (3, 2), (4, 3), (4, 2)], cedges=[(4, 4)])
    assert validate_tree_compression(shared) == ["a vertex has two parents"]


@pytest.mark.parametrize("compress", [tree_compress, dag_compress_greedy])
def test_compressors_refuse_weighted(compress):
    g = Graph(directed=False, n=2, edges=[(1, 2)], weights={(1, 2): 5})
    with pytest.raises(ValueError) as exc:
        compress(g)
    assert str(exc.value) == "compression strategies work on unweighted graphs"


def test_tree_single_vertex():
    g = Graph(directed=True, n=1, edges=frozenset({(1, 1)}))
    t = tree_compress(g)
    assert t.n_clusters == 0
    assert t.cedges == frozenset({(1, 1)})
    assert decompress(t) == g


def test_tree_decompression_exact_small_rooks():
    for g_side in (2, 3, 4, 5):
        graph = rook_graph(RookSpec(g=g_side))
        for policy in ("similarity", "balanced"):
            t = tree_compress(graph, merge_policy=policy)
            assert validate_tree_compression(t) == []
            assert decompress(t) == graph


def test_tree_decompression_exact_random():
    for seed in range(25):
        g = random_graph(6, 0.5, seed=seed, directed=True)
        t = tree_compress(g)
        assert validate_tree_compression(t) == []
        assert decompress(t) == g
    for seed in range(10):
        g = random_graph(6, 0.5, seed=seed, directed=False)
        t = tree_compress(g)
        assert decompress(t) == g


def test_tree_maximal_products_cover_exactly():
    # products stay inside the edge set and jointly cover it: equality of
    # decompression (checked above) plus per-product containment
    g = random_graph(5, 0.6, seed=3, directed=True)
    t = tree_compress(g)
    table = clusters(t)
    for (u, v) in t.cedges:
        for x in table.cluster[u]:
            for y in table.cluster[v]:
                assert g.has_edge(x, y)


def test_tree_unknown_policy():
    g = Graph(directed=True, n=2, edges=frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        tree_compress(g, merge_policy="rng")


def test_greedy_twin_class_cluster():
    # k twins sharing d out-neighbors compress to k arcs + d edges
    k, d = 3, 2
    edges = {(u, v) for u in (1, 2, 3) for v in (4, 5)}
    g = Graph(directed=True, n=5, edges=frozenset(edges))
    out = dag_compress_greedy(g)
    assert validate(out) == []
    assert decompress(out) == g
    assert out.size() == k + d
    assert out.size() < g.m


def test_greedy_rook_has_no_twins_to_use():
    graph = rook_graph(RookSpec(g=3))
    assert twins(graph) == set()
    out = dag_compress_greedy(graph)
    assert out.size() == graph.m
    assert decompress(out) == graph


def _twin_class(g, v):
    return {v} | {w for p in twins(g) if v in p for w in p}


def test_greedy_never_exceeds_direct():
    for seed in range(120):
        g = random_graph(2 + seed % 7, 0.45, seed=seed, directed=bool(seed % 2))
        out = dag_compress_greedy(g)
        assert validate(out) == []
        assert decompress(out) == g
        assert out.size() <= g.m
        for c in range(out.n_sinks + 1, out.n_vertices + 1):  # clusters are g's own classes
            children = {v for u, v in out.arcs if u == c}
            assert children == _twin_class(g, min(children))


def test_greedy_contracts_the_first_of_two_tied_classes():
    # 1..4 (out-set {5, 6}) and 5, 6 (in-set 1..4) are g's two twin classes,
    # each saving 2. The first is contracted: 4 arcs and 2 edges. Then {5, 6}
    # has the one in-neighbor 7 and saves nothing.
    g = Graph(directed=True, n=6, edges=[(u, v) for u in (1, 2, 3, 4) for v in (5, 6)])
    out = dag_compress_greedy(g)
    assert decompress(out) == g
    assert out.arcs == {(7, 1), (7, 2), (7, 3), (7, 4)}
    assert out.cedges == {(7, 5), (7, 6)}
    assert out.size() == 6


def test_greedy_counts_an_undirected_neighborhood_once():
    # {1, 2, 3} (neighbors {4}) would save 2 * 1 - 3 = -1, and after one of the
    # two K_{4,3} shores is contracted (saving 3 * 3 - 4 or 2 * 4 - 3 = 5), the
    # other one would save -1 too. Counting the one undirected neighborhood as
    # both an in- and an out-set made all three look positive: size 12.
    edges = [(1, 4), (2, 4), (3, 4)] + [(a, b) for a in (5, 6, 7, 8) for b in (9, 10, 11)]
    g = Graph(False, 11, edges)
    out = dag_compress_greedy(g)
    assert decompress(out) == g
    assert out.size() == 10
    assert out.arcs == {(12, 5), (12, 6), (12, 7), (12, 8)}


@pytest.mark.parametrize("directed", [True, False])
def test_greedy_saving_is_the_size_drop(directed):
    # Contract every twin class of the pinned greedy cases, in a seeded order:
    # each predicted saving, positive or not, is the drop of the size that
    # DagCompression measures after merging the mapped edges. Undirected
    # random graphs have no loops, so triple blow-ups of looped ones add
    # classes that lie inside their own neighborhood.
    cases = list(_greedy_cases(directed))
    for seed in range(10):
        base = random_graph(2 + seed % 5, 0.5, seed=seed, directed=directed)
        looped = list(base.edges) + [(v, v) for v in range(1, base.n + 1, 2)]
        cases.append(Graph(directed, 3 * base.n, [(3 * u - i, 3 * v - j) for u, v in looped
                                                  for i in range(3) for j in range(3)]))
    rng = random.Random(7)
    for g in cases:
        classes = [(nbs, frozenset(k)) for nbs, k in _twin_classes(g).items() if len(k) > 1]
        rng.shuffle(classes)
        unit, arcs, n_clusters = list(range(g.n + 1)), [], 0

        def size():
            units = np.array(unit)
            return DagCompression(directed, g.n, n_clusters, arcs,
                                  np.column_stack((units[g.u], units[g.v]))).size()

        before = size()
        for nbs, k in classes:
            predicted = _saving(directed, nbs, k, unit)
            n_clusters += 1
            for v in k:
                unit[v] = g.n + n_clusters
                arcs.append((g.n + n_clusters, v))
            after = size()
            assert before - after == predicted, (g, sorted(k))
            before = after


def test_greedy_not_below_oracle_minimum():
    for seed in range(200):
        g = random_graph(4, 0.4, seed=seed, directed=True)
        assert dag_compress_greedy(g).size() >= min_dag_size(g)[0]


def test_gap_experiment_small():
    records = gap_experiment([1, 2, 4], merge_policy="balanced")
    assert [r.g for r in records] == [1, 2, 4]
    for r in records:
        assert r.dag_size == 2 * r.g * r.g + 2 * r.g
        assert r.tree_size >= 1
    csv_text = gap_report_csv(records)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "g,n,dag_size,tree_size,tree_cedges,ratio,seconds"
    assert len(lines) == 4


def _no_graph(spec):
    raise AssertionError("gap built a graph it refuses")


def test_gap_refuses_before_building(monkeypatch, capsys, tmp_path):
    # g=3 is 9 vertices: 2 (2 * 9)^2 + 8 * 9^2 = 1296 bytes of matrices
    monkeypatch.setattr(heuristics, "MAX_TREE_MATRIX_BYTES", 1295)
    monkeypatch.setattr(heuristics, "rook_graph", _no_graph)
    message = "tree compression of 9 vertices needs 1296 bytes of matrices, above the limit of 1295"
    with pytest.raises(ValueError, match=f"^{message}$"):
        gap_experiment([2, 3])
    out = tmp_path / "gap.csv"
    assert main(["gap", "--g", "2,3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_theorem_bound_vacuous_small_g():
    # the cubic lower bound only bites for g >= 32; small g just sanity-check
    for g_side in (2, 4, 8):
        graph = rook_graph(RookSpec(g=g_side))
        t = tree_compress(graph, merge_policy="balanced")
        bound = g_side ** 3 // 32 - g_side ** 2
        assert len(t.cedges) >= max(bound, 0)


def _reference_greedy_pairs(scores):
    # The sorted-all-pairs greedy that mutual-best rounds must reproduce.
    size = len(scores)
    iu, ju = np.triu_indices(size, k=1)
    order = np.lexsort((ju, iu, -scores[iu, ju]))
    paired = np.zeros(size, dtype=bool)
    out = []
    for idx in order:
        a, b = int(iu[idx]), int(ju[idx])
        if paired[a] or paired[b]:
            continue
        paired[a] = paired[b] = True
        out.append((a, b))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_mutual_best_pairing_equals_sorted_greedy(size, seed):
    # symmetric scores 0..2, so most rows tie at their maximum
    upper = np.triu(np.random.default_rng(seed).integers(0, 3, (size, size)))
    scores = upper + np.triu(upper, 1).T
    for dtype in (np.float32, np.int16):  # int16 is what _merge_tree passes
        a, b = _greedy_pairs(scores.astype(dtype))
        assert list(zip(a.tolist(), b.tolist())) == _reference_greedy_pairs(scores)


@pytest.mark.parametrize("tile, rows, cols", [(576, 1, 40), (576, 600, 150), (7, 22, 40),
                                              (7, 7, 3), (7, 1, 9)])
def test_tiled_overlaps_are_exact(monkeypatch, tile, rows, cols):
    monkeypatch.setattr(heuristics, "_TILE", tile)
    sig = np.random.default_rng(rows * cols).random((rows, cols)) < 0.4
    got = _overlaps(sig)
    assert got.dtype == np.int16
    assert np.array_equal(got, sig.astype(np.int64) @ sig.T.astype(np.int64))


def _pinned_cases(family, directed):
    if family == "rook":
        for g_side in range(2, 13):
            g = rook_graph(RookSpec(g=g_side))
            yield g if directed else Graph(directed=False, n=g.n, edges=g.edges)
    else:
        for seed in range(40):
            yield random_graph(2 + seed % 23, (0.2, 0.5, 0.8)[seed % 3], seed=seed,
                               directed=directed)


# sha256 over the concatenated write_compression texts of each case family,
# taken from the sorted-all-pairs implementation.
TREE_DIGESTS = {
    ("rook", "similarity", True): "2946243b18f8d8581c866d1c416745e65dd067f25728c828812350b2f3fbe248",
    ("rook", "similarity", False): "8b4bc812c330ce06abce13b87b9dea7371c856dc86334cd6a93203375ebe6cb4",
    ("rook", "balanced", True): "be49457d72b79401371d4cac506922baaa0e251ce326afde75117bed9a56cef6",
    ("rook", "balanced", False): "03836f3ce7396056787d9750e96dea224b5f8239e07bf25ccae3d281ff2ebe85",
    ("random", "similarity", True): "3c1746b220685b480d92e7e3a8a1168e4cdbd3f13d01e08623dc234281fef76e",
    ("random", "similarity", False): "3c4272549f8382a3d971dfb05c9a878c62b47858f09ebe1f7bfa55a4b7206e6d",
    ("random", "balanced", True): "26d15831187af6d463e5d0964904e43264f6c95cd036cf8423146f379db847c2",
    ("random", "balanced", False): "46303803bad4cbdd05b9cf0626fb817bc0b20a5b0f39f58190ef1f58193e950c",
}


def _tree_digest(family, policy, directed):
    h = hashlib.sha256()
    for g in _pinned_cases(family, directed):
        h.update(write_compression(tree_compress(g, merge_policy=policy)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("family, policy, directed", sorted(TREE_DIGESTS))
def test_tree_output_pinned(family, policy, directed):
    assert _tree_digest(family, policy, directed) == TREE_DIGESTS[(family, policy, directed)]


@pytest.mark.parametrize("family, policy, directed", sorted(TREE_DIGESTS))
def test_tree_output_pinned_in_tiny_blocks(monkeypatch, family, policy, directed):
    # 3-row overlap tiles and 5-row maximality blocks put block edges everywhere
    monkeypatch.setattr(heuristics, "_TILE", 3)
    monkeypatch.setattr(heuristics, "_ROW_BLOCK", 5)
    assert _tree_digest(family, policy, directed) == TREE_DIGESTS[(family, policy, directed)]


@pytest.mark.parametrize("policy, bound", [("similarity", 7), ("balanced", 5)])
def test_tree_working_memory(policy, bound):
    # Traced peak in bytes per n^2 on rook g=48: the bool signatures and int16
    # scores are 3 n^2 plus the float32 tile buffers, the bool sink columns
    # and the packed admissibility rows 2.5 n^2. An n^2 float32 score matrix
    # or a (2n)^2 bool admissibility matrix would add 4 n^2 (a version with
    # both peaks at 10.3 and 6.0 n^2).
    graph = rook_graph(RookSpec(g=48))
    tracemalloc.start()
    try:
        tree_compress(graph, merge_policy=policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * graph.n ** 2


def _greedy_cases(directed):
    for g_side in range(2, 9):
        g = rook_graph(RookSpec(g=g_side))
        yield g if directed else Graph(directed=False, n=g.n, edges=g.edges)
    for seed in range(30):
        g = random_graph(2 + seed % 13, (0.2, 0.5, 0.8)[seed % 3], seed=seed, directed=directed)
        yield g
        # blow every vertex up into 1-3 twins, so classes form and contract
        rng = random.Random(seed)
        copies, top = {}, 0
        for v in range(1, g.n + 1):
            k = rng.randint(1, 3)
            copies[v] = range(top + 1, top + k + 1)
            top += k
        yield Graph(directed=directed, n=top,
                    edges=[(a, b) for u, v in g.edges for a in copies[u] for b in copies[v]])
    yield Graph(directed=directed, n=0, edges=[])
    yield Graph(directed=directed, n=4, edges=[])


# sha256 over the concatenated write_compression texts of dag_compress_greedy
# on each orientation's cases, taken before the compressor read the columns.
# The undirected one was taken again once the saving stopped counting an
# undirected class's one neighborhood twice: 14 of its 69 cases changed, 4 of
# them to a smaller size (6 fewer in all) and none to a larger one.
GREEDY_DIGEST = {
    True: "0b3a1ab75ff205b21a838b95331a4727c89cbeeba198c6edc20f9cc95e4752e2",
    False: "9c45f930a9719fe177eba3d94f6aa444b9d87ad6d336fd99e92adb9ef863656c",
}


@pytest.mark.parametrize("directed", [True, False])
def test_greedy_output_pinned(directed):
    h = hashlib.sha256()
    for g in _greedy_cases(directed):
        h.update(write_compression(dag_compress_greedy(g)).encode())
    assert h.hexdigest() == GREEDY_DIGEST[directed]


@st.composite
def small_graphs(draw):
    directed = draw(st.booleans())
    n = draw(st.integers(1, 7))
    ids = st.integers(1, n)
    return Graph(directed=directed, n=n, edges=draw(st.lists(st.tuples(ids, ids), max_size=30)))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_compressors_round_trip(g):
    for d in (tree_compress(g), tree_compress(g, merge_policy="balanced"), dag_compress_greedy(g)):
        assert validate(d) == []
        assert decompress(d) == g


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_twin_classes_meet_themselves_all_or_nothing(g):
    # A member u with an edge u -> w into its class K lies in in(w), which is
    # in(v) for every member v: so K lies inside out(u), and likewise for in(u).
    for v in range(1, g.n + 1):
        k = _twin_class(g, v)
        out = {w for w in range(1, g.n + 1) if g.has_edge(v, w)}
        inn = {w for w in range(1, g.n + 1) if g.has_edge(w, v)}
        assert out & k in (set(), k)
        assert inn & k in (set(), k)


def test_tree_size_guard_is_exact(monkeypatch):
    # 5 vertices: two 10x10 bool matrices and two 5x5 float32 ones, 400 bytes
    g = random_graph(5, 0.5, seed=3, directed=True)
    monkeypatch.setattr(heuristics, "MAX_TREE_MATRIX_BYTES", 399)
    with pytest.raises(ValueError, match="5 vertices needs 400 bytes of matrices, above the limit of 399"):
        tree_compress(g)
    monkeypatch.setattr(heuristics, "MAX_TREE_MATRIX_BYTES", 400)
    assert decompress(tree_compress(g)) == g


def test_tree_size_guard_on_the_command_line(monkeypatch, capsys, tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(write_graph(random_graph(5, 0.5, seed=3, directed=True)))
    monkeypatch.setattr(heuristics, "MAX_TREE_MATRIX_BYTES", 399)
    assert main(["compress", str(path), "--strategy", "tree", "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: tree compression of 5 vertices needs 400 bytes of matrices, above the limit of 399\n")
    assert not (tmp_path / "out").exists()
