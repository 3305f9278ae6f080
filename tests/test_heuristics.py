import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagzip import (
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
)
from dagzip.heuristics import _greedy_pairs


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


def test_greedy_never_exceeds_direct():
    for seed in range(120):
        g = random_graph(2 + seed % 7, 0.45, seed=seed, directed=bool(seed % 2))
        out = dag_compress_greedy(g)
        assert validate(out) == []
        assert decompress(out) == g
        assert out.size() <= g.m


def test_greedy_nested_contraction():
    # two twin groups that become twins of each other after one round
    edges = set()
    for u in (1, 2):
        for v in (5, 6):
            edges.add((u, v))
    for u in (3, 4):
        for v in (5, 6):
            edges.add((u, v))
    g = Graph(directed=True, n=6, edges=frozenset(edges))
    out = dag_compress_greedy(g)
    assert decompress(out) == g
    assert out.size() <= 1 + 4 + 2  # one 4-way class + targets is enough


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
    a, b = _greedy_pairs(scores.astype(np.float32))
    assert list(zip(a.tolist(), b.tolist())) == _reference_greedy_pairs(scores)


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


@pytest.mark.parametrize("family, policy, directed", sorted(TREE_DIGESTS))
def test_tree_output_pinned(family, policy, directed):
    h = hashlib.sha256()
    for g in _pinned_cases(family, directed):
        h.update(write_compression(tree_compress(g, merge_policy=policy)).encode())
    assert h.hexdigest() == TREE_DIGESTS[(family, policy, directed)]
