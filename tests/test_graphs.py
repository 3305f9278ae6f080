import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from dagzip import (
    DagCompression,
    Graph,
    GraphFormatError,
    ShorePartition,
    decompress,
    kruskal_baseline,
    random_graph,
    read_compression,
    read_graph,
    read_shores,
    rook_canonical_compression,
    rook_graph,
    rook_mst_compression,
    shore_normalize,
    twins,
    write_compression,
    write_graph,
    write_shores,
)
from dagzip.generators import RookSpec


def test_directed_graph_basics():
    g = Graph(directed=True, n=3, edges=frozenset({(1, 2), (2, 2)}))
    assert g.has_edge(1, 2)
    assert not g.has_edge(2, 1)
    assert g.has_edge(2, 2)


def test_undirected_edges_canonicalized():
    g = Graph(directed=False, n=3, edges=frozenset({(3, 1), (2, 3)}))
    assert g.edges == frozenset({(1, 3), (2, 3)})
    assert g.has_edge(3, 1)


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph(directed=True, n=2, edges=frozenset({(1, 3)}))


def test_twins_by_construction():
    # two sources sharing one out-neighbor: a twin pair
    g = Graph(directed=True, n=3, edges=frozenset({(1, 3), (2, 3)}))
    assert twins(g) == {frozenset({1, 2})}


def test_twins_edgeless_graph():
    g = Graph(directed=True, n=3, edges=frozenset())
    assert twins(g) == {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}


def test_twins_rook_2x2_empty():
    g = rook_graph(RookSpec(g=2, d=2))
    assert twins(g) == set()


def test_twins_transitively_closed():
    g = Graph(directed=True, n=4, edges=frozenset({(1, 4), (2, 4), (3, 4)}))
    assert twins(g) == {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}


def test_twins_literal_mutual_edge():
    # mutual edge without loops: in-neighborhoods differ, so not twins
    g = Graph(directed=True, n=2, edges=frozenset({(1, 2), (2, 1)}))
    assert twins(g) == set()


def test_read_graph_simple_directed():
    g = read_graph("graph directed 2 1\ne 1 2\n")
    assert g == Graph(directed=True, n=2, edges=frozenset({(1, 2)}))


def test_graph_roundtrip_rook3():
    text = write_graph(rook_graph(RookSpec(g=3)))
    assert write_graph(read_graph(text)) == text


def test_graph_roundtrip_structural():
    rng = random.Random(3)
    for seed in range(25):
        g = random_graph(1 + seed % 6, rng.random(), seed=seed, directed=bool(seed % 2))
        assert read_graph(write_graph(g)) == g


def test_weighted_roundtrip():
    wg = Graph(directed=False, n=3, edges=frozenset({(1, 2), (2, 3)}),
               weights={(1, 2): 4, (2, 3): 0})
    assert read_graph(write_graph(wg)) == wg


def test_read_graph_endpoint_out_of_range():
    with pytest.raises(GraphFormatError):
        read_graph("graph directed 2 1\ne 1 3\n")


def test_read_graph_duplicate_edge():
    with pytest.raises(GraphFormatError):
        read_graph("graph undirected 2 2\ne 1 2\ne 2 1\n")


def test_read_graph_malformed_header():
    with pytest.raises(GraphFormatError):
        read_graph("digraph 2 1\ne 1 2\n")


def test_read_graph_weight_on_unweighted():
    with pytest.raises(GraphFormatError):
        read_graph("graph directed 2 1\ne 1 2 5\n")


def test_read_graph_missing_weight():
    with pytest.raises(GraphFormatError):
        read_graph("graph undirected 2 1 weighted\ne 1 2\n")


def test_read_graph_count_mismatch():
    with pytest.raises(GraphFormatError):
        read_graph("graph directed 3 2\ne 1 2\n")


def test_comments_ignored():
    g = read_graph("# a comment\ngraph directed 2 1\n# another\ne 1 2\n")
    assert g.m == 1


def test_shore_partition_checks():
    # shore_normalize checks the shores on the direct compression of a graph
    shores = ShorePartition(shore1=frozenset({1, 2}), shore2=frozenset({3}))
    good = DagCompression(directed=True, n_sinks=3, n_clusters=0, arcs=[], cedges=[(1, 3), (2, 3)])
    assert shore_normalize(good, shores) == good
    bad = DagCompression(directed=True, n_sinks=3, n_clusters=0, arcs=[], cedges=[(3, 1)])
    with pytest.raises(ValueError, match=r"compression edge \(3,1\) does not go from shore1 to shore2"):
        shore_normalize(bad, shores)
    with pytest.raises(ValueError, match="shores must partition the vertex set"):
        shore_normalize(good, ShorePartition(shore1=frozenset({1}), shore2=frozenset({3})))
    with pytest.raises(ValueError):
        ShorePartition(shore1=frozenset({1}), shore2=frozenset({1, 2}))


def test_shores_roundtrip():
    shores = ShorePartition(shore1=frozenset({4, 5}), shore2=frozenset({1, 2, 3}))
    assert read_shores(write_shores(shores)) == shores


def test_graph_attributes_cannot_be_rebound():
    g = Graph(directed=False, n=3, edges=[(2, 1), (3, 2), (1, 2)])
    wg = Graph(directed=False, n=3, edges=g.edges, weights={(2, 1): 4, (2, 3): 0})
    for obj, names in ((g, ("directed", "n", "u", "edges")), (wg, ("w", "weights"))):
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
    for column in (g.u, g.v, wg.w):
        with pytest.raises(ValueError):
            column[0] = 3
    with pytest.raises(TypeError):
        wg.weights[(1, 2)] = 5
    assert (g.u.tolist(), g.v.tolist(), wg.w.tolist()) == ([1, 2], [2, 3], [4, 0])
    assert g.w is None and g.weights is None and not g.weighted and wg.weighted


def test_weighted_graph_constructor_checks():
    edges = [(1, 2), (2, 3)]
    with pytest.raises(ValueError, match="cover exactly"):
        Graph(directed=False, n=3, edges=edges, weights={(1, 2): 1})
    with pytest.raises(ValueError, match="cover exactly"):
        Graph(directed=False, n=3, edges=edges, weights={(1, 2): 1, (2, 3): 1, (1, 3): 1})
    with pytest.raises(ValueError, match=r"negative weight on \(2, 3\)"):
        Graph(directed=False, n=3, edges=edges, weights={(1, 2): 1, (3, 2): -1})
    with pytest.raises(ValueError, match="undirected"):
        Graph(directed=True, n=2, edges=[(1, 2)], weights={(1, 2): 1})
    with pytest.raises(ValueError, match="does not fit in int64"):
        Graph(directed=False, n=3, edges=edges, weights={(1, 2): 1, (2, 3): 2 ** 63})
    with pytest.raises(ValueError, match=r"edge \(1,4\) out of range 1..3"):
        Graph(directed=True, n=3, edges=[(1, 2), (1, 4)])


def test_graph_constructor_refusals():
    with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
        Graph(directed=True, n=-1, edges=[])
    with pytest.raises(ValueError, match=r"^expected \(u, v\) pairs, got shape \(1, 3\)$"):
        Graph(directed=True, n=3, edges=[(1, 2, 3)])
    with pytest.raises(ValueError, match=r"^edge out of range 1\.\.3$"):  # 2^64 overflows int64
        Graph(directed=True, n=3, edges=[(1, 2 ** 64)])


def test_non_integer_weights_are_refused():
    """A float weight is an error, not truncated; numpy integers are integers."""
    for x in (1.7, 2.0, np.float64(3.0), "4", None):
        with pytest.raises(ValueError, match="non-integer weight"):
            Graph(directed=False, n=2, edges=[(1, 2)], weights={(1, 2): x})
        with pytest.raises(ValueError, match=r"non-integer weight .* on \(1, 2\)"):
            DagCompression(False, 2, 0, [], [(1, 2)], {(2, 1): x})
    g = Graph(directed=False, n=2, edges=[(1, 2)], weights={(1, 2): np.int32(5)})
    d = DagCompression(False, 2, 0, [], [(1, 2)], {(1, 2): np.uint8(5)})
    assert g.w.tolist() == d.cedge_w.tolist() == [5]
    assert write_compression(d).endswith("c 1 2 5\n")


def test_conflicting_weight_keys_are_refused():
    """Two keys that name one undirected pair must agree; equal repeats merge."""
    with pytest.raises(ValueError, match=r"conflicting weights 1 and 5 on \(1, 2\)"):
        Graph(directed=False, n=2, edges=[(1, 2)], weights={(1, 2): 1, (2, 1): 5})
    with pytest.raises(ValueError, match=r"conflicting weights 1 and 5 on \(1, 2\)"):
        DagCompression(False, 2, 0, [], [(1, 2)], {(1, 2): 1, (2, 1): 5})
    g = Graph(directed=False, n=2, edges=[(1, 2)], weights={(1, 2): 5, (2, 1): 5})
    d = DagCompression(False, 2, 0, [], [(1, 2)], {(1, 2): 5, (2, 1): 5})
    assert g.w.tolist() == d.cedge_w.tolist() == [5]


def test_graph_equality_sees_weights():
    edges = [(1, 2), (2, 3)]
    plain = Graph(directed=False, n=3, edges=edges)
    weighted = Graph(directed=False, n=3, edges=edges, weights={(1, 2): 1, (2, 3): 2})
    assert plain != weighted and weighted != plain
    assert weighted == Graph(directed=False, n=3, edges=edges, weights={(2, 1): 1, (3, 2): 2})
    assert weighted != Graph(directed=False, n=3, edges=edges, weights={(1, 2): 1, (2, 3): 3})
    assert Graph(directed=False, n=2, edges=[], weights={}) != Graph(directed=False, n=2, edges=[])
    assert plain != Graph(directed=True, n=3, edges=edges)


@pytest.mark.parametrize("d", [
    rook_mst_compression(6, max_weight=9, seed=3),
    rook_canonical_compression(RookSpec(g=5)),
], ids=["weighted", "directed"])
def test_graph_path_stays_on_the_arrays(d):
    """decompress, write_graph, read_graph and kruskal_baseline never build the
    tuple views and hand back Python ints only."""
    g = decompress(read_compression(write_compression(d)))
    text = write_graph(g)
    back = read_graph(text)
    assert write_graph(back) == text and back == g
    if d.weighted:
        res = kruskal_baseline(back)
        values = [x for e in res.edges for x in e] + [res.total_weight, res.stats.add_edge_calls]
        assert len(values) > 3 and all(type(x) is int for x in values)
    for x in (g, back):
        assert "edges" not in vars(x) and "weights" not in vars(x)
