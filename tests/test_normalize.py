import hashlib
import random
from itertools import combinations

import pytest

from dagzip import (
    DagCompression,
    Graph,
    ShorePartition,
    clusters,
    dag_compress_greedy,
    decompress,
    shore_normalize,
    tree_compress,
    twin_normalize,
    twin_single_edge,
    twinned_incidence,
    twins,
    validate,
    write_compression,
    write_shores,
)
from dagzip.cli import main


def random_family(rng, max_universe=5):
    n = rng.randint(2, max_universe)
    universe = list(range(1, n + 1))
    sets = {frozenset(rng.sample(universe, rng.randint(1, n)))
            for _ in range(rng.randint(1, 4))}
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s)))), n


def random_twinned_compression(rng, max_universe=5):
    """A valid, usually messy compression of a random twinned incidence graph.

    Per twin (independently, so twins usually end up asymmetric): either
    direct edges, or the set split in two blocks behind fresh clusters.
    Occasionally both twins are parked behind a shared source-side cluster to
    exercise the shore switch.
    """
    sets, n = random_family(rng)
    tg = twinned_incidence(sets, n)
    n_sinks = tg.graph.n
    arcs = set()
    cedges = set()
    next_id = n_sinks

    def new_cluster(children):
        nonlocal next_id
        next_id += 1
        for c in children:
            arcs.add((next_id, c))
        return next_id

    def split_blocks(members):
        if len(members) >= 2 and rng.random() < 0.6:
            cut = rng.randint(1, len(members) - 1)
            return [members[:cut], members[cut:]]
        return [[m] for m in members]

    def block_target(block):
        return block[0] if len(block) == 1 else new_cluster(block)

    for i, s in enumerate(sets):
        members = sorted(s)
        t1, t2 = tg.a_vertex(i), tg.b_vertex(i)
        if rng.random() < 0.3:
            # one split shared by both twins; the first block sits behind a
            # source-side cluster over {t1, t2}, the rest is per-twin direct
            blocks = split_blocks(members)
            shared = new_cluster([t1, t2])
            cedges.add((shared, block_target(blocks[0])))
            for block in blocks[1:]:
                tt = block_target(block)
                cedges.add((t1, tt))
                cedges.add((t2, tt))
        else:
            for t in (t1, t2):
                for block in split_blocks(members):
                    cedges.add((t, block_target(block)))
    d = DagCompression(directed=True, n_sinks=n_sinks, n_clusters=next_id - n_sinks,
                       arcs=frozenset(arcs), cedges=frozenset(cedges))
    return d, tg, sets


def twin_pairs_of(tg, sets):
    return [(tg.a_vertex(i), tg.b_vertex(i)) for i in range(len(sets))]


def test_twin_normalize_fixpoint():
    sets = (frozenset({1, 2}),)
    tg = twinned_incidence(sets, 2)
    d = DagCompression(directed=True, n_sinks=4, n_clusters=0,
                       arcs=frozenset(), cedges=tg.graph.edges)
    out = twin_normalize(d, twin_pairs_of(tg, sets))
    assert out == d


def test_twin_normalize_mirrors_smaller_degree():
    # a uses one cluster edge (degree 1), b uses two direct edges (degree 2):
    # b gets a's shape, dropping the size by one
    sets = (frozenset({1, 2}),)
    tg = twinned_incidence(sets, 2)
    a, b = tg.a_vertex(0), tg.b_vertex(0)
    c = tg.graph.n + 1
    d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=1,
                       arcs=frozenset({(c, 1), (c, 2)}),
                       cedges=frozenset({(a, c), (b, 1), (b, 2)}))
    assert decompress(d) == tg.graph
    out = twin_normalize(d, [(a, b)])
    assert out.size() == d.size() - 1
    assert out.cedges == frozenset({(a, c), (b, c)})
    assert decompress(out) == tg.graph


def test_twin_normalize_requires_sinks():
    sets = (frozenset({1}),)
    tg = twinned_incidence(sets, 1)
    d = DagCompression(directed=True, n_sinks=3, n_clusters=0,
                       arcs=frozenset(), cedges=tg.graph.edges)
    with pytest.raises(ValueError):
        twin_normalize(d, [(2, 4)])


@pytest.mark.parametrize("normalize", [twin_normalize, twin_single_edge])
@pytest.mark.parametrize("pair", [frozenset({3}), (3, 4, 1), (3, 3), (0, 3)])
def test_twin_passes_refuse_pairs_that_are_not_two_distinct_sinks(normalize, pair):
    d = DagCompression(directed=True, n_sinks=4, n_clusters=0, arcs=[], cedges=[(3, 1), (4, 1)])
    with pytest.raises(ValueError, match=r"^twin pair \(.*\) must be two distinct sinks$"):
        normalize(d, [pair])


def test_shore_normalize_identity_when_one_shored():
    sets = (frozenset({1, 2}), frozenset({2}))
    tg = twinned_incidence(sets, 2)
    fam_d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=0,
                           arcs=frozenset(), cedges=tg.graph.edges)
    out = shore_normalize(fam_d, tg.shores)
    assert out == fam_d


def test_shore_normalize_switches_source_cluster():
    # cluster z over the twins {a, b} with one compression edge into shore 2
    sets = (frozenset({1, 2}),)
    tg = twinned_incidence(sets, 2)
    a, b = tg.a_vertex(0), tg.b_vertex(0)
    z = tg.graph.n + 1
    c2 = tg.graph.n + 2
    d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=2,
                       arcs=frozenset({(z, a), (z, b), (c2, 1), (c2, 2)}),
                       cedges=frozenset({(z, c2)}))
    assert decompress(d) == tg.graph
    out = shore_normalize(d, tg.shores)
    assert validate(out) == []
    assert decompress(out) == tg.graph
    assert out.size() == d.size()
    table = clusters(out)
    for v in range(out.n_sinks + 1, out.n_vertices + 1):
        assert table.cluster[v] <= tg.shores.shore2


def test_shore_normalize_drops_useless_mixed_vertex():
    sets = (frozenset({1}),)
    tg = twinned_incidence(sets, 1)
    a, b = 2, 3
    mixed = tg.graph.n + 1  # reaches both shores, no compression edge
    d = DagCompression(directed=True, n_sinks=3, n_clusters=1,
                       arcs=frozenset({(mixed, a), (mixed, 1)}),
                       cedges=tg.graph.edges)
    out = shore_normalize(d, tg.shores)
    assert out.n_clusters == 0
    assert out.size() == d.size() - 2
    assert decompress(out) == tg.graph


def test_shore_normalize_rejects_non_bipartite():
    d = DagCompression(directed=True, n_sinks=2, n_clusters=0,
                       arcs=frozenset(), cedges=frozenset({(1, 2), (2, 1)}))
    shores = ShorePartition(shore1=frozenset({1}), shore2=frozenset({2}))
    with pytest.raises(ValueError):
        shore_normalize(d, shores)
    # cluster 4 over {1, 2} reaches both shores, so (1, 4) encodes the edge 1 -> 1
    d = DagCompression(directed=True, n_sinks=3, n_clusters=1,
                       arcs=frozenset({(4, 1), (4, 2)}), cedges=frozenset({(1, 4)}))
    shores = ShorePartition(shore1=frozenset({1}), shore2=frozenset({2, 3}))
    with pytest.raises(ValueError, match=r"compression edge \(1,4\) does not go"):
        shore_normalize(d, shores)


def test_twin_single_edge_identity_for_single_target():
    sets = (frozenset({1, 2}),)
    tg = twinned_incidence(sets, 2)
    a, b = tg.a_vertex(0), tg.b_vertex(0)
    c = tg.graph.n + 1
    d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=1,
                       arcs=frozenset({(c, 1), (c, 2)}),
                       cedges=frozenset({(a, c), (b, c)}))
    out = twin_single_edge(d, [(a, b)])
    assert out == d


def test_twin_single_edge_bundles_pairs():
    # both twins with direct edges to two elements -> one fresh cluster
    sets = (frozenset({1, 2}),)
    tg = twinned_incidence(sets, 2)
    a, b = tg.a_vertex(0), tg.b_vertex(0)
    d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=0,
                       arcs=frozenset(), cedges=tg.graph.edges)
    out = twin_single_edge(d, [(a, b)])
    assert out.size() == d.size()
    assert out.n_clusters == 1
    c = out.n_sinks + 1
    assert out.cedges == frozenset({(a, c), (b, c)})
    assert out.arcs == frozenset({(c, 1), (c, 2)})
    assert decompress(out) == tg.graph


def test_twin_single_edge_requires_symmetry():
    sets = (frozenset({1, 2}),)
    tg = twinned_incidence(sets, 2)
    a, b = tg.a_vertex(0), tg.b_vertex(0)
    c = tg.graph.n + 1
    d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=1,
                       arcs=frozenset({(c, 1), (c, 2)}),
                       cedges=frozenset({(a, c), (b, 1), (b, 2)}))
    with pytest.raises(ValueError):
        twin_single_edge(d, [(a, b)])


@pytest.mark.parametrize("extra", ["arc", "edge"])
def test_twin_single_edge_requires_twins_without_parents_or_in_edges(extra):
    sets = (frozenset({1, 2}),)
    tg = twinned_incidence(sets, 2)
    a, b = tg.a_vertex(0), tg.b_vertex(0)
    c = tg.graph.n + 1
    arcs = {(c, a)} if extra == "arc" else set()
    cedges = set(tg.graph.edges) | ({(c, c)} if extra == "arc" else {(1, a)})
    d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=len(arcs),
                       arcs=arcs, cedges=cedges)
    assert validate(d) == []
    with pytest.raises(ValueError) as exc:
        twin_single_edge(d, [(a, b)])
    assert str(exc.value) == f"twin {a} has a parent arc or an in-edge; run shore_normalize first"


def test_pipeline_on_random_twinned_compressions():
    rng = random.Random(31)
    done = 0
    while done < 100:
        d, tg, sets = random_twinned_compression(rng)
        assert decompress(d) == tg.graph
        pairs = twin_pairs_of(tg, sets)
        d1 = twin_normalize(d, pairs)
        assert decompress(d1) == tg.graph
        assert d1.size() <= d.size()
        d2 = shore_normalize(d1, tg.shores)
        assert decompress(d2) == tg.graph
        assert d2.size() <= d1.size()
        d3 = twin_single_edge(d2, pairs)
        assert decompress(d3) == tg.graph
        assert d3.size() == d2.size()
        assert validate(d3) == []
        # pipeline postconditions
        table = clusters(d3)
        for v in range(d3.n_sinks + 1, d3.n_vertices + 1):
            assert table.cluster[v] <= tg.shores.shore2
        for (a, b) in pairs:
            for t in (a, b):
                assert sum(1 for (u, _) in d3.cedges if u == t) <= 1
        # idempotence
        assert twin_normalize(d1, pairs) == d1
        assert shore_normalize(d2, tg.shores) == d2
        assert twin_single_edge(d3, pairs) == d3
        done += 1


def test_pipeline_reaches_per_set_clusters():
    # after the pipeline, each set's twin points at a cluster equal to the set
    rng = random.Random(8)
    done = 0
    while done < 30:
        sets, n = random_family(rng, max_universe=4)
        tg = twinned_incidence(sets, n)
        d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=0,
                           arcs=frozenset(), cedges=tg.graph.edges)
        pairs = twin_pairs_of(tg, sets)
        d3 = twin_single_edge(shore_normalize(twin_normalize(d, pairs), tg.shores), pairs)
        table = clusters(d3)
        for i, s in enumerate(sets):
            targets = [v for (u, v) in d3.cedges if u == tg.a_vertex(i)]
            assert len(targets) == 1
            assert table.cluster[targets[0]] == s
        done += 1


# sha256 of each pass's write_compression texts on a seeded sample, taken
# while shore_normalize still decompressed and built the cluster sets.
NORMALIZE_DIGESTS = {
    "twins": "670b0d3463e92f290015cd6359574b7186936f28aa4bef59161359e6c8c73c38",
    "shore": "a667a176729e93ccc54ecbfbe80ab97239c01055da6e2ee2b7ff5e7fead1e5d3",
    "single-edge": "b088396957f42c7d642f11691280043e43391398e65a4dd7c6ce8cc4bbc7e54a",
}


def test_normalize_outputs_pinned():
    rng = random.Random(2026)
    texts = {name: [] for name in NORMALIZE_DIGESTS}
    for _ in range(200):
        d, tg, sets = random_twinned_compression(rng)
        pairs = twin_pairs_of(tg, sets)
        d1 = twin_normalize(d, pairs)
        d2 = shore_normalize(d1, tg.shores)
        texts["twins"].append(write_compression(d1))
        texts["shore"] += [write_compression(shore_normalize(d, tg.shores)), write_compression(d2)]
        texts["single-edge"].append(write_compression(twin_single_edge(d2, pairs)))
    digests = {name: hashlib.sha256("".join(t).encode()).hexdigest() for name, t in texts.items()}
    assert digests == NORMALIZE_DIGESTS


def test_shore_normalize_never_expands(monkeypatch):
    """The shore pass reads the compression, so no expansion limit applies to it."""
    monkeypatch.setattr("dagzip.compression.MAX_EXPANDED_PAIRS", 2)
    sets = (frozenset({1, 2}), frozenset({2}))
    tg = twinned_incidence(sets, 2)
    d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=0,
                       arcs=frozenset(), cedges=tg.graph.edges)
    assert shore_normalize(d, tg.shores) == d
    with pytest.raises(ValueError, match="above the limit of 2"):
        decompress(d)


def test_shore_normalize_refuses_undirected():
    # an undirected edge {1, 2} has no direction to check against the shores
    d = DagCompression(directed=False, n_sinks=2, n_clusters=0, arcs=[], cedges=[(1, 2)])
    for shore1 in ({1}, {2}):
        shores = ShorePartition(shore1=frozenset(shore1), shore2=frozenset({1, 2} - shore1))
        with pytest.raises(ValueError, match="shore_normalize is defined for directed compressions"):
            shore_normalize(d, shores)


def test_passes_refuse_weighted_compressions():
    # twins 1 and 2 reach {3, 4} by a weight-1 cluster edge and two weight-5 edges
    d = DagCompression(directed=False, n_sinks=4, n_clusters=1, arcs=[(5, 3), (5, 4)],
                       cedges=[(1, 5), (2, 3), (2, 4)], weights={(1, 5): 1, (2, 3): 5, (2, 4): 5})
    shores = ShorePartition(shore1=frozenset({1, 2}), shore2=frozenset({3, 4}))
    with pytest.raises(ValueError, match="twin_normalize is defined for unweighted"):
        twin_normalize(d, [(1, 2)])
    with pytest.raises(ValueError, match="shore_normalize is defined for unweighted"):
        shore_normalize(d, shores)
    with pytest.raises(ValueError, match="twin_single_edge is defined for unweighted"):
        twin_single_edge(d, [(1, 2)])


def test_shore_normalize_rejects_arcs_from_sinks():
    # only unvalidated input has the arc (1, 4) out of a sink
    d = DagCompression(directed=True, n_sinks=3, n_clusters=1,
                       arcs=frozenset({(4, 2), (1, 4)}), cedges=frozenset({(4, 3)}))
    shores = ShorePartition(shore1=frozenset({1, 2}), shore2=frozenset({3}))
    with pytest.raises(ValueError, match="invalid compression: original vertex 1 has outgoing arc"):
        shore_normalize(d, shores)


def test_twin_normalize_skips_twins_joined_by_an_edge():
    # the loops and the edge {1, 2} join the twins: a mirror of 1 onto 2 drops {1, 2}
    d = DagCompression(directed=False, n_sinks=2, n_clusters=0, arcs=[],
                       cedges=[(1, 1), (1, 2), (2, 2)])
    assert twin_normalize(d, [(1, 2)]) == d


def test_twin_normalize_removes_clusters_left_without_sinks():
    # mirroring 4 onto 3 removes the arcs (5, 3) and (6, 3); clusters 5 and 6
    # then reach no sink, nor does 8, whose one child is 5
    d = DagCompression(directed=True, n_sinks=4, n_clusters=4,
                       arcs=[(5, 3), (6, 3), (7, 1), (7, 2), (8, 5)],
                       cedges=[(4, 7), (8, 1), (6, 2)])
    out = twin_normalize(d, [(3, 4)])
    assert validate(out) == []
    assert decompress(out) == decompress(d)
    assert out == DagCompression(directed=True, n_sinks=4, n_clusters=1, arcs=[(5, 1), (5, 2)],
                                 cedges=[(3, 5), (4, 5)])


def test_twin_single_edge_bundles_a_class_once():
    # sources 3, 4 and 5 each reach sinks 1 and 2: pairs that share a member form one class
    d = DagCompression(directed=True, n_sinks=5, n_clusters=0, arcs=[],
                       cedges=[(t, y) for t in (3, 4, 5) for y in (1, 2)])
    out = twin_single_edge(d, [(3, 4), (3, 5), (4, 5)])
    assert out == DagCompression(directed=True, n_sinks=5, n_clusters=1, arcs=[(6, 1), (6, 2)],
                                 cedges=[(3, 6), (4, 6), (5, 6)])
    assert out.size() == d.size() - 1
    assert twin_single_edge(d, [(4, 5), (3, 4)]) == out
    uneven = DagCompression(directed=True, n_sinks=5, n_clusters=0, arcs=[],
                            cedges=[(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
    with pytest.raises(ValueError, match=r"twins \(3, 4, 5\) have different targets"):
        twin_single_edge(uneven, [(3, 4), (4, 5)])


def test_twin_normalize_differential():
    """On small random graphs with twins, encoded directly, by the tree
    compressor and by the greedy one, the twin pass keeps a valid compression
    of the same graph and never grows it."""
    rng = random.Random(5)
    checked = 0
    for _ in range(2000):
        n, directed = rng.randint(2, 6), rng.random() < 0.5
        g = Graph(directed, n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                                if (directed or u <= v) and rng.random() < 0.5])
        pairs = twins(g)
        if not pairs:
            continue
        for d in (DagCompression(directed, n, 0, [], g.edges), tree_compress(g), dag_compress_greedy(g)):
            out = twin_normalize(d, pairs)
            assert validate(out) == []
            assert decompress(out) == g
            assert out.size() <= d.size()
            checked += 1
    assert checked > 900


def random_class_compression(rng, directed, class_size):
    """A valid compression of a random bipartite graph whose sources come in
    twin classes, with its shores and twin pairs.

    Sources 1..S come in classes of class_size, each class joined to one
    random set of the targets after them. Per source: the set's blocks
    behind fresh clusters, either the class's shared ones or its own. Some
    directed classes also reach their first block through one source-side
    cluster over the class. The pairs list a class's consecutive members, or
    all of its pairs.
    """
    m, k = rng.randint(2, 5), rng.randint(1, 3)
    n_src = k * class_size
    arcs, cedges, pairs = set(), set(), []
    next_id = n_src + m

    def new_cluster(children):
        nonlocal next_id
        next_id += 1
        arcs.update((next_id, c) for c in children)
        return next_id

    def blocks(members):  # the members cut into blocks; a block of one is its target
        cuts = [0, *sorted(rng.sample(range(1, len(members)), rng.randint(0, len(members) - 1))), len(members)]
        return [b[0] if len(b) == 1 else new_cluster(b) for b in (members[i:j] for i, j in zip(cuts, cuts[1:]))]

    for c in range(k):
        cls = list(range(c * class_size + 1, (c + 1) * class_size + 1))
        members = sorted(rng.sample(range(n_src + 1, n_src + m + 1), rng.randint(1, m)))
        shared = blocks(members)
        for t in cls:
            cedges.update((t, y) for y in (shared if rng.random() < 0.5 else blocks(members)))
        if directed and rng.random() < 0.3:
            cedges.add((new_cluster(cls), shared[0]))
        pairs += combinations(cls, 2) if rng.random() < 0.5 else zip(cls, cls[1:])
    d = DagCompression(directed, n_src + m, next_id - n_src - m, arcs, cedges)
    shores = ShorePartition(frozenset(range(1, n_src + 1)), frozenset(range(n_src + 1, n_src + m + 1)))
    return d, shores, pairs


def _outcome(normalize, d, *args):
    """The pass's output and its text, or None and its refusal's line."""
    try:
        out = normalize(d, *args)
    except ValueError as exc:
        return None, f"error: {exc}\n"
    assert validate(out) == [] and decompress(out) == decompress(d)
    return out, write_compression(out)


# sha256 of the texts of each sample's outputs and refusals, taken before the
# passes moved from numpy rows to pair lists.
NORMALIZE_SAMPLE_DIGESTS = {
    "undirected": "e7740c4e829aaf73f0b618173c0f3030b8f4de62eb101f168a2b285096e561fa",
    "classes of three": "bd1ee2f5eb721a0313850110448f4452e99550993c90d251a8b104bf85ce0de1",
    "cli chain": "1ad63ca2137c8803c42ae0e4f19c98b761c083afe17dba779e512036c870e0e5",
}


def test_undirected_twin_passes_pinned():
    rng = random.Random(23)
    h = hashlib.sha256()
    for i in range(120):
        d, _, pairs = random_class_compression(rng, False, 2 + i % 2)
        d1, text = _outcome(twin_normalize, d, pairs)
        h.update(text.encode())
        h.update(_outcome(twin_single_edge, d1, pairs)[1].encode())
    assert h.hexdigest() == NORMALIZE_SAMPLE_DIGESTS["undirected"]


def test_twin_classes_of_three_pinned():
    rng = random.Random(24)
    h = hashlib.sha256()
    for _ in range(120):
        d, shores, pairs = random_class_compression(rng, True, 3)
        d1, text = _outcome(twin_normalize, d, pairs)
        d2, text2 = _outcome(shore_normalize, d1, shores)
        h.update((text + text2 + _outcome(twin_single_edge, d2, pairs)[1]).encode())
    assert h.hexdigest() == NORMALIZE_SAMPLE_DIGESTS["classes of three"]


def test_normalize_cli_chain_pinned(tmp_path, capsys):
    """dagzip normalize twins -> shore -> single-edge, on twinned incidence
    graphs and on twin classes of two and three, each finding its own pairs."""
    rng = random.Random(25)
    cases = [random_twinned_compression(rng)[:2] for _ in range(20)]
    cases = [(d, tg.shores) for d, tg in cases]
    cases += [random_class_compression(rng, True, 2 + i % 2)[:2] for i in range(20)]
    h = hashlib.sha256()
    for d, shores in cases:
        comp, shore_file = tmp_path / "in.dagc", tmp_path / "in.shores"
        comp.write_text(write_compression(d), encoding="ascii")
        shore_file.write_text(write_shores(shores), encoding="ascii")
        for pass_name in ("twins", "shore", "single-edge"):
            out = tmp_path / f"{pass_name}.dagc"
            code = main(["normalize", "--pass", pass_name, "--shores", str(shore_file), str(comp), "-o", str(out)])
            captured = capsys.readouterr()
            h.update(f"{code}\n{captured.out}{captured.err}".encode() + out.read_bytes())
            comp = out
    assert h.hexdigest() == NORMALIZE_SAMPLE_DIGESTS["cli chain"]
