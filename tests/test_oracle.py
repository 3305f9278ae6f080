import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagzip
from dagzip import (
    Graph,
    OracleBudget,
    OracleBudgetExceeded,
    SetCoverInstance,
    decide_mindag,
    decompress,
    dag_compress_greedy,
    min_bipartite_size,
    min_dag_size,
    random_graph,
    reduce_add,
    reduce_delete,
    twinned_optimum,
    validate,
    write_compression,
)
from dagzip.graphs import canonical_edge
from dagzip.oracle import (
    _admissible_products,
    _elements,
    _mask,
    _min_cover,
    _min_set_cover,
    _sink_subsets,
    _source_graph,
)


def _reference_min_cover(target, cands, upper):
    """The set-based cover search that the oracles ran before their sink sets
    were bitmasks: the same search order on frozensets, with min() picking
    the branch element."""
    best = [upper + 1, ()]
    largest = len(cands[0][1]) if cands else 1

    def dfs(uncovered, used, chosen):
        if not uncovered:
            if used < best[0]:
                best[:] = used, chosen
            return
        if used + -(-len(uncovered) // largest) >= best[0]:
            return
        e = min(uncovered)
        for key, c in cands:
            if e in c:
                dfs(uncovered - c, used + 1, chosen + (key,))

    dfs(target, 0, ())
    return None if best[0] > upper else (best[0], best[1])


def _reference_admissible_products(edge_set, units, directed):
    """All (id, set) unit pairs whose full product lies inside the edge set,
    built pair by pair; the oracle's product table before it was built once
    per call."""
    out = []
    for iu, cu in units:
        for iv, cv in units:
            if not directed and iv < iu:
                continue
            prod = frozenset(
                canonical_edge(directed, x, y) for x in cu for y in cv if directed or x != y
            )
            if not directed:
                loops = frozenset((x, x) for x in cu & cv)
                prod = prod | loops
            if prod and prod <= edge_set:
                out.append(((iu, iv), prod))
    out.sort(key=lambda t: (-len(t[1]), t[0]))
    return out


def multiset_oracle(g: Graph, max_clusters: int = 4) -> int:
    """Reference search without the one-vertex-per-set / proper-child rules.

    Enumerates multisets of cluster sets (duplicates allowed) in every
    topological order; children of a cluster may be any units later in the
    order whose set is contained in it, including equal sets. Minimum over
    arc assignment plus an exact product cover of the edge set.
    """
    sinks = list(range(1, g.n + 1))
    edge_set = g.edges
    if not edge_set:
        return 0
    best = len(edge_set)
    base_sets = [
        frozenset(c) for r in range(2, g.n + 1) for c in itertools.combinations(sinks, r)
    ]

    cover_cache: dict[frozenset[frozenset[int]], int] = {}

    def edge_cover(distinct: frozenset[frozenset[int]], upper: int):
        if distinct in cover_cache:
            got = cover_cache[distinct]
            return got if got <= upper else None
        units = [(v, frozenset((v,))) for v in sinks]
        units += [(g.n + 1 + i, s) for i, s in enumerate(sorted(distinct, key=sorted))]
        products = _reference_admissible_products(edge_set, units, g.directed)
        got = _reference_min_cover(edge_set, products, len(edge_set))
        value = got[0] if got else len(edge_set) + 1
        cover_cache[distinct] = value
        return value if value <= upper else None

    def arc_cost(ordering, upper: int):
        total = 0
        for i, x in enumerate(ordering):
            later = [y for y in ordering[i + 1:]] + [frozenset((e,)) for e in x]
            cands = [y for y in later if y <= x]
            got = _min_set_cover(x, set(cands), min(len(x), upper - total))
            if got is None:
                return None
            total += got[0]
            if total >= upper:
                return None
        return total

    for t in range(0, max_clusters + 1):
        for multiset in itertools.combinations_with_replacement(base_sets, t):
            seen = set()
            for perm in itertools.permutations(multiset):
                if perm in seen:
                    continue
                seen.add(perm)
                arcs = arc_cost(list(perm), best)
                if arcs is None:
                    continue
                cov = edge_cover(frozenset(multiset), best - arcs - 1)
                if cov is not None and arcs + cov < best:
                    best = arcs + cov
    return best


def test_min_exact_cover_basics():
    target = frozenset({1, 2, 3})
    out = _min_set_cover(target, [frozenset({1}), frozenset({3}),
                                  frozenset({1, 2}), frozenset({2})], 3)
    assert out == (2, (frozenset({1, 2}), frozenset({3})))
    pairs = [("ab", _mask({1, 2})), ("bc", _mask({2, 3})), ("c", _mask({3}))]
    assert _min_cover(_mask(target), pairs, 3) == (2, ("ab", "bc"))
    assert _min_cover(_mask(target), pairs, 1) is None
    assert _min_cover(_mask(target), pairs[:1], 3) is None
    assert _min_cover(0, [], 0) == (0, ())


_subsets_of_6 = st.frozensets(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(target=_subsets_of_6, pieces=st.lists(_subsets_of_6, max_size=9), data=st.data())
def test_min_cover_matches_set_reference(target, pieces, data):
    # Candidates are subsets of the target, largest first (ties keep their
    # drawn order), keyed by their position, with or without the singletons
    # that guarantee a cover; upper ranges below the cover size.
    if data.draw(st.booleans(), label="singletons"):
        pieces = pieces + [frozenset((e,)) for e in sorted(target)]
    cands = sorted((p & target for p in pieces if p & target), key=len, reverse=True)
    keyed = list(enumerate(cands))
    upper = data.draw(st.integers(-1, len(target)), label="upper")
    want = _reference_min_cover(target, keyed, upper)
    assert _min_cover(_mask(target), [(k, _mask(c)) for k, c in keyed], upper) == want


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), directed=st.booleans(), data=st.data())
def test_admissible_products_match_reference(n, directed, data):
    # The oracle's units on n sinks and a drawn edge set, loops included: the
    # same admissible pairs, the same products as edge sets, in the same
    # largest-first order, each needing the family bits of its two units.
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1 if directed else u, n + 1)]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs)), label="edges"))
    units = [(0, frozenset((v,))) for v in range(1, n + 1)]
    units += [(1 << i, _elements(s)) for i, s in enumerate(_sink_subsets(n))]
    position = {s: i for i, (_, s) in enumerate(units)}
    got = _admissible_products(edges, units, directed)
    want = _reference_admissible_products(
        frozenset(edges), [(i, s) for i, (_, s) in enumerate(units)], directed)
    assert [((position[a], position[b]), frozenset(e for i, e in enumerate(edges) if prod >> i & 1))
            for (a, b), prod, _ in got] == want
    assert all(needs == units[position[a]][0] | units[position[b]][0]
               for (a, b), _, needs in got)


def test_import_computes_no_layout():
    # Importing dagzip (part of every process's set-up) must leave the memo
    # layouts and the subset lists to their first use.
    env = dict(os.environ)
    src = str(Path(dagzip.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # The shared cover tables live in the layouts, so they start empty too.
    code = ("import dagzip\nfrom dagzip import oracle\n"
            "print(oracle._cover_layout.cache_info().currsize, "
            "oracle._sink_subsets.cache_info().currsize, "
            "oracle._elements.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.split() == ["0", "0", "0"]


def _sharing_inputs():
    """Seeded universe-3/4 calls of both oracles, as (name, call) pairs."""
    rng = random.Random(19)
    for i in range(16):
        u = 3 + i % 2
        neigh = tuple(frozenset(rng.sample(range(1, u + 1), rng.randint(0, u)))
                      for _ in range(rng.randint(2, 5)))
        yield f"bipartite {neigh} {u}", functools.partial(min_bipartite_size, neigh, u)
    for seed in range(16):
        g = random_graph(3 + seed % 2, (0.3, 0.5, 0.7)[seed % 3], seed=seed, directed=seed % 4 < 2)
        yield f"mindag {seed}", functools.partial(min_dag_size, g)


def _antichains(n: int, target: int, proper: bool) -> set[int]:
    """Index masks over _sink_subsets(n) of the antichains of the sets that a
    cover of target may use: its subsets, proper ones only if proper."""
    inside = [(i, s) for i, s in enumerate(_sink_subsets(n))
              if not s & ~target and not (proper and s == target)]
    return {sum(1 << i for i, _ in chain)
            for r in range(len(inside) + 1) for chain in itertools.combinations(inside, r)
            if all(a & b not in (a, b) for (_, a), (_, b) in itertools.combinations(chain, 2))}


def test_shared_covers_do_not_depend_on_call_order():
    # Each cover searched once per process serves every later call, so no
    # result may depend on what ran before it: a fresh table per call, and
    # the whole list forwards and backwards, give the same sizes and texts.
    from dagzip.oracle import _cover_layout

    calls = list(_sharing_inputs())

    def run(call):
        size, w = call()
        return f"{size}\n{write_compression(w)}"

    fresh = {}
    for name, call in calls:
        _cover_layout.cache_clear()
        fresh[name] = run(call)
    for order in (calls, calls[::-1]):
        _cover_layout.cache_clear()
        assert {name: run(call) for name, call in order} == fresh
    # Every table key is the maximal members of some family: an antichain of
    # the sets that may serve the target, so a table never outgrows them.
    filled = 0
    for n in (3, 4):
        for target in _sink_subsets(n):
            for proper in (True, False):
                tops = _cover_layout(n, target, proper)[-1]
                assert set(tops) <= _antichains(n, target, proper), (n, target, proper)
                filled += len(tops)
    assert filled


def test_oracle_edgeless():
    g = Graph(directed=True, n=3, edges=frozenset())
    assert min_dag_size(g)[0] == 0


def test_oracle_single_edge():
    g = Graph(directed=True, n=2, edges=frozenset({(1, 2)}))
    size, witness = min_dag_size(g)
    assert size == 1
    assert witness.n_clusters == 0


def test_oracle_k22():
    g = Graph(directed=True, n=4, edges=frozenset({(1, 3), (1, 4), (2, 3), (2, 4)}))
    size, witness = min_dag_size(g)
    assert size == 4
    assert validate(witness) == []
    assert decompress(witness) == g


def test_oracle_budget_enforced():
    g = Graph(directed=True, n=5, edges=frozenset({(1, 2)}))
    with pytest.raises(OracleBudgetExceeded):
        min_dag_size(g)  # default budget caps at 4 sinks
    assert min_dag_size(g, OracleBudget(max_sinks=5))[0] == 1
    with pytest.raises(ValueError):
        OracleBudget(max_sinks=6)


def test_oracle_refuses_weighted():
    g = Graph(directed=False, n=2, edges=[(1, 2)], weights={(1, 2): 5})
    for call in (lambda: min_dag_size(g), lambda: decide_mindag(g, 3)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "the oracle works on unweighted graphs"


def test_decide_mindag():
    empty = Graph(directed=True, n=2, edges=frozenset())
    yes, witness = decide_mindag(empty, 0)
    assert yes and witness is not None
    nonempty = Graph(directed=True, n=2, edges=frozenset({(1, 2)}))
    no, witness = decide_mindag(nonempty, 0)
    assert not no and witness is None


def test_oracle_witness_soundness_on_random_graphs():
    for seed in range(40):
        g = random_graph(4, 0.45, seed=seed, directed=True)
        size, witness = min_dag_size(g)
        assert validate(witness) == []
        assert decompress(witness) == g
        assert witness.size() == size
        assert size <= g.m


@functools.cache
def n3_references() -> tuple[tuple[Graph, int], ...]:
    """Every directed graph on 3 vertices, graph `mask` holding pair i when
    bit i is set, with its multiset_oracle value: computed once per session,
    for this file and for criterion 9."""
    pairs = [(u, v) for u in (1, 2, 3) for v in (1, 2, 3)]
    graphs = [Graph(directed=True, n=3,
                    edges=frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
              for mask in range(512)]
    return tuple((g, multiset_oracle(g)) for g in graphs)


def test_restricted_equals_unrestricted_n3():
    budget = OracleBudget(max_sinks=4)
    for mask, (g, reference) in enumerate(n3_references()):
        assert min_dag_size(g, budget)[0] == reference, mask


def test_restricted_equals_unrestricted_small_undirected():
    pairs = [(1, 2), (1, 3), (2, 3), (1, 1), (2, 2), (3, 3)]
    for mask in range(64):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        g = Graph(directed=False, n=3, edges=edges)
        assert min_dag_size(g)[0] == multiset_oracle(g), mask


def test_heuristics_never_beat_oracle():
    # about a thousand heuristic outputs across tiny graphs
    from dagzip import tree_compress

    for seed in range(500):
        g = random_graph(4, 0.1 + 0.2 * (seed % 5), seed=seed, directed=True)
        floor = min_dag_size(g)[0]
        assert dag_compress_greedy(g).size() >= floor
        assert tree_compress(g).size() >= floor


def test_oracle_min_at_most_direct():
    for seed in range(30):
        g = random_graph(4, 0.6, seed=seed, directed=True)
        assert min_dag_size(g)[0] <= g.m


def test_bipartite_oracle_k33():
    size, witness = min_bipartite_size((frozenset({1, 2, 3}),) * 3, 3)
    assert size == 6
    assert validate(witness) == []
    expect = Graph(directed=True, n=6,
                   edges=frozenset((u, v) for u in (4, 5, 6) for v in (1, 2, 3)))
    assert decompress(witness) == expect


def test_bipartite_matches_generic_where_both_apply():
    cases = [
        (frozenset({1}),),              # one source, one target: 1 direct edge
        (frozenset({1, 2}),),           # single source covering two sinks
        (frozenset({1, 2}), frozenset({1, 2})),   # K22 as a twinned family
        (frozenset({1, 2, 3}),),        # one source, three sinks
        (frozenset({1}), frozenset({1, 2})),
    ]
    for neigh in cases:
        u = max(max(s) for s in neigh)
        n = u + len(neigh)
        if n > 5:
            continue
        edges = frozenset((u + 1 + i, e) for i, s in enumerate(neigh) for e in s)
        g = Graph(directed=True, n=n, edges=edges)
        generic = min_dag_size(g, OracleBudget(max_sinks=5))[0]
        special = min_bipartite_size(neigh, u)[0]
        assert generic == special, neigh


def test_twinned_optimum_values():
    # singletons cost two edges each; each larger set costs 2 edges + 2 arcs
    sets = (frozenset({1}), frozenset({2}), frozenset({1, 2}))
    size, witness = twinned_optimum(sets, 2)
    assert size == 8
    assert validate(witness) == []
    assert twinned_optimum((frozenset({1, 2}),), 2)[0] == 4


def test_bipartite_universe_budget():
    with pytest.raises(OracleBudgetExceeded):
        min_bipartite_size((frozenset({1}),), 6)


def _pinned_graphs():
    for seed in range(120):
        yield random_graph(1 + seed % 4, (0.2, 0.45, 0.7)[seed % 3], seed=seed,
                           directed=seed % 2 == 0)


def _pinned_families():
    rng = random.Random(5)
    for _ in range(60):
        u = rng.randint(2, 4)
        yield tuple(frozenset(rng.sample(range(1, u + 1), rng.randint(1, u)))
                    for _ in range(rng.randint(1, 4))), u


# sha256 over the sizes and write_compression texts of the witnesses, taken
# from the implementation with separate set-cover and product-cover searches.
ORACLE_DIGESTS = {
    "min_dag_size": "d487c0b7b4a827aadddc48fb4557412b83973cb9debd10648253951e48975e89",
    "decide_mindag": "3490092615330505a0452f9b23a8958956eee4da0e7a18736059877b1c7854f2",
    "twinned_optimum": "fca76c81e76ca28f3b5e1cff2249e70fa27c226b934cf47988d601cae7f1a781",
}


def test_oracle_witnesses_pinned():
    got = {name: hashlib.sha256() for name in ORACLE_DIGESTS}
    for g in _pinned_graphs():
        size, w = min_dag_size(g)
        got["min_dag_size"].update(f"{size}\n{write_compression(w)}".encode())
        for k in (size - 1, size, size + 1):
            yes, w = decide_mindag(g, k)
            got["decide_mindag"].update((write_compression(w) if yes else "no\n").encode())
    for sets, u in _pinned_families():
        size, w = twinned_optimum(sets, u)
        got["twinned_optimum"].update(f"{size}\n{write_compression(w)}".encode())
    assert {name: h.hexdigest() for name, h in got.items()} == ORACLE_DIGESTS


def _pinned_neighborhoods():
    """Seeded min_bipartite_size inputs: neighbourhood tuples on universes
    1-5 drawn from a small pool that holds the empty and the full
    neighbourhood, so draws repeat; then the add and delete shapes of the
    update reductions on seeded set-cover instances."""
    rng = random.Random(13)
    for i in range(40):
        u = 1 + i % 5
        full = frozenset(range(1, u + 1))
        pool = [frozenset(), full]
        pool += [frozenset(rng.sample(sorted(full), rng.randint(1, u))) for _ in range(3)]
        yield tuple(rng.choice(pool) for _ in range(rng.randint(1, 6 - u // 2))), u
    for i in range(12):
        n = 2 + i % 3
        proper = [frozenset(c) for r in range(1, n)
                  for c in itertools.combinations(range(1, n + 1), r)]
        while True:
            sets = rng.sample(proper, rng.randint(2, min(4, len(proper))))
            if frozenset().union(*sets) == frozenset(range(1, n + 1)):
                break
        inst = SetCoverInstance(n=n, sets=tuple(sets), k=1)
        add = reduce_add(inst)
        yield tuple(s for s in add.family.sets for _ in range(2)) + (
            frozenset(range(1, n + 2)),), n + 1
        delete = reduce_delete(inst)
        neigh = [s for s in delete.family.sets for _ in range(2)]
        neigh[2 * delete.full_set_index] -= {1}
        yield tuple(neigh), n + 1


# sha256 over the sizes and write_compression texts of min_bipartite_size's
# witnesses at each size cap (mid: halfway between the optimum and the direct
# size; direct: the direct size), taken before its memo layouts were shared
# and its witness built once.
BIPARTITE_DIGESTS = {
    "None": "6370b9dc9363e021ad1c5d175613c9148d42d53a600fb9f10b077610c8b47d8d",
    "0": "6370b9dc9363e021ad1c5d175613c9148d42d53a600fb9f10b077610c8b47d8d",
    "mid": "706bfd10862c19c4a4bc5c1c7f529c16d4d6882ee53d65be5ec59c96113c6835",
    "direct": "62e22a5a9a529b1221d5e9deccb3fedf1acfaa7e1f1c106e33364b8cd8181611",
}


def test_bipartite_witnesses_pinned():
    got = {name: hashlib.sha256() for name in BIPARTITE_DIGESTS}
    for neigh, u in _pinned_neighborhoods():
        direct = sum(map(len, neigh))
        best = min_bipartite_size(neigh, u)[0]
        for name, cap in zip(BIPARTITE_DIGESTS, (None, 0, (best + direct) // 2, direct)):
            size, w = min_bipartite_size(neigh, u, size_cap=cap)
            got[name].update(f"{size}\n{write_compression(w)}".encode())
    assert {name: h.hexdigest() for name, h in got.items()} == BIPARTITE_DIGESTS


def test_bipartite_witnesses_decompress_to_the_source_graph():
    # min_bipartite_size and _source_graph number the sources alike.
    for neigh, u in _pinned_neighborhoods():
        size, w = min_bipartite_size(neigh, u)
        assert w.size() == size
        assert decompress(w) == _source_graph(neigh, u), (neigh, u)


def test_bipartite_refuses_a_neighborhood_outside_the_universe():
    with pytest.raises(ValueError, match="^neighborhood outside the universe$"):
        min_bipartite_size((frozenset({1}), frozenset({3})), 2)


def test_min_dag_size_stops_at_the_size_cap():
    k23 = Graph(True, 5, [(a, b) for a in (1, 2) for b in (3, 4, 5)])
    budget = OracleBudget(max_sinks=5)
    best = min_dag_size(k23, budget)[0]
    assert best < k23.m
    for k in range(best - 1, k23.m + 1):
        size, w = min_dag_size(k23, budget, size_cap=k)
        assert size == best if k < best else size <= k
        assert w.size() == size and decompress(w) == k23
