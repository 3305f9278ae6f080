import hashlib
import itertools

import pytest

from dagzip import (
    ClosedFamily,
    Graph,
    SetCoverInstance,
    add_witness,
    canonical_closure_compression,
    check_sandwich,
    close_standard_order,
    closure_compression_size,
    decompress,
    delete_witness,
    min_bipartite_size,
    read_setcover,
    reduce_add,
    reduce_delete,
    reduce_mindag,
    setcover_exhaustive,
    twinned_incidence,
    twinned_optimum,
    twins,
    validate,
    write_compression,
    write_graph,
    write_setcover,
)

WORKED = SetCoverInstance(
    n=7, sets=(frozenset({1, 4, 5, 6}), frozenset({2, 3, 5, 7})), k=2
)


def branch_and_bound_cover(inst: SetCoverInstance) -> int:
    """Second, independent exact cover solver for cross-checking."""
    best = [len(inst.sets) + 1]
    sets = sorted(inst.sets, key=len, reverse=True)

    def rec(uncovered, used):
        if used >= best[0]:
            return
        if not uncovered:
            best[0] = used
            return
        e = min(uncovered)
        for s in sets:
            if e in s:
                rec(uncovered - s, used + 1)

    rec(inst.universe, 0)
    assert best[0] <= len(inst.sets)
    return best[0]


def all_tiny_instances(max_n=3, max_sets=3):
    for n in range(2, max_n + 1):
        universe = frozenset(range(1, n + 1))
        proper = [
            frozenset(c)
            for r in range(1, n)
            for c in itertools.combinations(sorted(universe), r)
        ]
        for tsize in range(1, max_sets + 1):
            for combo in itertools.combinations(proper, tsize):
                if frozenset().union(*combo) == universe:
                    yield n, combo


def test_setcover_roundtrip():
    text = write_setcover(WORKED)
    assert write_setcover(read_setcover(text)) == text


def test_setcover_format_errors():
    with pytest.raises(Exception):
        read_setcover("setcover 2 1 0\n")
    with pytest.raises(Exception):
        read_setcover("setcover 2 1 0\ns 2 1\n")


def test_setcover_exhaustive_basics():
    two = SetCoverInstance(n=2, sets=(frozenset({1}), frozenset({2})), k=0)
    assert setcover_exhaustive(two)[0] == 2
    one = SetCoverInstance(n=2, sets=(frozenset({1, 2}),), k=0)
    assert setcover_exhaustive(one)[0] == 1
    bad = SetCoverInstance(n=2, sets=(frozenset({1}),), k=0)
    with pytest.raises(ValueError):
        setcover_exhaustive(bad)
    many = SetCoverInstance(n=21, sets=tuple(frozenset({e}) for e in range(1, 22)), k=0)
    with pytest.raises(ValueError) as exc:
        setcover_exhaustive(many)
    assert str(exc.value) == "instance has more than 20 sets"


def test_setcover_exhaustive_matches_second_solver():
    import random

    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(3, 6)
        universe = list(range(1, n + 1))
        want = min(8, 2 ** n - 1)
        sets = set()
        while len(sets) < want:
            sets.add(frozenset(rng.sample(universe, rng.randint(1, n))))
        sets = tuple(sets)
        if frozenset().union(*sets) != frozenset(universe):
            continue
        inst = SetCoverInstance(n=n, sets=sets, k=0)
        assert setcover_exhaustive(inst)[0] == branch_and_bound_cover(inst)


def test_closure_worked_example():
    family = close_standard_order(WORKED)
    expected = [
        {1}, {2}, {3}, {4}, {5}, {6}, {7},
        {1, 4}, {2, 3}, {1, 4, 5}, {2, 3, 5}, {1, 4, 5, 6}, {2, 3, 5, 7},
    ]
    assert [set(s) for s in family.sets] == expected
    assert family.m == 13
    family.check_closed()


@pytest.mark.parametrize("universe_size, sets, message", [
    (2, [{1}], "singleton {2} missing, family not closed"),
    (3, [{1}, {2}, {3}, {1, 2, 3}], "initial segment [1, 2] of [1, 2, 3] missing"),
    (2, [{2}, {1}], "family not in standard order"),
])
def test_check_closed_names_the_violation(universe_size, sets, message):
    family = ClosedFamily(universe_size, tuple(map(frozenset, sets)))
    with pytest.raises(ValueError) as exc:
        family.check_closed()
    assert str(exc.value) == message


def test_closure_rejects_trivial_cases():
    with pytest.raises(ValueError):
        close_standard_order(SetCoverInstance(n=2, sets=(frozenset({1, 2}),), k=1))
    with pytest.raises(ValueError):
        close_standard_order(SetCoverInstance(n=3, sets=(frozenset({1}),), k=1))


def test_closure_preserves_min_cover():
    import random

    rng = random.Random(4)
    done = 0
    while done < 50:
        n = rng.randint(2, 5)
        universe = list(range(1, n + 1))
        sets = set()
        for _ in range(rng.randint(1, 4)):
            sets.add(frozenset(rng.sample(universe, rng.randint(1, max(1, n - 1)))))
        sets = tuple(sets)
        union = frozenset().union(*sets)
        if union != frozenset(universe) or frozenset(universe) in sets:
            continue
        inst = SetCoverInstance(n=n, sets=sets, k=0)
        family = close_standard_order(inst)
        closed_inst = SetCoverInstance(n=n, sets=family.sets, k=0)
        assert setcover_exhaustive(inst)[0] == setcover_exhaustive(closed_inst)[0]
        done += 1


def test_twinned_incidence_single_singleton():
    tg = twinned_incidence((frozenset({1}),), 1)
    assert tg.graph.n == 3
    assert tg.graph.edges == frozenset({(2, 1), (3, 1)})
    assert frozenset({2, 3}) in twins(tg.graph)


def test_twinned_incidence_twin_structure():
    family = close_standard_order(WORKED)
    tg = twinned_incidence(family)
    got = twins(tg.graph)
    for i in range(len(family.sets)):
        assert frozenset({tg.a_vertex(i), tg.b_vertex(i)}) in got
    # no twin pair mixes two different sets
    for pair in got:
        a, b = sorted(pair)
        if a > tg.universe_size:  # both on the source shore
            i = (a - tg.universe_size - 1) // 2
            j = (b - tg.universe_size - 1) // 2
            assert i == j


def test_twinned_incidence_edge_count():
    family = close_standard_order(WORKED)
    tg = twinned_incidence(family)
    assert len(tg.shores.shore1) == 26
    assert tg.graph.m == 2 * sum(len(s) for s in family.sets)


def test_canonical_closure_compression_worked_example():
    family = close_standard_order(WORKED)
    comp = canonical_closure_compression(family)
    # 2 compression edges per set plus 2 arcs per non-singleton set
    assert comp.size() == closure_compression_size(family) == 2 * 13 + 2 * 6
    assert validate(comp) == []
    assert decompress(comp) == twinned_incidence(family).graph


def test_canonical_closure_compression_singletons_only():
    inst = SetCoverInstance(n=2, sets=(frozenset({1}), frozenset({2})), k=1)
    family = close_standard_order(inst)
    comp = canonical_closure_compression(family)
    assert comp.n_clusters == 0
    assert comp.size() == 2 * family.m == 4


def test_canonical_closure_compression_random_families():
    import random

    rng = random.Random(9)
    done = 0
    while done < 50:
        n = rng.randint(2, 5)
        universe = list(range(1, n + 1))
        sets = {frozenset(rng.sample(universe, rng.randint(1, max(1, n - 1))))
                for _ in range(rng.randint(1, 4))}
        sets = tuple(sets)
        if frozenset().union(*sets) != frozenset(universe) or frozenset(universe) in sets:
            continue
        family = close_standard_order(SetCoverInstance(n=n, sets=sets, k=0))
        comp = canonical_closure_compression(family)
        assert validate(comp) == []
        assert decompress(comp) == twinned_incidence(family).graph
        assert comp.size() == closure_compression_size(family)
        done += 1


def test_closure_compression_is_optimal_small():
    # the construction matches the exact bipartite optimum on tiny universes
    for n, combo in all_tiny_instances():
        inst = SetCoverInstance(n=n, sets=combo, k=0)
        family = close_standard_order(inst)
        opt, _ = twinned_optimum(family.sets, n)
        assert opt == closure_compression_size(family), (n, combo)


def test_reduce_mindag_worked_example():
    out = reduce_mindag(WORKED)
    assert out.meta["m_closure"] == 13
    assert out.meta["s_closure"] == 38
    # threshold: optimal closure size + k + 2
    assert out.k_prime == 38 + WORKED.k + 2
    assert out.twinned.sets[-1] == WORKED.universe
    assert out.graph.n == 7 + 2 * 14


def test_reduce_mindag_k0():
    inst = SetCoverInstance(n=2, sets=(frozenset({1}), frozenset({2})), k=0)
    out = reduce_mindag(inst)
    assert out.k_prime == out.meta["s_closure"] + 2


def test_reduce_mindag_soundness_tiny():
    for n, combo in all_tiny_instances():
        for k in range(0, 4):
            inst = SetCoverInstance(n=n, sets=combo, k=k)
            out = reduce_mindag(inst)
            opt, witness = twinned_optimum(out.twinned.sets, n)
            assert decompress(witness) == out.graph
            kmin, _ = setcover_exhaustive(inst)
            assert (opt <= out.k_prime) == (kmin <= k), (n, combo, k)


def test_reduce_add_structure():
    inst = SetCoverInstance(n=2, sets=(frozenset({1}), frozenset({2})), k=1)
    ai = reduce_add(inst)
    assert validate(ai.compression) == []
    assert decompress(ai.compression) == ai.graph
    # every closure set is infected (contains 1) except the singletons
    for s in ai.family.sets:
        if len(s) >= 2:
            assert 1 in s
    # the new edge is absent, the (s, u) edges are present
    assert not ai.graph.has_edge(*ai.new_edge)
    for u in range(2, inst.n + 2):
        assert ai.graph.has_edge(ai.s_vertex, u)
    # no compression edge from s reaches a cluster vertex
    for (u, v) in ai.compression.cedges:
        if u == ai.s_vertex:
            assert v <= ai.compression.n_sinks and v != 1
    # D size: base + n direct edges
    assert ai.compression.size() == ai.meta["base_size"] + inst.n


def test_reduce_add_compression_is_optimal_tiny():
    for n, combo in all_tiny_instances(max_n=2):
        inst = SetCoverInstance(n=n, sets=combo, k=1)
        ai = reduce_add(inst)
        neigh = tuple(s for s in ai.family.sets for _ in range(2))
        neigh += (frozenset(range(2, n + 2)),)
        opt, _ = min_bipartite_size(neigh, n + 1)
        assert opt == ai.compression.size()


def test_reduce_add_soundness_tiny():
    for n, combo in all_tiny_instances():
        for k in range(0, 3):
            inst = SetCoverInstance(n=n, sets=combo, k=k)
            ai = reduce_add(inst)
            neigh = tuple(s for s in ai.family.sets for _ in range(2))
            neigh += (frozenset(range(1, n + 2)),)  # s gains the edge to 1
            opt, _ = min_bipartite_size(neigh, n + 1)
            kmin, wit = setcover_exhaustive(inst)
            assert (opt <= ai.k_new) == (kmin <= k), (n, combo, k)
            if kmin <= k:
                w = add_witness(ai, wit, inst)
                assert validate(w) == []
                assert w.size() <= ai.k_new
                target = Graph(directed=True, n=ai.graph.n,
                               edges=ai.graph.edges | {ai.new_edge})
                assert decompress(w) == target


def test_reduce_delete_structure():
    inst = SetCoverInstance(n=2, sets=(frozenset({1}), frozenset({2})), k=2)
    di = reduce_delete(inst)
    assert validate(di.compression) == []
    assert decompress(di.compression) == di.graph
    assert di.graph.has_edge(*di.removed_edge)
    full = frozenset(range(1, inst.n + 2))
    tw = twinned_incidence(di.family)
    assert di.removed_edge == (tw.a_vertex(di.full_set_index), 1)
    assert di.family.sets[di.full_set_index] == full
    assert di.compression.size() == di.meta["base_size"]


def test_reduce_delete_compression_is_optimal_tiny():
    for n, combo in all_tiny_instances(max_n=2):
        inst = SetCoverInstance(n=n, sets=combo, k=1)
        di = reduce_delete(inst)
        neigh = tuple(s for s in di.family.sets for _ in range(2))
        opt, _ = min_bipartite_size(neigh, n + 1)
        assert opt == di.compression.size()


def test_reduce_delete_soundness_tiny():
    for n, combo in all_tiny_instances():
        for k in range(0, 3):
            inst = SetCoverInstance(n=n, sets=combo, k=k)
            di = reduce_delete(inst)
            j = di.full_set_index
            neigh = list(s for s in di.family.sets for _ in range(2))
            neigh[2 * j] = neigh[2 * j] - {1}
            opt, _ = min_bipartite_size(tuple(neigh), n + 1)
            kmin, wit = setcover_exhaustive(inst)
            assert (opt <= di.k_new) == (kmin <= k), (n, combo, k)
            if kmin <= k:
                w = delete_witness(di, wit, inst)
                assert validate(w) == []
                assert w.size() <= di.k_new
                target = Graph(directed=True, n=di.graph.n,
                               edges=di.graph.edges - {di.removed_edge})
                assert decompress(w) == target


def test_sandwich_union_of_two_sets():
    sets = (frozenset({1}), frozenset({2}), frozenset({3, 4}))
    rep = check_sandwich(sets, frozenset({1, 2}), 4)
    assert rep.k_eq == rep.k_sup == 2
    assert rep.s_prime == rep.s + 4
    assert rep.holds


def test_sandwich_not_exactly_coverable():
    rep = check_sandwich((frozenset({1, 3}), frozenset({2, 4})), frozenset({1, 2}), 4)
    assert rep.k_eq is None
    assert rep.holds


def test_sandwich_preconditions():
    with pytest.raises(ValueError):
        check_sandwich((frozenset({1, 2}),), frozenset({1}), 2)  # subset of a member
    with pytest.raises(ValueError):
        check_sandwich((frozenset({1}),), frozenset({2}), 2)  # not coverable
    with pytest.raises(ValueError, match="^new set must be non-empty$"):
        check_sandwich((frozenset({1}),), frozenset(), 2)
    with pytest.raises(ValueError, match="^new set outside the universe$"):
        check_sandwich((frozenset({1}),), frozenset({3}), 2)


def test_setcover_and_twinned_incidence_refusals():
    with pytest.raises(ValueError, match="^empty set in collection$"):
        SetCoverInstance(n=2, sets=(frozenset({1}), frozenset()), k=1)
    with pytest.raises(ValueError, match="^universe_size required for a raw set list$"):
        twinned_incidence([frozenset({1})])


def test_sandwich_random_sweep():
    import random

    rng = random.Random(7)
    done = 0
    tried = 0
    while done < 20 and tried < 3000:
        tried += 1
        u = rng.randint(2, 4)
        universe = list(range(1, u + 1))
        fam = {frozenset(rng.sample(universe, rng.randint(1, u)))
               for _ in range(rng.randint(1, 4))}
        fam = tuple(sorted(fam, key=lambda s: (len(s), sorted(s))))
        r = frozenset(rng.sample(universe, rng.randint(1, u)))
        try:
            rep = check_sandwich(fam, r, u)
        except ValueError:
            continue
        assert rep.holds, (fam, r, rep)
        done += 1
    assert done >= 20


def _meta_text(meta) -> str:
    return "".join(f"{key} {meta[key]}\n" for key in sorted(meta))


def _pinned_instances():
    for n, combo in all_tiny_instances():
        yield SetCoverInstance(n=n, sets=combo, k=1)
    yield WORKED


# sha256 over the write_graph / write_compression / meta texts of every
# construction, taken from the implementation that numbered the cluster
# vertices of each construction by hand.
REDUCTION_DIGESTS = {
    "canonical_closure_compression":
        "d2765d1d96372350bb4236f9a3267de163109f83ebaa9381c8d32566984ead90",
    "reduce_mindag": "7fa3f442732f26abe9ffcca5b85a7c10fe497479ad493d18f5e10df09c28904c",
    "reduce_add": "0236d642d63552a40964e6853e680366e23d80ff685fff3481f10e9bee5ef9c2",
    "add_witness": "5ba1334ee5a1b04ec0fd8c18dab5db7b31097aae1a22cbec7790efbe52125b0f",
    "reduce_delete": "c583d3124724227e576b060818f5a76fa7e45945619f671ed2f8767afdf71278",
    "delete_witness": "2e86e1fd2ab2a28e4e980fadef672d878dffff5c0f79e17388865ea188009d0b",
}


def test_reduction_outputs_pinned():
    got = {name: hashlib.sha256() for name in REDUCTION_DIGESTS}

    def put(name, *texts):
        got[name].update("".join(texts).encode())

    for inst in _pinned_instances():
        put("canonical_closure_compression",
            write_compression(canonical_closure_compression(close_standard_order(inst))))
        out = reduce_mindag(inst)
        put("reduce_mindag", write_graph(out.graph),
            _meta_text(dict(out.meta, k_prime=out.k_prime)))
        _, cover = setcover_exhaustive(inst)
        ai = reduce_add(inst)
        put("reduce_add", write_graph(ai.graph), write_compression(ai.compression),
            _meta_text(dict(ai.meta, k_new=ai.k_new, new_edge=ai.new_edge)))
        put("add_witness", write_compression(add_witness(ai, cover, inst)))
        di = reduce_delete(inst)
        put("reduce_delete", write_graph(di.graph), write_compression(di.compression),
            _meta_text(dict(di.meta, k_new=di.k_new, removed_edge=di.removed_edge)))
        put("delete_witness", write_compression(delete_witness(di, cover, inst)))
    assert {name: h.hexdigest() for name, h in got.items()} == REDUCTION_DIGESTS
