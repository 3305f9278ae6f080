"""Hardness-reduction constructions around set cover.

The pipeline: close a set family under singletons and initial segments
(standard order), encode families as twinned incidence graphs (two twin
source vertices per set), build the canonical compression of a closed
family, and emit the three machine-checkable reduction outputs: a
minimum-compression decision instance, an edge-addition update instance,
and an edge-deletion update instance. An exhaustive set-cover solver and
the two-sided growth check for adding one set to a family serve as the
verification oracles. Every compression built here comes from the
oracle's _family_compression, so cluster vertices are numbered as in the
oracles' witnesses: n_sinks+1.. in (len, sorted) order of their sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .compression import DagCompression
from .graphs import Graph, ShorePartition, _LineReader
from .oracle import _family_compression, _min_set_cover, _source_graph, _standard_key, twinned_optimum

# setcover_exhaustive refuses collections with more sets than this.
_MAX_SETS = 20


class SetCoverFormatError(ValueError):
    """Raised for malformed set-cover text."""


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe {1..n}, a collection of distinct non-empty subsets, and a budget."""

    n: int
    sets: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        uni = self.universe
        for s in self.sets:
            if not s:
                raise ValueError("empty set in collection")
            if not s <= uni:
                raise ValueError(f"set {sorted(s)} not inside the universe 1..{self.n}")
        if len(set(self.sets)) != len(self.sets):
            raise ValueError("sets must be pairwise distinct")

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))


def read_setcover(text: str) -> SetCoverInstance:
    """Parse ``setcover <n> <|T|> <k>`` followed by ``s <id> <e1> <e2> ...`` lines."""
    r = _LineReader(text, SetCoverFormatError)
    n, t, k = r.record("setcover", 3)
    r.nonnegative("setcover", n)
    sets = []
    for i in range(1, r.nonnegative("setcover", t) + 1):
        sid, *elems = r.record("s", 2, more=True)
        if sid != i:
            raise SetCoverFormatError(f"set ids must be 1..{t} in order, got {sid}")
        sets.append(frozenset(elems))
    r.end()
    try:
        return SetCoverInstance(n=n, sets=tuple(sets), k=k)
    except ValueError as exc:
        raise SetCoverFormatError(str(exc)) from exc


def write_setcover(inst: SetCoverInstance) -> str:
    out = [f"setcover {inst.n} {len(inst.sets)} {inst.k}"]
    for i, s in enumerate(inst.sets, start=1):
        out.append("s " + " ".join([str(i)] + [str(e) for e in sorted(s)]))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ClosedFamily:
    """Sets in standard order: all singletons of the universe, then every
    non-empty initial segment of every member, non-decreasing by size."""

    universe_size: int
    sets: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.sets)

    def check_closed(self) -> None:
        present = set(self.sets)
        for e in range(1, self.universe_size + 1):
            if frozenset((e,)) not in present:
                raise ValueError(f"singleton {{{e}}} missing, family not closed")
        for s in self.sets:
            ordered = sorted(s)
            for i in range(1, len(ordered)):
                if frozenset(ordered[:i]) not in present:
                    raise ValueError(f"initial segment {ordered[:i]} of {ordered} missing")
        if list(self.sets) != sorted(self.sets, key=_standard_key):
            raise ValueError("family not in standard order")


def _close(sets, universe_size: int) -> ClosedFamily:
    family: set[frozenset[int]] = {frozenset((e,)) for e in range(1, universe_size + 1)}
    for s in sets:
        ordered = sorted(s)
        for i in range(1, len(ordered) + 1):
            family.add(frozenset(ordered[:i]))
    return ClosedFamily(universe_size=universe_size, sets=tuple(sorted(family, key=_standard_key)))


def _require_proper_cover(inst: SetCoverInstance) -> None:
    """The reductions' precondition: the collection covers the universe and
    the universe itself is not a member."""
    if frozenset().union(*inst.sets) != inst.universe:
        raise ValueError("collection does not cover the universe")
    if inst.universe in inst.sets:
        raise ValueError("universe must not be a member of the collection")


def close_standard_order(inst: SetCoverInstance) -> ClosedFamily:
    """Standard-order closure of the instance's collection.

    Requires the trivial cases to be out of the way: the collection covers
    the universe and the universe itself is not a member. The added sets are
    unions of nothing new, so the minimum cover size is unchanged.
    """
    _require_proper_cover(inst)
    return _close(inst.sets, inst.n)


@dataclass(frozen=True)
class TwinnedGraph:
    """Bipartite encoding of a set family with two twin source vertices per set.

    Element e of the universe is vertex e; set i (0-based) gets sources
    a = universe_size + 2i + 1 and b = universe_size + 2i + 2, as in _source_graph.
    """

    graph: Graph
    shores: ShorePartition
    sets: tuple[frozenset[int], ...]
    universe_size: int

    def a_vertex(self, i: int) -> int:
        return _twin_vertices(self.universe_size, i)[0]

    def b_vertex(self, i: int) -> int:
        return _twin_vertices(self.universe_size, i)[1]


def _twin_vertices(universe_size: int, i: int) -> tuple[int, int]:
    """The two source vertices of set i (0-based) in a twinned incidence graph."""
    return universe_size + 2 * i + 1, universe_size + 2 * i + 2


def twinned_incidence(sets, universe_size: int | None = None) -> TwinnedGraph:
    """The twinned incidence graph of a set family."""
    if isinstance(sets, ClosedFamily):
        universe_size = sets.universe_size
        sets = sets.sets
    if universe_size is None:
        raise ValueError("universe_size required for a raw set list")
    sets = tuple(frozenset(s) for s in sets)
    graph = _source_graph([s for s in sets for _ in range(2)], universe_size)
    shores = ShorePartition(shore1=frozenset(range(universe_size + 1, graph.n + 1)),
                            shore2=frozenset(range(1, universe_size + 1)))
    return TwinnedGraph(graph=graph, shores=shores, sets=sets, universe_size=universe_size)


def closure_compression_size(family: ClosedFamily) -> int:
    """Size of the canonical compression: 2 edges per set plus 2 arcs per
    non-singleton set (2p + 4q for p singletons and q larger sets)."""
    q = sum(1 for s in family.sets if len(s) >= 2)
    return 2 * family.m + 2 * q


def _closure_parts(family: ClosedFamily):
    """The clusters' children and the compression-edge pairs of the
    canonical compression of a closed family's twinned incidence graph.

    Each singleton's twins connect straight to the element; each larger set
    S is a cluster with two children, the initial segment missing max(S) and
    the sink max(S), plus one compression edge from each twin.
    """
    family.check_closed()
    children = {s: (s - {max(s)}, frozenset((max(s),))) for s in family.sets if len(s) >= 2}
    pairs = [(frozenset((t,)), s) for i, s in enumerate(family.sets)
             for t in _twin_vertices(family.universe_size, i)]
    return children, pairs


def canonical_closure_compression(family: ClosedFamily) -> DagCompression:
    """Compression of the twinned incidence graph of a closed family."""
    return _family_compression(
        True, family.universe_size + 2 * family.m, *_closure_parts(family)
    )


@dataclass
class MindagInstance:
    """Instance of the minimum-compression decision problem."""

    twinned: TwinnedGraph
    k_prime: int
    meta: dict = field(default_factory=dict)

    @property
    def graph(self) -> Graph:
        return self.twinned.graph


def reduce_mindag(inst: SetCoverInstance) -> MindagInstance:
    """Set cover -> minimum DAG compression.

    The question becomes: does the twinned incidence graph of the closure
    with the universe appended admit a compression of size at most
    k' = s + k + 2, where s = 2p + 4q is the optimal compression size of the
    closure's own twinned incidence graph. A cover of size k buys the
    universe's cluster vertex its k arcs; anything cheaper would yield a
    cheaper cover.
    """
    family = close_standard_order(inst)
    s_closure = closure_compression_size(family)
    target_sets = family.sets + (inst.universe,)
    twinned = twinned_incidence(target_sets, inst.n)
    k_prime = s_closure + inst.k + 2
    meta = {
        "n": inst.n,
        "k": inst.k,
        "m_closure": family.m,
        "m_with_target": family.m + 1,
        "s_closure": s_closure,
    }
    return MindagInstance(twinned=twinned, k_prime=k_prime, meta=meta)


@dataclass
class AddInstance:
    """Instance of the edge-addition update problem.

    graph is the twinned incidence graph of the infected closure plus one
    extra source s connected to every universe element except the infection
    element 1; compression is its (optimal) compression; new_edge = (s, 1).
    """

    graph: Graph
    compression: DagCompression
    new_edge: tuple[int, int]
    k_new: int
    family: ClosedFamily
    s_vertex: int
    meta: dict = field(default_factory=dict)


def _closure_and_source(family: ClosedFamily, s_vertex: int, targets) -> DagCompression:
    """The canonical closure compression with one more sink, s_vertex, and a
    compression edge from it to each target set."""
    children, pairs = _closure_parts(family)
    s_unit = frozenset((s_vertex,))
    return _family_compression(True, s_vertex, children, pairs + [(s_unit, t) for t in targets])


def _shift_instance(inst: SetCoverInstance) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(e + 1 for e in s) for s in inst.sets)


def reduce_add(inst: SetCoverInstance) -> AddInstance:
    """Set cover -> single-edge-addition update instance.

    Elements shift to 2..n+1 and every set is infected with element 1; the
    closure then has all its non-singleton sets infected. The extra source s
    is connected to 2..n+1 only, so no infected cluster may serve it and its
    edges stay direct in the optimal compression. Adding (s, 1) lets s reach
    the infected clusters of a minimum cover.
    """
    _require_proper_cover(inst)
    shifted = _shift_instance(inst)
    infected = tuple(s | {1} for s in shifted)
    family = _close(infected, inst.n + 1)
    sources = [s for s in family.sets for _ in range(2)] + [frozenset(range(2, inst.n + 2))]
    graph = _source_graph(sources, inst.n + 1)
    s_vertex = graph.n
    compression = _closure_and_source(
        family, s_vertex, [frozenset((e,)) for e in range(2, inst.n + 2)]
    )
    b_size = closure_compression_size(family)
    meta = {
        "n": inst.n,
        "k": inst.k,
        "m": family.m,
        "base_size": b_size,
        "compression_size": b_size + inst.n,
    }
    return AddInstance(
        graph=graph,
        compression=compression,
        new_edge=(s_vertex, 1),
        k_new=inst.k + b_size,
        family=family,
        s_vertex=s_vertex,
        meta=meta,
    )


def add_witness(ai: AddInstance, cover_indices: tuple[int, ...], inst: SetCoverInstance) -> DagCompression:
    """The yes-direction compression after adding (s, 1): s keeps one
    compression edge per cover set, pointed at the set's infected cluster."""
    infected = [frozenset(e + 1 for e in inst.sets[idx]) | {1} for idx in cover_indices]
    return _closure_and_source(ai.family, ai.s_vertex, infected)


@dataclass
class DeleteInstance:
    """Instance of the edge-deletion update problem."""

    graph: Graph
    compression: DagCompression
    removed_edge: tuple[int, int]
    k_new: int
    family: ClosedFamily
    full_set_index: int
    meta: dict = field(default_factory=dict)


def reduce_delete(inst: SetCoverInstance) -> DeleteInstance:
    """Set cover -> single-edge-deletion update instance.

    Elements shift to 2..n+1 and the full set {1..n+1} joins the collection;
    the closure contains its whole prefix chain. Removing the edge from one
    of the full set's twins to element 1 forbids that twin every infected
    cluster, so it must fall back on a minimum cover by the uninfected
    original sets. The optimum after deletion drops by 2 before the cover
    cost is added: the full set's cluster disappears and its other twin
    switches to the longest proper prefix plus the top element.
    """
    _require_proper_cover(inst)
    shifted = _shift_instance(inst)
    full = frozenset(range(1, inst.n + 2))
    family = _close(shifted + (full,), inst.n + 1)
    twinned = twinned_incidence(family)
    compression = canonical_closure_compression(family)
    b_size = closure_compression_size(family)
    j = family.m - 1  # the full set is strictly the largest, so it comes last
    removed = (twinned.a_vertex(j), 1)
    meta = {
        "n": inst.n,
        "k": inst.k,
        "m": family.m,
        "base_size": b_size,
        "compression_size": b_size,
    }
    return DeleteInstance(
        graph=twinned.graph,
        compression=compression,
        removed_edge=removed,
        k_new=inst.k + b_size - 2,
        family=family,
        full_set_index=j,
        meta=meta,
    )


def delete_witness(
    di: DeleteInstance, cover_indices: tuple[int, ...], inst: SetCoverInstance
) -> DagCompression:
    """The yes-direction compression after deleting the edge.

    The full set, always the family's last member, loses its cluster: the
    rest is the canonical compression of the other sets, the b-twin covers
    the universe via the longest proper prefix plus the top sink, and the
    a-twin covers 2..n+1 via the clusters of the chosen (uninfected) cover
    sets.
    """
    family = di.family
    u = family.universe_size
    children, pairs = _closure_parts(replace(family, sets=family.sets[:-1]))
    a, b = (frozenset((t,)) for t in _twin_vertices(u, di.full_set_index))
    pairs += [(b, frozenset(range(1, u))), (b, frozenset((u,)))]
    pairs += [(a, frozenset(e + 1 for e in inst.sets[idx])) for idx in cover_indices]
    return _family_compression(True, u + 2 * family.m, children, pairs)


def setcover_exhaustive(inst: SetCoverInstance) -> tuple[int, tuple[int, ...]]:
    """Exact minimum cover size with a witness of 0-based set indices."""
    if len(inst.sets) > _MAX_SETS:
        raise ValueError(f"instance has more than {_MAX_SETS} sets")
    universe = inst.universe
    if not frozenset().union(*inst.sets) >= universe:
        raise ValueError("universe cannot be covered")
    indices = range(len(inst.sets))
    for r in range(0, len(inst.sets) + 1):  # ends at the whole collection, a cover
        for combo in itertools.combinations(indices, r):
            if frozenset().union(*(inst.sets[i] for i in combo)) >= universe:
                return r, combo


@dataclass
class SandwichReport:
    """Result of the two-sided check for adding one set R to a family:
    s + k_sup + 2 <= s' <= s + k_eq + 2 (k_eq None when no exact cover exists)."""

    k_eq: int | None
    k_sup: int
    s: int
    s_prime: int
    holds: bool


def check_sandwich(sets, new_set, universe_size: int) -> SandwichReport:
    """Verify the optimal-size sandwich when new_set joins the family.

    Requires the new set to be inside the universe, coverable by the family,
    and not a subset of any single member. Optimal sizes come from the exact
    bipartite oracle, so the universe must stay tiny.
    """
    sets = tuple(frozenset(s) for s in sets)
    r = frozenset(new_set)
    if not r:
        raise ValueError("new set must be non-empty")
    if not r <= frozenset(range(1, universe_size + 1)):
        raise ValueError("new set outside the universe")
    if any(r <= s for s in sets):
        raise ValueError("new set must not be a subset of an existing member")
    if not r <= (frozenset().union(*sets) if sets else frozenset()):
        raise ValueError("new set not coverable by the family")

    k_sup = _min_set_cover(r, {s & r for s in sets} - {frozenset()}, len(r))[0]
    exact = _min_set_cover(r, [s for s in sets if s <= r], len(r))
    k_eq = exact[0] if exact else None

    s, _ = twinned_optimum(sets, universe_size)
    s_prime, _ = twinned_optimum(sets + (r,), universe_size)
    holds = (s + k_sup + 2 <= s_prime) and (k_eq is None or s_prime <= s + k_eq + 2)
    return SandwichReport(k_eq=k_eq, k_sup=k_sup, s=s, s_prime=s_prime, holds=holds)
