"""Exact minimum-size DAG compressions for tiny instances.

Both oracles run one search (_family_search) over families of distinct
non-singleton sink subsets as the cluster sets, by family size, keeping
the first strict improvement and stopping at the bound 2 |F| + floor
(every non-singleton cluster needs two arcs). A family pays arcs for an
exact minimum cover of each member by smaller members and singletons,
memoised per call; only the pricing of the compression edges differs.

The generic oracle prices the compression edges by an exact minimum cover
of the edge set by admissible products. Restricting to one vertex per
distinct cluster set and to proper-subset children loses nothing: vertices
sharing a cluster set can be collapsed onto the topologically last one
(redirecting incidences, dropping intra-class arcs) without growing the
size, and after collapsing, an arc to an equal-set child would be a cycle.
The self-check against an enumeration that allows duplicate cluster sets
and non-proper children lives in the tests.

For directed bipartite graphs there is always a minimum-size compression in
which every cluster vertex describes a subset of the sink shore and every
compression edge leaves a source vertex directly (moving a source-side
cluster's incidences across, arcs becoming edges and vice versa, is
size-neutral and removes it from the source side). The bipartite oracle
therefore prices each source by an exact cover of its out-neighborhood by
the family's members and singletons. That search handles graphs far beyond
the generic sink budget, e.g. twinned incidence graphs of set families.

Every minimum cover here and in reductions.check_sandwich comes from one
depth-first search (_min_cover): candidates largest first, branching on
the smallest uncovered element, and a branch is cut when its count plus
ceil(uncovered / largest candidate) cannot beat the best cover found.
Every witness, here and in reductions, is built by _family_compression,
which numbers the cluster vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .compression import DagCompression
from .graphs import Graph, canonical_edge

# The generic search tries families of at most this many cluster sets.
_MAX_CLUSTERS = 6
# The bipartite search enumerates subsets of a universe of at most this size.
_MAX_UNIVERSE = 5


class OracleBudgetExceeded(ValueError):
    """The instance is larger than the configured exhaustive-search budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_sinks: int = 4
    size_cap: int | None = None

    def __post_init__(self):
        if self.max_sinks > 5:
            raise ValueError("max_sinks is capped at 5")
        if self.max_sinks < 1:
            raise ValueError("max_sinks must be positive")


def _min_cover(target: frozenset, cands: list[tuple], upper: int) -> tuple[int, tuple] | None:
    """Fewest candidate sets whose union is the target, or None above `upper`.

    cands are (key, set) pairs of subsets of the target, largest set first;
    the chosen keys come back. The search branches on the smallest uncovered
    element and prunes a branch once even the largest set could not finish
    it below the best cover so far, so it returns the first minimum cover in
    search order, whatever `upper` is as long as that cover fits under it.
    """
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


def _standard_key(s: frozenset[int]):
    return len(s), sorted(s)


def _min_set_cover(target: frozenset[int], sets, upper: int):
    """_min_cover by distinct subsets of the target, in (-len, sorted) order."""
    cands = sorted(sets, key=lambda s: (-len(s), sorted(s)))
    return _min_cover(target, [(c, c) for c in cands], upper)


def _sink_subsets(n: int) -> list[frozenset[int]]:
    """Every subset of 1..n with at least two elements, in (len, sorted) order."""
    sinks = range(1, n + 1)
    return [frozenset(c) for r in range(2, n + 1) for c in itertools.combinations(sinks, r)]


def _family_arc_cost(family, upper: int, cover):
    """Total arcs to realize every family set from proper subsets and
    singletons, with each set's children, or None unless below `upper`."""
    total = 0
    children: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
    for x in family:
        got = cover(x, family, upper - total - 1)
        if got is None:
            return None
        total += got[0]
        children[x] = got[1]
    return total, children


def _family_search(subsets, max_family: int, floor: int, best_size: int, best,
                   size_cap: int | None, price_edges):
    """The first family of subsets, by family size, that beats best_size.

    price_edges(family, cover, upper) gives the compression edges' count and
    their (unit, unit) pairs, or None above `upper`; floor is a lower bound
    on that count for every family. Each improvement replaces best by
    (family, children, pairs); the search ends once the bound 2 |F| + floor
    reaches the best size, or at the first improvement within size_cap.
    """
    memo: dict = {}

    def cover(x, family, upper):
        # First minimum cover of x by the family's proper subsets of x and singletons.
        avail = tuple(filter(x.__gt__, family))
        key = x, avail
        got = memo.get(key)
        if got is None:
            got = memo[key] = _min_set_cover(x, avail + tuple(frozenset((e,)) for e in x), len(x))
        return got if got[0] <= upper else None

    for fam_size in range(max_family + 1):
        if 2 * fam_size + floor >= best_size:
            break
        for family in itertools.combinations(subsets, fam_size):
            arcs = _family_arc_cost(family, best_size - floor, cover)
            if arcs is None:
                continue
            edges = price_edges(family, cover, best_size - arcs[0] - 1)
            if edges is None:
                continue
            best_size, best = arcs[0] + edges[0], (family, arcs[1], edges[1])
            if size_cap is not None and best_size <= size_cap:
                return best_size, best
    return best_size, best


def _family_compression(directed: bool, n_sinks: int, family, children, pairs) -> DagCompression:
    """The compression whose cluster vertices n_sinks+1.. realize the
    family's sets in (len, sorted) order, each with an arc to every one of
    its children, and whose compression edges join the two units of each
    pair. A unit is a family set or a singleton, which is its own sink."""
    cid = {s: n_sinks + 1 + i for i, s in enumerate(sorted(family, key=_standard_key))}

    def unit(s):
        return next(iter(s)) if len(s) == 1 else cid[s]

    return DagCompression(
        directed=directed,
        n_sinks=n_sinks,
        n_clusters=len(cid),
        arcs=frozenset((cid[x], unit(ch)) for x in cid for ch in children[x]),
        cedges=frozenset((unit(a), unit(b)) for a, b in pairs),
    )


def _admissible_products(edge_set: frozenset[tuple[int, int]], units, directed: bool):
    """(a, b, product) for every pair of units whose full product lies inside
    the edge set, largest product first, then in `units` order (b after a
    when undirected)."""
    out = []
    for i, a in enumerate(units):
        for b in units if directed else units[i:]:
            prod = frozenset(canonical_edge(directed, x, y) for x in a for y in b)
            if prod <= edge_set:
                out.append((a, b, prod))
    out.sort(key=lambda t: -len(t[2]))
    return out


def min_dag_size(g: Graph, budget: OracleBudget | None = None) -> tuple[int, DagCompression]:
    """Exact minimum of |A| + |E| over all DAG compressions of g, with witness.

    Without a size_cap the returned value is the true minimum; with one the
    search stops at the first compression within the cap.
    """
    budget = budget or OracleBudget()
    if g.n > budget.max_sinks:
        raise OracleBudgetExceeded(f"{g.n} sinks exceed the budget of {budget.max_sinks}")
    edge_set = g.edges
    singles = [frozenset((v,)) for v in range(1, g.n + 1)]
    subsets = _sink_subsets(g.n)
    # Units in (len, sorted) order are in witness-id order for every family,
    # so one stable sort here orders each family's products by (-len, ids).
    products = _admissible_products(edge_set, singles + subsets, g.directed)

    def price_edges(family, _cover, upper):
        units = set(singles).union(family)
        cands = [((a, b), prod) for a, b, prod in products if a in units and b in units]
        return _min_cover(edge_set, cands, upper)

    direct = ((), {}, [(frozenset((u,)), frozenset((v,))) for u, v in edge_set])
    size, (family, children, pairs) = _family_search(
        subsets, min(_MAX_CLUSTERS, len(subsets)), 0, len(edge_set), direct,
        budget.size_cap, price_edges,
    )
    return size, _family_compression(g.directed, g.n, family, children, pairs)


def decide_mindag(
    g: Graph, k: int, budget: OracleBudget | None = None
) -> tuple[bool, DagCompression | None]:
    """Does g admit a compression of size at most k? Witness returned on yes."""
    size, witness = min_dag_size(g, replace(budget or OracleBudget(), size_cap=k))
    if size <= k:
        return True, witness
    return False, None


def min_bipartite_size(
    neighborhoods: tuple[frozenset[int], ...],
    universe_size: int,
    size_cap: int | None = None,
) -> tuple[int, DagCompression]:
    """Exact optimum for a directed bipartite graph given per-source neighborhoods.

    Sinks 1..universe_size form the target shore; source i (vertex id
    universe_size + i) has out-edges to exactly neighborhoods[i-1]. Exhaustive
    over helper-cluster families of non-singleton sink subsets, pruned by a
    running best. Sound for any number of sources, so twinned incidence
    graphs of set families are in scope.
    """
    if universe_size > _MAX_UNIVERSE:
        raise OracleBudgetExceeded(
            f"universe of {universe_size} exceeds the bipartite budget of {_MAX_UNIVERSE}"
        )
    universe = frozenset(range(1, universe_size + 1))
    neighborhoods = tuple(frozenset(s) for s in neighborhoods)
    for s in neighborhoods:
        if not s <= universe:
            raise ValueError("neighborhood outside the universe")
    distinct = sorted({s for s in neighborhoods if s}, key=_standard_key)
    multiplicity = {s: neighborhoods.count(s) for s in distinct}
    sources = [(frozenset((universe_size + 1 + i,)), nb)
               for i, nb in enumerate(neighborhoods) if nb]

    def price_edges(family, cover, upper):
        total = 0
        picks = {}
        for nb in distinct:
            cnt, picks[nb] = (1, (nb,)) if nb in family else cover(nb, family, len(nb))
            total += cnt * multiplicity[nb]
            if total > upper:
                return None
        return total, [(src, piece) for src, nb in sources for piece in picks[nb]]

    # Every non-empty source pays at least one compression edge. The empty
    # family prices the direct compression, so one more than its size means
    # that nothing has been found yet.
    subsets = _sink_subsets(universe_size)
    direct = sum(len(nb) for nb in neighborhoods)
    size, (family, children, pairs) = _family_search(
        subsets, len(subsets), len(sources), direct + 1, None, size_cap, price_edges,
    )
    n_sinks = universe_size + len(neighborhoods)
    return size, _family_compression(True, n_sinks, family, children, pairs)


def twinned_optimum(
    sets: tuple[frozenset[int], ...], universe_size: int, size_cap: int | None = None
) -> tuple[int, DagCompression]:
    """Optimal compression size of the twinned incidence graph of a set family."""
    doubled = tuple(s for s in sets for _ in range(2))
    return min_bipartite_size(doubled, universe_size, size_cap=size_cap)
