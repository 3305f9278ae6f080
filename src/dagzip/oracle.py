"""Exact minimum-size DAG compressions for tiny instances.

The generic search enumerates families of distinct non-singleton sink
subsets as candidate cluster sets. Restricting to one vertex per distinct
cluster set and to proper-subset children loses nothing: vertices sharing a
cluster set can be collapsed onto the topologically last one (redirecting
incidences, dropping intra-class arcs) without growing the size, and after
collapsing, an arc to an equal-set child would be a cycle. Arcs are costed
per family member by an exact minimum cover of the set by smaller members
and singletons; compression edges by an exact minimum cover of the edge set
by admissible products. The self-check against an enumeration that allows
duplicate cluster sets and non-proper children lives in the tests.

Every minimum cover here and in reductions.check_sandwich comes from one
depth-first search (_min_cover): candidates largest first, branching on
the smallest uncovered element, and a branch is cut when its count plus
ceil(uncovered / largest candidate) cannot beat the best cover found.

For directed bipartite graphs there is always a minimum-size compression in
which every cluster vertex describes a subset of the sink shore and every
compression edge leaves a source vertex directly (moving a source-side
cluster's incidences across, arcs becoming edges and vice versa, is
size-neutral and removes it from the source side). Minimizing then reduces
to choosing a helper family of sink subsets: each source pays an exact
cover of its out-neighborhood, each helper pays an exact cover by smaller
helpers and singletons. That search handles graphs far beyond the generic
sink budget, e.g. twinned incidence graphs of set families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

from .compression import DagCompression
from .graphs import Graph, canonical_edge


class OracleBudgetExceeded(ValueError):
    """The instance is larger than the configured exhaustive-search budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_sinks: int = 4
    max_nonsingleton_clusters: int = 6
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
    search order.
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


def _family_arc_cost(
    family: tuple[frozenset[int], ...], upper: int
) -> tuple[int, dict[frozenset[int], tuple[frozenset[int], ...]]] | None:
    """Total arcs to realize every family set from proper subsets and singletons."""
    total = 0
    children: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
    for x in family:
        cands = [y for y in family if y < x] + [frozenset((e,)) for e in x]
        got = _min_set_cover(x, cands, min(len(x), upper - total))
        if got is None:
            return None
        cnt, chosen = got
        total += cnt
        children[x] = chosen
        if total >= upper:
            return None
    return total, children


def _cluster_ids(family, n_sinks: int) -> dict[frozenset[int], int]:
    """Witness vertex ids n_sinks+1.. for the family's sets, in (len, sorted) order."""
    return {s: n_sinks + 1 + i for i, s in enumerate(sorted(family, key=_standard_key))}


def _unit_id(cid: dict[frozenset[int], int], s: frozenset[int]) -> int:
    return next(iter(s)) if len(s) == 1 else cid[s]


def _witness_arcs(cid: dict[frozenset[int], int], children) -> frozenset[tuple[int, int]]:
    return frozenset((cid[x], _unit_id(cid, ch)) for x in cid for ch in children[x])


def _admissible_products(
    edge_set: frozenset[tuple[int, int]],
    units: list[tuple[int, frozenset[int]]],
    directed: bool,
) -> list[tuple[tuple[int, int], frozenset[tuple[int, int]]]]:
    """All unit pairs whose full product lies inside the edge set."""
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


def min_dag_size(g: Graph, budget: OracleBudget | None = None) -> tuple[int, DagCompression]:
    """Exact minimum of |A| + |E| over all DAG compressions of g, with witness.

    Without a size_cap the returned value is the true minimum; with one the
    search stops at the first compression within the cap.
    """
    budget = budget or OracleBudget()
    if g.n > budget.max_sinks:
        raise OracleBudgetExceeded(f"{g.n} sinks exceed the budget of {budget.max_sinks}")
    edge_set = g.edges
    direct = DagCompression(
        directed=g.directed, n_sinks=g.n, n_clusters=0,
        arcs=frozenset(), cedges=edge_set,
    )
    best_size = len(edge_set)
    best_witness = direct
    if not edge_set:
        return 0, direct
    sinks = list(range(1, g.n + 1))
    subsets = [
        frozenset(c)
        for r in range(2, g.n + 1)
        for c in itertools.combinations(sinks, r)
    ]
    subsets.sort(key=_standard_key)
    max_family = min(budget.max_nonsingleton_clusters, len(subsets))
    done = False
    for fam_size in range(0, max_family + 1):
        if done or 2 * fam_size >= best_size:
            break
        for fam in itertools.combinations(subsets, fam_size):
            got = _family_arc_cost(fam, best_size)
            if got is None:
                continue
            arc_cost, children = got
            cid = _cluster_ids(fam, g.n)
            units = [(v, frozenset((v,))) for v in sinks] + [(i, s) for s, i in cid.items()]
            products = _admissible_products(edge_set, units, g.directed)
            cover = _min_cover(edge_set, products, best_size - arc_cost - 1)
            if cover is None:
                continue
            edge_cost, chosen = cover
            total = arc_cost + edge_cost
            if total < best_size:
                best_size = total
                best_witness = DagCompression(
                    directed=g.directed, n_sinks=g.n, n_clusters=len(cid),
                    arcs=_witness_arcs(cid, children), cedges=frozenset(chosen),
                )
                if budget.size_cap is not None and best_size <= budget.size_cap:
                    done = True
                    break
    return best_size, best_witness


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
    max_universe: int = 5,
) -> tuple[int, DagCompression]:
    """Exact optimum for a directed bipartite graph given per-source neighborhoods.

    Sinks 1..universe_size form the target shore; source i (vertex id
    universe_size + i) has out-edges to exactly neighborhoods[i-1]. Exhaustive
    over helper-cluster families of non-singleton sink subsets, pruned by a
    running best. Sound for any number of sources, so twinned incidence
    graphs of set families are in scope.
    """
    if universe_size > max_universe:
        raise OracleBudgetExceeded(
            f"universe of {universe_size} exceeds the bipartite budget of {max_universe}"
        )
    elems = list(range(1, universe_size + 1))
    neighborhoods = tuple(frozenset(s) for s in neighborhoods)
    for s in neighborhoods:
        if not s <= set(elems):
            raise ValueError("neighborhood outside the universe")
    subsets = [
        frozenset(c)
        for r in range(2, universe_size + 1)
        for c in itertools.combinations(elems, r)
    ]
    subsets.sort(key=_standard_key)

    @lru_cache(maxsize=None)
    def _cover_filtered(target: frozenset[int], avail: tuple[frozenset[int], ...]):
        return _min_set_cover(target, avail + tuple(frozenset((e,)) for e in target), len(target))

    def cover(target: frozenset[int], fam: tuple[frozenset[int], ...]):
        return _cover_filtered(target, tuple(y for y in fam if y < target))

    distinct = sorted({s for s in neighborhoods if s}, key=_standard_key)
    multiplicity = {s: sum(1 for nb in neighborhoods if nb == s) for s in distinct}
    # Every non-empty source pays at least one compression edge.
    floor_edges = sum(multiplicity.values())

    best_size: int | None = None
    best = None
    for fam_size in range(0, len(subsets) + 1):
        if best_size is not None and 2 * fam_size + floor_edges >= best_size:
            break
        stop = False
        for fam in itertools.combinations(subsets, fam_size):
            total = 0
            children: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
            feasible = True
            for x in fam:
                cnt, chosen = cover(x, fam)
                total += cnt
                children[x] = chosen
                if best_size is not None and total + floor_edges >= best_size:
                    feasible = False
                    break
            if not feasible:
                continue
            fam_set = set(fam)
            source_pick: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
            for nb in distinct:
                if nb in fam_set:
                    cnt, chosen = 1, (nb,)
                else:
                    cnt, chosen = cover(nb, fam)
                total += cnt * multiplicity[nb]
                source_pick[nb] = chosen
                if best_size is not None and total >= best_size:
                    feasible = False
                    break
            if not feasible:
                continue
            if best_size is None or total < best_size:
                best_size = total
                per_source = tuple(
                    source_pick[nb] if nb else () for nb in neighborhoods
                )
                best = (fam, children, per_source)
                if size_cap is not None and best_size <= size_cap:
                    stop = True
                    break
        if stop:
            break
    assert best is not None
    fam, children, per_source = best
    n_sinks = universe_size + len(neighborhoods)
    cid = _cluster_ids(fam, n_sinks)
    cedges = frozenset(
        (universe_size + 1 + i, _unit_id(cid, piece))
        for i, chosen in enumerate(per_source)
        for piece in chosen
    )
    witness = DagCompression(
        directed=True,
        n_sinks=n_sinks,
        n_clusters=len(cid),
        arcs=_witness_arcs(cid, children),
        cedges=cedges,
    )
    return best_size, witness


def twinned_optimum(
    sets: tuple[frozenset[int], ...], universe_size: int, size_cap: int | None = None
) -> tuple[int, DagCompression]:
    """Optimal compression size of the twinned incidence graph of a set family."""
    doubled = tuple(s for s in sets for _ in range(2))
    return min_bipartite_size(doubled, universe_size, size_cap=size_cap)
