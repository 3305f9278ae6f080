"""Exact minimum-size DAG compressions for tiny instances.

Sink sets are int bitmasks: bit e stands for sink e, so the lowest set bit
is the smallest element. The candidate cluster sets are _sink_subsets(n),
the non-singleton subsets in (len, sorted) order, and a family of them is
an index mask over that list. Sets turn back into frozensets only for the
witness, which is built once, after the search, from the winning family.

Both oracles run one search (_family_search) over families in combinations
order by family size, keeping the first strict improvement and stopping at
the bound 2 |F| + floor (every non-singleton cluster needs two arcs). A
family pays arcs for an exact minimum cover of each member by smaller
members and singletons. Each target set has a memo of covers per call
(_CoverMemo) on a layout computed once per process, at first use. Its key is
family & below, the members that may serve it, so a lookup is one AND and
one dict get. A key reduces to its maximal members, and the cover of those
depends on nothing else, so the layout holds one table of them per process:
each such cover is searched once and shared by every later call. Families
grow member by member, and a partial family is dropped with all its
extensions once the arcs and edges it already fixes reach the best size.
Only the pricing of the compression edges differs.

The generic oracle prices the compression edges by an exact minimum cover
of the edge set, as a mask whose bit i is the i-th edge in sorted order, by
admissible products, each carrying the family bits of the units it needs.
A unit pair is admissible when the second unit's sinks lie inside the
common out-neighbour mask of the first unit's members, so one AND decides
it, and only admissible pairs build their edge masks.
Restricting to one vertex per distinct cluster set and to proper-subset
children loses nothing: vertices sharing a cluster set can be collapsed
onto the topologically last one (redirecting incidences, dropping
intra-class arcs) without growing the size, and after collapsing, an arc to
an equal-set child would be a cycle. The self-check against an enumeration
that allows duplicate cluster sets and non-proper children lives in the
tests.

For directed bipartite graphs there is always a minimum-size compression in
which every cluster vertex describes a subset of the sink shore and every
compression edge leaves a source vertex directly (moving a source-side
cluster's incidences across, arcs becoming edges and vice versa, is
size-neutral and removes it from the source side). The bipartite oracle
therefore prices each source by an exact cover of its out-neighborhood by
the family's subsets of it and singletons. A neighborhood's subsets come
no later than itself, so its price is fixed once the growing family has
passed it. That search handles graphs far beyond the generic sink budget,
e.g. twinned incidence graphs of set families.

Every minimum cover here and in reductions.check_sandwich comes from one
depth-first search on masks (_min_cover): candidates largest first,
branching on the lowest uncovered bit, and a branch is cut when its count
plus ceil(uncovered / largest candidate) cannot beat the best cover found.
Every witness, here and in reductions, is built by _family_compression,
which numbers the cluster vertices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .compression import DagCompression
from .graphs import Graph

# The generic search tries families of at most this many cluster sets.
_MAX_CLUSTERS = 6
# The bipartite search enumerates subsets of a universe of at most this size.
_MAX_UNIVERSE = 5


class OracleBudgetExceeded(ValueError):
    """The instance is larger than the configured exhaustive-search budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_sinks: int = 4

    def __post_init__(self):
        if self.max_sinks > 5:
            raise ValueError("max_sinks is capped at 5")
        if self.max_sinks < 1:
            raise ValueError("max_sinks must be positive")


def _mask(s) -> int:
    """The bitmask of a set of sinks: bit e stands for sink e."""
    return sum(1 << e for e in s)


@functools.cache
def _elements(mask: int) -> frozenset[int]:
    """The set of sinks of a mask; the oracles only pass masks below 2^6."""
    return frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)


def _min_cover(target: int, cands: list[tuple], upper: int) -> tuple[int, tuple] | None:
    """Fewest candidate masks whose union is the target mask, or None above `upper`.

    cands are (key, mask) pairs of subsets of the target, largest mask first;
    the chosen keys come back. The search branches on the lowest uncovered
    bit and prunes a branch once even the largest mask could not finish it
    below the best cover so far, so it returns the first minimum cover in
    search order, whatever `upper` is as long as that cover fits under it.
    """
    best = [upper + 1, ()]
    largest = cands[0][1].bit_count() if cands else 1

    def dfs(uncovered, used, chosen):
        # Entered only while uncovered is non-empty and the bound is below best.
        e = uncovered & -uncovered
        used += 1
        for key, c in cands:
            if c & e:
                rest = uncovered & ~c
                if not rest:
                    if used < best[0]:
                        best[:] = used, chosen + (key,)
                elif used + -(-rest.bit_count() // largest) < best[0]:
                    dfs(rest, used, chosen + (key,))

    if not target:
        best[:] = 0, ()
    elif -(-target.bit_count() // largest) <= upper:
        dfs(target, 0, ())
    return None if best[0] > upper else (best[0], best[1])


def _standard_key(s: frozenset[int]):
    return len(s), sorted(s)


def _min_set_cover(target: frozenset[int], sets, upper: int):
    """_min_cover by distinct subsets of the target, in (-len, sorted) order."""
    cands = sorted(sets, key=lambda s: (-len(s), sorted(s)))
    return _min_cover(_mask(target), [(c, _mask(c)) for c in cands], upper)


@functools.cache
def _sink_subsets(n: int) -> tuple[int, ...]:
    """Masks of every subset of 1..n with at least two elements, in (len, sorted) order."""
    sinks = [1 << e for e in range(1, n + 1)]
    return tuple(sum(c) for r in range(2, n + 1) for c in itertools.combinations(sinks, r))


@functools.cache
def _cover_layout(n: int, target: int, proper: bool):
    """A _CoverMemo's per-process part, built at first use: below, the inside
    candidates largest first, the _above masks, the singletons and the table
    of searched covers keyed by maximal members, which every call shares."""
    inside = [(i, s) for i, s in enumerate(_sink_subsets(n))
              if not s & ~target and not (proper and s == target)]
    inside.sort(key=lambda t: -t[1].bit_count())
    # For each member's bit, the bits of the larger members containing it.
    above = {1 << i: sum(1 << j for j, t in inside if s != t and not s & ~t) for i, s in inside}
    return (sum(1 << i for i, _ in inside), tuple((1 << i, (s, s)) for i, s in inside), above,
            tuple((1 << e, 1 << e) for e in sorted(_elements(target))), {})


class _CoverMemo(dict):
    """First minimum covers of one target mask by singletons and the family
    members inside it, keyed by family & below, on a per-process layout.

    below has bit i set when _sink_subsets(n)[i] may serve: a proper subset
    of the target, or (proper=False) any subset of it. Candidates go largest
    first, then in subsets order, so in (-len, sorted) order, then singletons.

    A candidate inside another one never appears in the first minimum
    cover: the larger one comes first in the search and does at least as
    well. So every key shares the cover of its maximal members (top). A
    cover depends only on (n, target, proper) and top, never on the
    instance, so top -> cover lives in the layout's table and each one is
    searched once per process; key -> cover stays in this per-call dict,
    because keys range over every family and tops only over antichains.
    """

    __slots__ = ("target", "below", "_inside", "_above", "_singles", "_tops")

    def __init__(self, n: int, target: int, proper: bool = True):
        super().__init__()
        self.target = target
        layout = _cover_layout(n, target, proper)
        self.below, self._inside, self._above, self._singles, self._tops = layout

    def __missing__(self, key: int):
        top = rest = key
        while rest:
            bit = rest & -rest
            rest ^= bit
            if key & self._above[bit]:
                top ^= bit
        got = self._tops.get(top)
        if got is None:
            cands = [pair for bit, pair in self._inside if top & bit]
            cands += self._singles
            got = self._tops[top] = _min_cover(self.target, cands, self.target.bit_count())
        self[key] = got
        return got


def _family_search(n: int, max_family: int, floor: int, best_size: int,
                   size_cap: int | None, price_edges, settled=None):
    """(size, family, children) of the first family of _sink_subsets(n), in
    combinations order by family size, that beats best_size; family 0 if
    none does. price_edges(family, upper) gives the compression edges'
    count, or None above `upper`; floor bounds that count below. The search
    ends once 2 |F| + floor reaches the best size, or at the first
    improvement within size_cap; the best family's children come last.

    Families grow one member at a time in increasing index order. A member's
    children are smaller sets, so they come earlier and its cover is known
    once it joins. Every member needs at least two children. settled maps an
    index i to a term (cover, multiplicity) of the edge count that only
    members up to subsets[i] can change; it costs multiplicity times the
    cover's size, of which floor holds one edge per multiplicity, and its
    cost is known once the search has passed i. A partial family whose arcs,
    two arcs per missing member, floor and its known terms reach the best
    size is dropped with every extension of it, which skips only families
    that could not improve.
    """
    covers = [_CoverMemo(n, s) for s in _sink_subsets(n)]
    terms = [(settled or {}).get(i) for i in range(len(covers))]
    best = 0

    def grow(start: int, left: int, family: int, arcs: int, extra: int) -> bool:
        # Extend the family by `left` members from index start; True stops the search.
        nonlocal best_size, best
        if not left:
            edges = price_edges(family, best_size - arcs - 1)
            if edges is None:
                return False
            best_size, best = arcs + edges, family
            return size_cap is not None and best_size <= size_cap
        bound = floor + 2 * (left - 1)
        for i in range(start, len(covers) - left + 1):
            c = covers[i]
            got = arcs + c[family & c.below][0]
            if got + bound + extra < best_size and grow(i + 1, left - 1, family | 1 << i, got, extra):
                return True
            # Skipping i settles its term; no later member costs under two arcs.
            term = terms[i]
            if term is not None:
                t, multiplicity = term
                extra += (t[family & t.below][0] - 1) * multiplicity
                if arcs + bound + 2 + extra >= best_size:
                    break
        return False

    for fam_size in range(max_family + 1):
        if 2 * fam_size + floor >= best_size or grow(0, fam_size, 0, 0, 0):
            break
    children = {_elements(c.target): tuple(map(_elements, c[best & c.below][1]))
                for i, c in enumerate(covers) if best >> i & 1}
    return best_size, best, children


def _family_compression(directed: bool, n_sinks: int, children: dict, pairs) -> DagCompression:
    """The compression whose cluster vertices n_sinks+1.. realize the sets
    keying children in (len, sorted) order, each with an arc to every one of
    its children, and whose compression edges join the two units of each
    pair. A unit is a family set or a singleton, which is its own sink."""
    cid = {s: n_sinks + 1 + i for i, s in enumerate(sorted(children, key=_standard_key))}

    def unit(s):
        return next(iter(s)) if len(s) == 1 else cid[s]

    return DagCompression(
        directed=directed,
        n_sinks=n_sinks,
        n_clusters=len(cid),
        arcs=frozenset((cid[x], unit(ch)) for x in cid for ch in children[x]),
        cedges=frozenset((unit(a), unit(b)) for a, b in pairs),
    )


def _admissible_products(edges: list, units, directed: bool):
    """((a, b), product, needs) for every pair of units whose full product
    lies inside the edge list, largest product first, then in `units` order
    (b after a when undirected). units are (family bit, set) pairs, the
    product is a mask whose bit i is edges[i], and needs the family bits of
    a and b. A pair is admissible when b's sink mask lies inside the common
    out-neighbour mask of a's members, one AND; only then is its product
    built."""
    edge_bit = {e: 1 << i for i, e in enumerate(edges)}
    edge_bit.update({(v, u): bit for (u, v), bit in edge_bit.items() if not directed})
    out_nbrs: dict[int, int] = {}
    for u, v in edge_bit:
        out_nbrs[u] = out_nbrs.get(u, 0) | 1 << v
    masks = [_mask(s) for _, s in units]
    out = []
    for i, (need_a, a) in enumerate(units):
        common = -1
        for x in a:
            common &= out_nbrs.get(x, 0)
        if not common:
            continue
        for j in range(0 if directed else i, len(units)):
            if not masks[j] & ~common:
                need_b, b = units[j]
                prod = 0
                for pair in itertools.product(a, b):
                    prod |= edge_bit[pair]
                out.append(((a, b), prod, need_a | need_b))
    out.sort(key=lambda t: -t[1].bit_count())
    return out


def min_dag_size(g: Graph, budget: OracleBudget | None = None,
                 size_cap: int | None = None) -> tuple[int, DagCompression]:
    """Exact minimum of |A| + |E| over all DAG compressions of g, with witness.

    Without a size_cap the returned value is the true minimum; with one the
    search stops at the first compression within the cap. Raises ValueError
    on a weighted graph.
    """
    if g.weighted:
        raise ValueError("the oracle works on unweighted graphs")
    budget = budget or OracleBudget()
    if g.n > budget.max_sinks:
        raise OracleBudgetExceeded(f"{g.n} sinks exceed the budget of {budget.max_sinks}")
    edges = sorted(g.edges)
    subsets = _sink_subsets(g.n)
    # Units in (len, sorted) order are in witness-id order for every family,
    # so one stable sort here orders each family's products by (-len, ids).
    units = [(0, frozenset((v,))) for v in range(1, g.n + 1)]
    units += [(1 << i, _elements(s)) for i, s in enumerate(subsets)]
    products = _admissible_products(edges, units, g.directed)
    everything = (1 << len(edges)) - 1

    def price_edges(family, upper):
        cands = [(key, prod) for key, prod, needs in products if not needs & ~family]
        got = _min_cover(everything, cands, upper)
        return None if got is None else got[0]

    # Family 0 is the direct compression. The winner's cover is searched again:
    # _min_cover gives the same first minimum cover under any bound that admits it.
    size, family, children = _family_search(g.n, min(_MAX_CLUSTERS, len(subsets)), 0, len(edges),
                                            size_cap, price_edges)
    cands = [(key, prod) for key, prod, needs in products if not needs & ~family]
    return size, _family_compression(g.directed, g.n, children, _min_cover(everything, cands, size)[1])


def decide_mindag(g: Graph, k: int,
                  budget: OracleBudget | None = None) -> tuple[bool, DagCompression | None]:
    """Does g admit a compression of size at most k? Witness returned on yes."""
    size, witness = min_dag_size(g, budget, size_cap=k)
    return (True, witness) if size <= k else (False, None)


def min_bipartite_size(neighborhoods: tuple[frozenset[int], ...], universe_size: int,
                       size_cap: int | None = None) -> tuple[int, DagCompression]:
    """Exact optimum for a directed bipartite graph given per-source neighborhoods.

    The graph is _source_graph(neighborhoods, universe_size): sinks
    1..universe_size, then one source per neighborhood. Exhaustive
    over helper-cluster families of non-singleton sink subsets, pruned by a
    running best. Sound for any number of sources, so twinned incidence
    graphs of set families are in scope.
    """
    if universe_size > _MAX_UNIVERSE:
        raise OracleBudgetExceeded(f"universe of {universe_size} exceeds the bipartite "
                                   f"budget of {_MAX_UNIVERSE}")
    universe = frozenset(range(1, universe_size + 1))
    neighborhoods = tuple(frozenset(s) for s in neighborhoods)
    if any(s - universe for s in neighborhoods):
        raise ValueError("neighborhood outside the universe")
    # A source pays an exact cover of its neighborhood by the family's
    # subsets of it (the neighborhood itself included) and singletons: one
    # edge at least, and exactly one for a singleton neighborhood.
    distinct = sorted({s for s in neighborhoods if s}, key=_standard_key)
    covers = {nb: _CoverMemo(universe_size, _mask(nb), proper=False) for nb in distinct}
    priced = [(covers[nb], neighborhoods.count(nb)) for nb in distinct if len(nb) > 1]
    # The subsets of a neighborhood come at or before it in subsets order.
    position = {s: i for i, s in enumerate(_sink_subsets(universe_size))}
    sources = [(frozenset((universe_size + 1 + i,)), covers[nb])
               for i, nb in enumerate(neighborhoods) if nb]

    def price_edges(family, upper):
        total = len(sources)
        for c, multiplicity in priced:
            total += (c[family & c.below][0] - 1) * multiplicity
            if total > upper:
                return None
        return total

    # Every non-empty source pays at least one compression edge. The empty
    # family prices the direct compression, so one more than its size means
    # that nothing has been found yet.
    direct = sum(len(nb) for nb in neighborhoods)
    settled = {position[c.target]: (c, multiplicity) for c, multiplicity in priced}
    size, family, children = _family_search(universe_size, len(position), len(sources),
                                            direct + 1, size_cap, price_edges, settled)
    pairs = [(src, _elements(piece)) for src, c in sources for piece in c[family & c.below][1]]
    return size, _family_compression(True, universe_size + len(neighborhoods), children, pairs)


def _source_graph(neighborhoods, universe_size: int) -> Graph:
    """The directed graph min_bipartite_size solves: sinks 1..universe_size, then
    source i (0-based) as vertex universe_size + 1 + i, out-edges to neighborhoods[i]."""
    return Graph(directed=True, n=universe_size + len(neighborhoods),
                 edges=frozenset((universe_size + 1 + i, e) for i, s in enumerate(neighborhoods) for e in s))


def twinned_optimum(sets: tuple[frozenset[int], ...], universe_size: int) -> tuple[int, DagCompression]:
    """Optimal compression size of the twinned incidence graph of a set family."""
    return min_bipartite_size(tuple(s for s in sets for _ in range(2)), universe_size)
