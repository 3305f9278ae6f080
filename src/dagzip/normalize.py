"""Size-preserving rewrite passes on compressions of directed bipartite graphs.

Three passes, each leaving the encoded graph untouched, for unweighted
well-formed compressions only (an invalid one is refused by the DAG index's
check(), in validate()'s words). Each reads the arcs and compression edges
once, as (u, v) lists; one rebuild (_rebuild) then drops each cluster vertex
left reaching no sink and renumbers. No pass expands it or builds cluster sets.

- twin_normalize mirrors the lower-degree member of each twin pair onto the
  other, so twins of the graph become twins of the cluster DAG and of the
  compression-edge relation; never grows the size. A pair joined by a
  compression edge (between the two, or a loop on either) is left as it is.
- shore_normalize (directed compressions only) removes cluster vertices
  whose reachable sinks straddle both shores (such vertices can never carry
  a compression edge) and then switches source-side cluster vertices, parents
  first: their arcs become compression edges and their compression edges
  become arcs, after which every cluster describes target-shore sinks only;
  size changes only by the removed vertices' arcs.
- twin_single_edge bundles, per twin class (pairs sharing a member form
  one), two shared compression-edge targets at a time into a fresh cluster
  vertex, until each twin keeps at most one; size-neutral for a pair.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate

from .compression import DagCompression
from .graphs import ShorePartition


def _check(d: DagCompression, pass_name: str) -> None:
    if d.weighted:
        raise ValueError(f"{pass_name} is defined for unweighted compressions")
    d._index.check()


def _pairs(d: DagCompression):
    """d's arcs and compression edges, as lists of (u, v) in column order."""
    return ([*zip(d.arc_u.tolist(), d.arc_v.tolist())], [*zip(d.cedge_u.tolist(), d.cedge_v.tolist())])


def _sink_pairs(d: DagCompression, twin_pairs):
    """The pairs as ascending (t1, t2) tuples, in order; raises on reaching one
    that is not two distinct sinks."""
    for pair in sorted(tuple(sorted(p)) for p in twin_pairs):
        if len(pair) != 2 or not 1 <= pair[0] < pair[1] <= d.n_sinks:
            raise ValueError(f"twin pair {pair} must be two distinct sinks")
        yield pair


def _rebuild(d: DagCompression, n: int, arcs, cedges, drop=frozenset()) -> DagCompression:
    """d's sinks and clusters up to n with these arcs and compression edges, less
    each vertex in drop and each cluster vertex that then reaches no sink (with
    their arcs and edges), the kept vertices renumbered in order: sinks keep ids."""
    s = d.n_sinks
    out = DagCompression(d.directed, s, n - s, arcs, cedges)
    if not (drop or out._index.violations):  # each cluster vertex has a child: all reach sinks
        return out
    ptr, ind = out._index.ptr, out._index.ind
    live = [0 < v <= s for v in range(n + 1)]
    for v in reversed(out._index.order):  # children first
        if v > s and v not in drop:
            live[v] = any(live[k] for k in ind[ptr[v]: ptr[v + 1]])
    new = [*accumulate(live)]  # each kept vertex's id once the dropped ones are gone
    kept = ([(new[u], new[v]) for u, v in ps if live[u] and live[v]] for ps in (arcs, cedges))
    return DagCompression(d.directed, s, new[-1] - s, *kept)


def twin_normalize(d: DagCompression, twin_pairs) -> DagCompression:
    """Mirror each twin pair's incidences from the lower-total-degree member.

    The pairs must be sink pairs that are twins of the graph d encodes; this
    is the caller's responsibility (the reduction constructors know their
    twins, and small callers can compute them on the expanded graph). A pair
    joined by a compression edge (a loop, or one between the two) is skipped.
    """
    _check(d, "twin_normalize")
    arcs, cedges = _pairs(d)
    for pair in _sink_pairs(d, twin_pairs):
        degree = [sum(t in p for p in arcs + cedges) for t in pair]  # parent arcs mirror like edges
        src, dst = pair if degree[0] <= degree[1] else pair[::-1]  # the first twin on a tie
        if not any(u in pair and v in pair for u, v in cedges):  # no loop on a twin, no edge between them
            arcs, cedges = ([p for p in ps if dst not in p] + [(dst, v) if u == src else (u, dst)
                                                              for u, v in ps if src in (u, v)]
                            for ps in (arcs, cedges))
    return _rebuild(d, d.n_vertices, arcs, cedges)


def shore_normalize(d: DagCompression, shores: ShorePartition) -> DagCompression:
    """Push every cluster vertex onto the target shore.

    Requires a directed compression whose encoded graph goes from shore1
    into shore2. side[v] has bit 1 when v reaches a shore1 sink and bit 2
    when it reaches a shore2 sink. Every C(v) is non-empty, so the
    encoded edges all go shore1 -> shore2 exactly when every
    compression edge (u, v) has side[u] == 1 and side[v] == 2. Cluster
    vertices of side 3 are removed with their arcs; source-side (side 1)
    cluster vertices are switched, or removed when they carry no
    compression edge at all.
    """
    _check(d, "shore_normalize")
    if not d.directed:
        raise ValueError("shore_normalize is defined for directed compressions")
    index, s, n = d._index, d.n_sinks, d.n_vertices
    if shores.shore1 | shores.shore2 != frozenset(range(1, s + 1)):
        raise ValueError("shores must partition the vertex set")
    kids = [index.ind[index.ptr[v]: index.ptr[v + 1]] for v in range(n + 1)]
    side = [0] + [1 if v in shores.shore1 else 2 for v in range(1, s + 1)] + [0] * (n - s)
    for v in reversed(index.order):  # children first; a sink has none
        for k in kids[v]:
            side[v] |= side[k]

    arcs, cedges = _pairs(d)
    targets = defaultdict(list)  # compression-edge targets by source
    for u, v in cedges:
        if side[u] != 1 or side[v] != 2:
            raise ValueError(f"compression edge ({u},{v}) does not go from shore1 to shore2")
        targets[u].append(v)

    # Keep the target-side DAG; each switched vertex v gets arcs to its
    # targets, and each child y of v the compression edge (y, v). Parents come
    # first in the topological order and sinks have no arcs, so targets[v] is
    # complete when v is reached and the sinks hold all compression edges.
    dropped = {v for v in range(s + 1, n + 1) if side[v] != 2}
    arcs = [(u, v) for u, v in arcs if side[u] == 2]
    for v in index.order:
        if v > s and side[v] == 1 and targets[v]:
            arcs += ((v, t) for t in targets[v])
            for y in kids[v]:
                targets[y].append(v)
            dropped.discard(v)
    return _rebuild(d, n, arcs, [(u, t) for u in range(1, s + 1) for t in targets[u]], dropped)


def twin_single_edge(d: DagCompression, twin_pairs) -> DagCompression:
    """Reduce every twin of the listed pairs to a single compression edge.

    Pairs that share a member form one class. Requires the twin and shore
    passes to have run: the twins of a class must carry identical target
    sets and no arcs. Each step swaps the k twins' 2k edges to two shared
    targets for k edges to a fresh cluster over both plus its two arcs: it
    keeps the graph, is size-neutral for a pair and never grows a class.
    """
    _check(d, "twin_single_edge")
    classes = {}  # each twin's class so far, as an ascending tuple
    for t1, t2 in _sink_pairs(d, twin_pairs):
        joined = tuple(sorted({*classes.get(t1, (t1,)), *classes.get(t2, (t2,))}))
        classes.update(dict.fromkeys(joined, joined))
    arcs, cedges = _pairs(d)
    targets = defaultdict(list)  # by source, ascending: the columns are sorted
    for u, v in cedges:
        targets[u].append(v)
    heads, next_id = {v for _, v in arcs + cedges}, d.n_vertices
    cedges = [(u, v) for u, v in cedges if u not in classes]
    for cls in sorted(set(classes.values())):
        if blocked := sorted(heads.intersection(cls)):
            raise ValueError(f"twin {blocked[0]} has a parent arc or an in-edge; run shore_normalize first")
        shared = targets[cls[0]]
        if any(targets[t] != shared for t in cls):
            raise ValueError(f"twins {cls} have different targets; run twin_normalize first")
        while len(shared) >= 2:
            next_id += 1
            arcs += [(next_id, shared[0]), (next_id, shared[1])]
            shared = shared[2:] + [next_id]  # the fresh id is the largest
        cedges += [(t, y) for t in cls for y in shared]
    return _rebuild(d, next_id, arcs, cedges)
