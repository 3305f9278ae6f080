"""Size-preserving rewrite passes on compressions of directed bipartite graphs.

Three passes, each leaving the encoded graph untouched. They are
defined for unweighted well-formed compressions only (an invalid one is
refused by the DAG index's check(), in validate()'s words), and they work on
the compression itself: none of them expands it or builds its cluster sets.

- twin_normalize mirrors the lower-degree member of each twin pair onto the
  other, so twins of the graph become twins of the cluster DAG and of the
  compression-edge relation; never grows the size.
- shore_normalize (directed compressions only) removes cluster vertices
  whose reachable sinks straddle both shores (such vertices can never carry
  a compression edge) and then switches source-side cluster vertices, parents
  first: their arcs become compression edges and their compression edges
  become arcs, after which every cluster describes target-shore sinks only;
  size changes only by the removed vertices' arcs. Which shores each vertex
  reaches is read off in one pass over the reverse topological order of the
  DAG index, whose check() refuses an invalid compression first.
- twin_single_edge repeatedly bundles two compression-edge targets shared by
  a twin pair into a fresh cluster vertex (four edges out, two arcs plus two
  edges in), until each listed twin keeps at most one compression edge;
  size-neutral.
"""

from __future__ import annotations

from collections import defaultdict

from .compression import DagCompression
from .graphs import ShorePartition, canonical_edge


def _require_unweighted(d: DagCompression, pass_name: str) -> None:
    if d.weighted:
        raise ValueError(f"{pass_name} is defined for unweighted compressions")


def _sink_pairs(d: DagCompression, twin_pairs):
    """The pairs as ascending (t1, t2) tuples, in order; raises on reaching a non-sink."""
    for pair in sorted(tuple(sorted(p)) for p in twin_pairs):
        if pair[1] > d.n_sinks:
            raise ValueError(f"twin pair {pair} must consist of sinks")
        yield pair


def twin_normalize(d: DagCompression, twin_pairs) -> DagCompression:
    """Mirror each twin pair's incidences from the lower-total-degree member.

    The pairs must be sink pairs that are twins of the graph d encodes; this
    is the caller's responsibility (the reduction constructors know their
    twins, and small callers can compute them on the expanded graph).
    """
    _require_unweighted(d, "twin_normalize")
    d._index.check()
    arcs = set(d.arcs)
    cedges = set(d.cedges)

    def substitute(pairs, src, dst):
        return {(dst if x == src else x, dst if y == src else y) for (x, y) in pairs}

    for pair in _sink_pairs(d, twin_pairs):
        # Each twin with its arcs and its compression edges, one scan each.
        inc = [(t, {e for e in arcs if t in e}, {e for e in cedges if t in e}) for t in pair]
        (t1, a1, c1), (t2, a2, c2) = inc
        if substitute(a1, t1, 0) == substitute(a2, t2, 0) and \
           substitute(c1, t1, 0) == substitute(c2, t2, 0):
            continue
        # The source has the lower degree; the first twin on a tie.
        (src, sa, sc), (dst, da, dc) = sorted(inc, key=lambda i: len(i[1]) + len(i[2]))
        arcs -= da
        cedges -= dc
        arcs |= substitute(sa, src, dst)
        cedges |= {canonical_edge(d.directed, *e) for e in substitute(sc, src, dst)}
    return DagCompression(d.directed, d.n_sinks, d.n_clusters, frozenset(arcs), frozenset(cedges))


def shore_normalize(d: DagCompression, shores: ShorePartition) -> DagCompression:
    """Push every cluster vertex onto the target shore.

    Requires a well-formed directed compression (an invalid one raises
    ValueError in validate()'s words) whose encoded graph goes from shore1
    into shore2. side[v] has bit 1 when v reaches a shore1 sink and bit 2
    when it reaches a shore2 sink. Every C(v) is non-empty, so the
    encoded edges all go shore1 -> shore2 exactly when every
    compression edge (u, v) has side[u] == 1 and side[v] == 2. Cluster
    vertices of side 3 are removed with their arcs; source-side (side 1)
    cluster vertices are switched, or removed when they carry no
    compression edge at all.
    """
    _require_unweighted(d, "shore_normalize")
    if not d.directed:
        raise ValueError("shore_normalize is defined for directed compressions")
    index, s, n = d._index, d.n_sinks, d.n_vertices
    index.check()
    if shores.shore1 | shores.shore2 != frozenset(range(1, s + 1)):
        raise ValueError("shores must partition the vertex set")
    ptr, ind = index.indptr.tolist(), index.indices.tolist()
    kids = [ind[ptr[v]: ptr[v + 1]] for v in range(n + 1)]
    side = [0] * (n + 1)
    for bit, shore in ((1, shores.shore1), (2, shores.shore2)):
        for v in shore:
            side[v] = bit
    for v in reversed(index.order):
        if v > s:
            for k in kids[v]:
                side[v] |= side[k]

    targets = defaultdict(list)  # compression-edge targets by source
    for u, v in zip(d.cedge_u.tolist(), d.cedge_v.tolist()):
        if side[u] != 1 or side[v] != 2:
            raise ValueError(f"compression edge ({u},{v}) does not go from shore1 to shore2")
        targets[u].append(v)

    # Keep the target-side DAG; each switched vertex v gets arcs to its
    # targets, and each child y of v the compression edge (y, v). Parents
    # come first in the topological order and no sink has an arc, so
    # targets[v] is complete when v is reached, and the sink sources hold
    # all compression edges at the end.
    dropped = {v for v in range(s + 1, n + 1) if side[v] != 2}
    arcs = {(u, v) for (u, v) in d.arcs if u not in dropped and v not in dropped}
    for v in index.order:
        if v > s and side[v] == 1 and targets[v]:
            arcs.update((v, t) for t in targets[v])
            for y in kids[v]:
                targets[y].append(v)
            dropped.discard(v)

    kept = [v for v in range(1, n + 1) if v not in dropped]
    remap = dict(zip(kept, range(1, n + 1)))  # sinks keep their ids
    return DagCompression(
        directed=True,
        n_sinks=s,
        n_clusters=len(kept) - s,
        arcs=[(remap[u], remap[v]) for (u, v) in arcs],
        cedges=[(u, remap[t]) for u in range(1, s + 1) for t in targets[u]],
    )


def twin_single_edge(d: DagCompression, twin_pairs) -> DagCompression:
    """Reduce every listed twin pair to a single compression edge each.

    Requires the twin and shore passes to have run: both twins of a pair
    must carry identical compression-edge target sets and no arcs. Each step
    replaces the edges to two shared targets by a fresh cluster over them,
    keeping the size and the encoded graph unchanged.
    """
    _require_unweighted(d, "twin_single_edge")
    d._index.check()
    arcs = set(d.arcs)
    cedges = set(d.cedges)
    next_id = d.n_vertices

    for pair in _sink_pairs(d, twin_pairs):
        for t in pair:
            if any(t in e for e in arcs):
                raise ValueError(f"twin {t} still has incident arcs; run shore_normalize first")
            if any(y == t for (_, y) in cedges):
                raise ValueError(f"twin {t} used as compression-edge target")
        targets1, targets2 = (sorted(y for (x, y) in cedges if x == t) for t in pair)
        if targets1 != targets2:
            raise ValueError(f"twins {pair} have different targets; run twin_normalize first")
        targets = targets1
        while len(targets) >= 2:
            u, v = targets[0], targets[1]
            next_id += 1
            for t in pair:
                cedges -= {(t, u), (t, v)}
                cedges.add((t, next_id))
            arcs |= {(next_id, u), (next_id, v)}
            targets = targets[2:] + [next_id]  # the fresh id is the largest
    return DagCompression(d.directed, d.n_sinks, next_id - d.n_sinks,
                          frozenset(arcs), frozenset(cedges))
