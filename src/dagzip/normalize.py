"""Size-preserving rewrite passes on compressions of directed bipartite graphs.

Three passes, each leaving the decompressed graph untouched:

- twin_normalize mirrors the lower-degree member of each twin pair onto the
  other, so twins of the graph become twins of the cluster DAG and of the
  compression-edge relation; never grows the size.
- shore_normalize removes cluster vertices whose reachable sinks straddle
  both shores (such vertices can never carry a compression edge) and then
  repeatedly switches source-side cluster vertices: their arcs become
  compression edges and their compression edges become arcs, after which
  every cluster describes target-shore sinks only; size changes only by the
  removed vertices' arcs.
- twin_single_edge repeatedly bundles two compression-edge targets shared by
  a twin pair into a fresh cluster vertex (four edges out, two arcs plus two
  edges in), until each listed twin keeps at most one compression edge;
  size-neutral.
"""

from __future__ import annotations

import heapq

from .compression import DagCompression, clusters, decompress
from .graphs import ShorePartition


def _require_unweighted(d: DagCompression, pass_name: str) -> None:
    if d.weighted:
        raise ValueError(f"{pass_name} is defined for unweighted compressions")


def twin_normalize(d: DagCompression, twin_pairs) -> DagCompression:
    """Mirror each twin pair's incidences from the lower-total-degree member.

    The pairs must be sink pairs that are twins of decompress(d); this is the
    caller's responsibility (the reduction constructors know their twins, and
    small callers can compute them on the decompressed graph).
    """
    arcs = set(d.arcs)
    cedges = set(d.cedges)
    weights = dict(d.weights) if d.weighted else None

    for pair in sorted(tuple(sorted(p)) for p in twin_pairs):
        t1, t2 = pair
        if t1 > d.n_sinks or t2 > d.n_sinks:
            raise ValueError(f"twin pair {pair} must consist of sinks")

        def incidences(t):
            a_in = {(x, y) for (x, y) in arcs if y == t}
            a_out = {(x, y) for (x, y) in arcs if x == t}
            c_inc = {(x, y) for (x, y) in cedges if t in (x, y)}
            return a_in, a_out, c_inc

        def substitute(pairs, src, dst):
            return {(dst if x == src else x, dst if y == src else y) for (x, y) in pairs}

        i1, o1, c1 = incidences(t1)
        i2, o2, c2 = incidences(t2)
        if substitute(i1, t1, 0) == substitute(i2, t2, 0) and \
           substitute(o1, t1, 0) == substitute(o2, t2, 0) and \
           substitute(c1, t1, 0) == substitute(c2, t2, 0):
            continue
        deg1 = len(i1) + len(o1) + len(c1)
        deg2 = len(i2) + len(o2) + len(c2)
        src, dst = (t1, t2) if deg1 <= deg2 else (t2, t1)
        si, so, sc = incidences(src)
        di, do, dc = incidences(dst)
        arcs -= di | do
        cedges_removed = dc
        cedges -= cedges_removed
        if weights is not None:
            for e in cedges_removed:
                weights.pop(e, None)
        arcs |= substitute(si | so, src, dst)
        for e in sc:
            mirrored = tuple(dst if x == src else x for x in e)
            if not d.directed:
                mirrored = tuple(sorted(mirrored))
            cedges.add(mirrored)
            if weights is not None:
                weights[mirrored] = d.weights[e]
    return DagCompression(
        directed=d.directed,
        n_sinks=d.n_sinks,
        n_clusters=d.n_clusters,
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
        weights=weights,
    )


def shore_normalize(d: DagCompression, shores: ShorePartition) -> DagCompression:
    """Push every cluster vertex onto the target shore.

    Requires decompress(d) to be bipartite from shore1 into shore2. Cluster
    vertices reaching both shores are removed together with their arcs (a
    valid compression cannot give them compression edges); source-shore
    cluster vertices are switched one source at a time, or removed when they
    carry no compression edge at all.
    """
    _require_unweighted(d, "shore_normalize")
    g = decompress(d)
    shores.check(g)
    table = clusters(d)

    kept = []
    mixed = []
    for v in range(d.n_sinks + 1, d.n_vertices + 1):
        c = table.cluster[v]
        in1 = bool(c & shores.shore1)
        in2 = bool(c & shores.shore2)
        if in1 and in2:
            mixed.append(v)
        else:
            kept.append(v)
    mixed_set = set(mixed)
    for u, v in d.cedges:
        if u in mixed_set or v in mixed_set:
            raise ValueError(f"compression edge on mixed-shore vertex in ({u},{v})")

    arcs = {(u, v) for (u, v) in d.arcs if u not in mixed_set and v not in mixed_set}
    cedges = set(d.cedges)
    source_side = {v for v in kept if table.cluster[v] & shores.shore1}

    # Switch parents before children, smallest ready id first. A switch drops
    # v's out-arcs and adds arcs into the target shore only, so the in-degrees
    # counted here fall exactly along v's original children.
    indeg = {v: 0 for v in source_side}
    for (x, y) in arcs:
        if y in indeg:
            indeg[y] += 1
    ready = sorted(v for v in source_side if indeg[v] == 0)
    while ready:
        v = heapq.heappop(ready)
        for y in d._index.children(v):
            if y in indeg:
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(ready, y)
        out_a = {(x, y) for (x, y) in arcs if x == v}
        out_c = {(x, y) for (x, y) in cedges if x == v}
        in_c = {(x, y) for (x, y) in cedges if y == v}
        if in_c:
            raise ValueError(f"source-shore cluster {v} used as a compression-edge target")
        if not out_c:
            arcs -= out_a
            source_side.discard(v)
            mixed_set.add(v)  # drops out of the rebuilt compression below
            continue
        arcs -= out_a
        cedges -= out_c
        arcs |= {(v, y) for (_, y) in out_c}
        cedges |= {(y, v) for (_, y) in out_a}
        source_side.discard(v)
    if source_side:
        raise ValueError(f"source-shore clusters {sorted(source_side)} have arcs from "
                         "outside the source shore")

    removed = sorted(mixed_set)
    remap: dict[int, int] = {}
    next_id = d.n_sinks
    for v in range(1, d.n_vertices + 1):
        if v in mixed_set:
            continue
        if v <= d.n_sinks:
            remap[v] = v
        else:
            next_id += 1
            remap[v] = next_id
    arcs = {(remap[u], remap[v]) for (u, v) in arcs}
    cedges = {(remap[u], remap[v]) for (u, v) in cedges}
    return DagCompression(
        directed=d.directed,
        n_sinks=d.n_sinks,
        n_clusters=d.n_clusters - len(removed),
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
    )


def twin_single_edge(
    d: DagCompression, shores: ShorePartition, twin_pairs
) -> DagCompression:
    """Reduce every listed twin pair to a single compression edge each.

    Requires the twin and shore passes to have run: both twins of a pair
    must carry identical compression-edge target sets and no arcs. Each step
    replaces the edges to two shared targets by a fresh cluster over them,
    keeping the size and the decompression unchanged.
    """
    _require_unweighted(d, "twin_single_edge")
    arcs = set(d.arcs)
    cedges = set(d.cedges)
    n_clusters = d.n_clusters
    next_id = d.n_vertices

    for pair in sorted(tuple(sorted(p)) for p in twin_pairs):
        t1, t2 = pair
        if t1 > d.n_sinks or t2 > d.n_sinks:
            raise ValueError(f"twin pair {pair} must consist of sinks")
        for t in pair:
            if any(t in (x, y) for (x, y) in arcs):
                raise ValueError(f"twin {t} still has incident arcs; run shore_normalize first")
            if any(y == t for (_, y) in cedges):
                raise ValueError(f"twin {t} used as compression-edge target")
        targets1 = sorted(y for (x, y) in cedges if x == t1)
        targets2 = sorted(y for (x, y) in cedges if x == t2)
        if targets1 != targets2:
            raise ValueError(f"twins {pair} have different targets; run twin_normalize first")
        targets = targets1
        while len(targets) >= 2:
            u, v = targets[0], targets[1]
            next_id += 1
            n_clusters += 1
            c = next_id
            for t in pair:
                cedges.discard((t, u))
                cedges.discard((t, v))
                cedges.add((t, c))
            arcs.add((c, u))
            arcs.add((c, v))
            targets = sorted(set(targets) - {u, v} | {c})
    return DagCompression(
        directed=d.directed,
        n_sinks=d.n_sinks,
        n_clusters=n_clusters,
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
    )
