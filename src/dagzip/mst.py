"""Kruskal on weighted undirected DAG compressions, and an array Borůvka
on explicit graphs that checks it.

kruskal_compressed never expands a product. It takes the compression edges
in stable (w, u, v) order on a union-find with path halving and union by
size, and in one loop over one stack of ints makes u "clean" (its whole
cluster in one union-find set) towards the representative sink rv of v,
then v towards ru. A popped vertex c that is unclean is marked clean and
pushes its children; one that is clean (a sink, or a cluster cleaned
earlier) links rep[c] to r, the sink the walk cleans towards. A freshly
cleaned c needs no union-find step: its link would come after its whole
subtree joined r's set, and rep[c] lies in C(c), so it would be rejected.
The walk towards ru starts at v, so the link between the two
representatives is tried only when v is clean. Every link of a walk goes to
r, so r's root is found once per walk and carried through each union.
A vertex stays clean once marked, and no DAG vertex is reachable from its
own subtree, so each arc is walked at most once: O((|A| + |E|) * alpha(n))
work plus the sort of E. arcs_traversed counts the walked arcs and
add_edge_calls one link per walked arc plus one per compression edge.

kruskal_baseline is Borůvka with hooking and pointer jumping (Shiloach and
Vishkin). Each edge is keyed by its position in the stable weight order;
the keys are distinct, so the minimum spanning forest is unique and is
Kruskal's, and the picks sorted by key come in Kruskal's acceptance order.
It expands every product, so it serves as the differential reference.

certify_forest proves a forest F minimum for decompress(d) on the
compressed form, by the cycle property with path-maximum (bottleneck)
queries on F (Komlos 1985, King 1997), and never expands a product or
builds a cluster set. F is merged in stable weight order through a
union-find (union by size), which rejects a cycle; each tree keeps its sinks as a linked
list with the merge's rank at every join, so bottleneck(x, y) is a range
maximum over one leaf order, answered from a sparse table, and infinite
across trees. tau(c), the least weight w at which all of C(c) lies in one
tree of F's edges of weight at most w, is 0 on a sink and the maximum over the arcs
(c, k) of tau(k) and bottleneck(rep c, rep k), in one reverse topological
pass. The bottleneck distance is an ultrametric, so max(tau u, tau v,
bottleneck(rep u, rep v)) is the largest bottleneck over C(u) x C(v); it
must not exceed the weight of any compression edge (u, v), which also
makes F span. Last, every forest edge must be a link that compressed
Kruskal's walks try, at that link's weight: each lies in the product of its
compression edge, so F is a subgraph of decompress(d). The walks are
replayed without a union-find, apart from kruskal_compressed, whose loop
would slow down by recording them. The work is O((|A| + |E| + n) log n)
plus the sort of F.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .compression import DagCompression
from .graphs import INT64_MAX, Graph, _lex_sorted, _record_block


@dataclass
class MstStats:
    add_edge_calls: int = 0
    arcs_traversed: int = 0


@dataclass
class MstResult:
    """A minimum spanning forest: weighted sink edges plus run counters."""

    edges: list[tuple[int, int, int]]
    total_weight: int
    stats: MstStats

    @property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)


def kruskal_baseline(g: Graph) -> MstResult:
    """Minimum spanning forest of a weighted explicit graph in Kruskal's
    order, ties broken by canonical edge order. Each round, every component
    hooks its root to the other end of its minimum-key edge (of two roots
    that picked each other, the smaller stays root) and pointer jumping
    relabels every vertex: O(log n) rounds."""
    if not g.weighted:
        raise ValueError("Kruskal needs a weighted graph")
    # The columns are sorted by (u, v), so a stable sort by weight gives the (w, (u, v)) order.
    order = np.argsort(g.w, kind="stable")
    u, v, w = g.u[order], g.v[order], g.w[order]
    label = np.arange(g.n + 1)
    live = np.arange(g.m)  # keys of the edges between two components
    picks = []
    while True:
        lu, lv = label[u[live]], label[v[live]]
        apart = lu != lv
        live, lu, lv = live[apart], lu[apart], lv[apart]
        if not len(live):
            break
        best = np.full(g.n + 1, g.m)
        np.minimum.at(best, lu, live)
        np.minimum.at(best, lv, live)
        roots = np.flatnonzero(best < g.m)
        pick = best[roots]
        label[roots] = other = label[u[pick]] + label[v[pick]] - roots
        mutual = (label[other] == roots) & (roots < other)
        label[roots[mutual]] = roots[mutual]
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        picks.append(pick[~mutual])  # a mutual pair picked one edge: keep it once
    keys = np.sort(np.concatenate(picks)) if picks else live
    forest = list(zip(u[keys].tolist(), v[keys].tolist(), w[keys].tolist()))
    return MstResult(edges=forest, total_weight=sum(w for _, _, w in forest),
                     stats=MstStats(add_edge_calls=g.m))


def kruskal_compressed(d: DagCompression) -> MstResult:
    """Kruskal directly on a weighted undirected compression.

    Returns a minimum spanning forest of decompress(d) without ever
    materializing cluster sets. Raises ValueError on an unweighted or an
    invalid compression.
    """
    if not d.weighted:
        raise ValueError("compressed Kruskal needs a weighted undirected compression")
    index = d._index
    index.check()
    parent = list(range(d.n_sinks + 1))
    size = [1] * (d.n_sinks + 1)
    rep, ptr, ind = index.rep, index.ptr, index.ind
    clean = bytearray(b"\0" + b"\1" * d.n_sinks + b"\0" * d.n_clusters)
    forest: list[tuple[int, int, int]] = []
    # cedges are sorted by (u, v), so a stable sort by weight gives the (w, (u, v)) order.
    order = np.argsort(d.cedge_w, kind="stable")
    for u, v, w in zip(*(c[order].tolist() for c in (d.cedge_u, d.cedge_v, d.cedge_w))):
        ru, rv = rep[u], rep[v]
        for work, r in (([] if clean[u] else [u], rv), ([v], ru)):
            y = r  # r's root, found once and carried through the walk's unions
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            while work:
                c = work.pop()
                if not clean[c]:
                    clean[c] = 1
                    work += ind[ptr[c]:ptr[c + 1]][::-1]  # the first child pops first
                    continue  # c's own link to r would be rejected (module docstring)
                x = a = rep[c]
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                if x != y:
                    if size[x] < size[y]:
                        x, y = y, x
                    parent[y] = x
                    size[x] += size[y]
                    y = x
                    forest.append((a, r, w) if a <= r else (r, a, w))
    s = d.n_sinks + 1  # the walked arcs are the cleaned clusters' out-arcs
    arcs = int(index.outdegree[s:][np.frombuffer(clean, bool)[s:]].sum())
    return MstResult(edges=forest, total_weight=sum(w for _, _, w in forest),
                     stats=MstStats(add_edge_calls=arcs + len(d.cedge_u), arcs_traversed=arcs))


def certify_forest(d: DagCompression, result: MstResult) -> str | None:
    """None if result is certified a minimum spanning forest of
    decompress(d), its edges (a, b, w) at their weights there and
    total_weight their sum; otherwise the first check it fails, in one line.
    Works on the compressed form (module docstring). Sound for any forest,
    but complete only for forests built from the links that compressed
    Kruskal tries, as its own are: another minimum forest, such as
    kruskal_baseline's, can fail the membership check. Raises ValueError on
    an unweighted or an invalid compression.
    """
    if not d.weighted:
        raise ValueError("the certificate needs a weighted undirected compression")
    index = d._index
    index.check()
    n, rep, ptr, ind = d.n_sinks, index.rep, index.ptr, index.ind
    try:
        f = np.fromiter(chain.from_iterable(result.edges), np.int64).reshape(-1, 3)
    except OverflowError:
        return "a forest edge has a value outside int64"
    if f.size and not (1 <= f[:, :2].min() and f[:, :2].max() <= n):
        return f"a forest edge has an endpoint outside 1..{n}"
    f = f[np.argsort(f[:, 2], kind="stable")]
    m = len(f)

    # Forest structure. A root is the head of its tree's leaf list and holds -(tree size);
    # the edge of rank k (1..m) appends the smaller tree's list with join rank k.
    parent, tail, nxt, join = [-1] * (n + 1), list(range(n + 1)), [0] * (n + 1), [m + 1] * (n + 1)
    for k, a, b in zip(range(1, m + 1), f[:, 0].tolist(), f[:, 1].tolist()):
        x, y = a, b
        while parent[x] >= 0:
            x = parent[x]
        while parent[y] >= 0:
            y = parent[y]
        if x == y:
            return f"forest edge ({a}, {b}) closes a cycle"
        if parent[x] > parent[y]:
            x, y = y, x
        parent[x] += parent[y]
        parent[y] = x
        nxt[tail[x]], join[tail[x]], tail[x] = y, k, tail[y]
    leaves = []
    for r in range(1, n + 1):
        x = r if parent[r] < 0 else 0  # each root heads its tree's list
        while x:
            leaves.append(x)
            x = nxt[x]
    leaves = np.array(leaves, np.int64)
    pos = np.zeros(n + 1, np.int64)
    pos[leaves] = np.arange(n)
    # table[j, i]: the largest join rank among joins i .. i + 2^j - 1 (clipped); m + 1 is infinite.
    # Ranks are at most n, so int32 halves the table.
    table = np.empty((max(1, n.bit_length()), n), np.int32)
    table[0] = np.array(join)[leaves]
    for j in range(1, len(table)):
        h = 1 << (j - 1)
        table[j] = table[j - 1]
        np.maximum(table[j - 1, :-h], table[j - 1, h:], out=table[j, :-h])

    def bottleneck(x, y):
        """Rank of the heaviest forest edge between sinks x and y (arrays): 0 when x == y."""
        lo, hi = np.minimum(pos[x], pos[y]), np.maximum(pos[x], pos[y])
        span = np.maximum(hi - lo, 1)
        j = np.frexp(span)[1] - 1
        return np.where(hi > lo, np.maximum(table[j, lo], table[j, hi - (1 << j)]), 0)

    # tau per vertex, as a rank; every cluster has an arc, so reduceat sees no empty run.
    reps = np.array(rep)
    s = n + 1
    tau = [0] * (d.n_vertices + 1)
    if d.n_clusters:
        local = np.maximum.reduceat(bottleneck(reps[d.arc_u], reps[d.arc_v]),
                                    np.asarray(ptr[s:-1])).tolist()
        for c in reversed(index.order):
            if c > n:
                tau[c] = max(local[c - s], *map(tau.__getitem__, ind[ptr[c]:ptr[c + 1]]))

    # Cycle property: the heaviest forest edge between C(u) and C(v) weighs at most w.
    taus = np.array(tau)
    need = np.maximum(np.maximum(taus[d.cedge_u], taus[d.cedge_v]),
                      bottleneck(reps[d.cedge_u], reps[d.cedge_v]))
    weight = np.concatenate(([0], f[:, 2]))
    bad = np.flatnonzero((need > m) | (weight[np.minimum(need, m)] > d.cedge_w))
    if len(bad):
        u, v, w, k = (int(x[bad[0]]) for x in (d.cedge_u, d.cedge_v, d.cedge_w, need))
        if k > m:
            return f"compression edge ({u}, {v}) joins two of its trees"
        a, b, fw = f[k - 1].tolist()
        return f"compression edge ({u}, {v}) at weight {w} crosses forest edge ({a}, {b}) at weight {fw}"

    # Membership: replay compressed Kruskal's walks for the links it tries.
    clean = bytearray(b"\0" + b"\1" * n + b"\0" * d.n_clusters)
    links, ends, targets = [], [], []
    order = np.argsort(d.cedge_w, kind="stable")
    for u, v in zip(d.cedge_u[order].tolist(), d.cedge_v[order].tolist()):
        for work, r in (([] if clean[u] else [u], rep[v]), ([v], rep[u])):
            while work:
                c = work.pop()
                if clean[c]:
                    links.append(rep[c])
                else:
                    clean[c] = 1
                    work += ind[ptr[c]:ptr[c + 1]]
            ends.append(len(links))
            targets.append(r)
    counts = np.diff(np.array(ends, np.int64), prepend=0)
    ca, cb = np.array(links, np.int64), np.repeat(np.array(targets, np.int64), counts)
    cw = np.repeat(np.repeat(d.cedge_w[order], 2), counts)
    ckey = np.minimum(ca, cb) * (n + 1) + np.maximum(ca, cb)
    # The links come in weight order, so each pair's least weight sorts first; the sentinel ends the search.
    by = np.argsort(ckey, kind="stable")
    ckey, cw = np.append(ckey[by], INT64_MAX), np.append(cw[by], -1)
    fkey = np.minimum(f[:, 0], f[:, 1]) * (n + 1) + np.maximum(f[:, 0], f[:, 1])
    at = np.searchsorted(ckey, fkey)
    ok = (ckey[at] == fkey) & (cw[at] == f[:, 2])
    if not ok.all():
        a, b, w = f[np.argmin(ok)].tolist()
        return f"forest edge ({a}, {b}) at weight {w} is no link of compressed Kruskal"
    if (total := sum(f[:, 2].tolist())) != result.total_weight:
        return f"its edges weigh {total}, not {result.total_weight}"
    return None


def write_mst(result: MstResult, n: int) -> str:
    """Serialize a spanning forest: header then edges sorted by (u, v), never repeated."""
    u, v, w = _lex_sorted(*np.fromiter(chain.from_iterable(result.edges), np.int64).reshape(-1, 3).T)
    return f"mst {n} {len(u)} {result.total_weight}\n" + _record_block("t", u, v, w)
