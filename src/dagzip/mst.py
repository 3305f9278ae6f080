"""Kruskal on weighted undirected DAG compressions, and an array Borůvka
on explicit graphs that checks it.

kruskal_compressed never expands a product. Sequentially, compressed
Kruskal takes the compression edges in stable (w, u, v) order and runs
walk 2k from u_k towards r = rep(v_k), then walk 2k+1 from v_k towards
rep(u_k), over a union-find on the sinks. A vertex is clean once its whole
cluster lies in one union-find set: a sink from the start, a cluster once a
walk has marked it. A walk pops vertices off a stack that holds its start
(the walk from u_k starts empty when u_k is clean): a clean c tries the
link (rep c, r), and an unclean c is marked clean and pushes its children,
the first child on top. A freshly marked c tries no link: its link would
come after its whole subtree joined r's set, and rep c lies in C(c), so
it would be rejected.

The clean set is closed downwards before every walk. Before the first,
only sinks are clean. Within a walk, each child of a marked vertex is
pushed and popped before the walk ends, and a popped vertex is clean from
then on; a vertex clean before the walk has clean children by induction.
So a walk from an unclean start x marks exactly the unclean vertices below
x, and one from a clean start marks none. Before walk s the clean clusters
are therefore those below the start of an earlier walk: c is clean iff
t(c) < s, where t(c) is the least number of a walk that starts at c or at
an ancestor of c (2|E| if none), and t = -1 on sinks. A walk whose start
has t < s tries no link from u_k and exactly (rep v_k, rep u_k) from v_k.
Only a walk whose start has t = s, the first to reach it, moves the clean
set: at most one walk per cluster.

The run takes three passes and holds the forest that sequential run finds.
1. Clean times: the first walk per start, then the least of them over
   ancestors in one pass over the cluster -> cluster arcs in topological
   order of their tails.
2. Links, in try order: the walks with t = s are replayed in Python, in
   walk order and in the sequential DFS order. Children ascend, so a
   cluster's sink children pop first and enter as one list slice; only its
   cluster children are pushed. The other walks' single links go between
   them in array passes.
3. Acceptance: sequential union-find accepts a link iff it joins two
   components of the links tried before it. So the accepted links are the
   minimum spanning forest of the link graph keyed by try position, and
   they come in key order. _forest_keys finds that forest by Borůvka with
   hooking and pointer jumping (Shiloach and Vishkin 1982).
Each arc is walked at most once. The interpreter work is O(|A| + |E|),
and the array work O((|A| + |E|) log n) in the forest pass, plus the sort
of E. No work scales with the decompressed edge count. arcs_traversed
counts the walked arcs, the out-arcs of every cluster with t < 2|E|, and
add_edge_calls one link per walked arc plus one per compression edge.

kruskal_baseline runs the same _forest_keys on an explicit graph, each
edge keyed by its position in the stable weight order. The keys are
distinct, so the minimum spanning forest is unique and is Kruskal's, and
its keys sorted give Kruskal's acceptance order. It expands every product,
so it serves as the differential reference.

Both return their forest as one (k, 3) int64 array of (u, v, w) rows in
acceptance order, u < v. MstResult.edges is always a read-only ForestView
of such an array: it reads like the list of (u, v, w) tuples, with len in
O(1), and builds tuples only when indexed or iterated. write_mst and
certify_forest read the array: the mst command builds no per-edge object.

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
replayed here one by one, without a union-find and without
kruskal_compressed's clean times, so this check also tests its link pass
independently. The work is O((|A| + |E| + n) log n) plus the sort of F.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .compression import DagCompression
from .graphs import INT64_MAX, Graph, _lex_sorted, _record_block


@dataclass
class MstStats:
    add_edge_calls: int = 0
    arcs_traversed: int = 0


class ForestView(Sequence):
    """A forest's (k, 3) int64 array of (u, v, w) rows, seen read-only as
    the list of (u, v, w) tuples it stands for: len is O(1), an item or an
    iteration builds tuples of Python ints, a slice a list, and == and repr
    are the list's."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        rows = self.array[i].tolist()
        return list(map(tuple, rows)) if isinstance(i, slice) else tuple(rows)

    def __iter__(self):
        return map(tuple, self.array.tolist())

    def __eq__(self, other):
        if isinstance(other, ForestView):
            return np.array_equal(self.array, other.array)
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class MstResult:
    """A minimum spanning forest: weighted sink edges plus run counters.

    edges is given as a (k, 3) array or a sequence of (u, v, w) triples, in
    acceptance order, and is kept as a ForestView of the (k, 3) int64 array
    (OverflowError on a value outside int64); write_mst and certify_forest
    read the array. Both Kruskals hand their forest on as such an array.
    The fields cannot be rebound: a changed forest is a new MstResult."""

    edges: Sequence[tuple[int, int, int]]
    total_weight: int
    stats: MstStats

    def __post_init__(self):
        if not isinstance(self.edges, ForestView):
            object.__setattr__(self, "edges", ForestView(np.asarray(self.edges, np.int64).reshape(-1, 3)))

    @property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)


def _exact_sum(x: np.ndarray) -> int:
    """The sum of fewer than 2^31 non-negative int64 values, as a Python int:
    their high and low 32-bit halves are summed apart, so neither sum wraps."""
    return (int((x >> 32).sum()) << 32) + int((x & 0xFFFFFFFF).sum())


def _forest_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The minimum spanning forest of the graph on 0..n whose edge k joins
    u[k] and v[k] at key k, as its keys in ascending order: the edges that
    sequential Kruskal accepts, in the order it accepts them. Borůvka rounds
    (_hook) until no edge joins two components: O(log n) of them."""
    m = len(u)
    dt = np.int32 if max(n, m) < 2 ** 31 else np.int64
    label = np.arange(n + 1, dtype=dt)
    live, lu, lv = np.arange(m, dtype=dt), u, v  # the keys of the live edges and their ends' roots
    picks = []
    while True:
        apart = lu != lv
        live, lu, lv = live[apart], lu[apart], lv[apart]
        if not len(live):
            return np.sort(np.concatenate(picks)) if picks else live
        label, pick = _hook(label, u, v, live, lu, lv, m)  # its temporaries are freed before the relabel
        picks.append(pick)
        lu, lv = label[lu], label[lv]


def _hook(label, u, v, live, lu, lv, m):
    """One Borůvka round on the component labels: every root hooks to the
    other end of its minimum-key live edge (of two roots that picked each
    other, the smaller stays root), then pointer jumping relabels every
    vertex. Returns the new labels and the keys of the picked edges."""
    best = np.full(len(label), m, label.dtype)
    np.minimum.at(best, lu, live)
    np.minimum.at(best, lv, live)
    roots = np.flatnonzero(best < m)
    pick = best[roots]
    label[roots] = other = label[u[pick]] + label[v[pick]] - roots
    mutual = (label[other] == roots) & (roots < other)
    label[roots[mutual]] = roots[mutual]
    while not np.array_equal(jumped := label[label], label):
        label = jumped
    return label, pick[~mutual]  # a mutual pair picked one edge: keep it once


def kruskal_baseline(g: Graph) -> MstResult:
    """Minimum spanning forest of a weighted explicit graph in Kruskal's
    order, ties broken by canonical edge order (Borůvka, _forest_keys)."""
    if not g.weighted:
        raise ValueError("Kruskal needs a weighted graph")
    # The columns are sorted by (u, v), so a stable sort by weight gives the (w, (u, v)) order.
    order = np.argsort(g.w, kind="stable")
    u, v, w = g.u[order], g.v[order], g.w[order]
    keys = _forest_keys(u, v, g.n)
    forest = np.column_stack((u[keys], v[keys], w[keys]))
    return MstResult(edges=forest, total_weight=_exact_sum(forest[:, 2]),
                     stats=MstStats(add_edge_calls=g.m))


def kruskal_compressed(d: DagCompression) -> MstResult:
    """Kruskal directly on a weighted undirected compression, in the three
    passes of the module docstring.

    Returns a minimum spanning forest of decompress(d) without ever
    materializing cluster sets. Raises ValueError on an unweighted or an
    invalid compression.
    """
    if not d.weighted:
        raise ValueError("compressed Kruskal needs a weighted undirected compression")
    index = d._index
    index.check()
    n, m = d.n_sinks, len(d.cedge_u)
    # int32 when vertex ids, walk numbers and link counts all fit
    dt = np.int32 if max(d.n_vertices, len(d.arc_u) + 2 * m) < 2 ** 31 else np.int64
    # cedges are sorted by (u, v), so a stable sort by weight gives the (w, (u, v)) order.
    order = np.argsort(d.cedge_w, kind="stable")
    start = np.column_stack((d.cedge_u[order], d.cedge_v[order])).ravel().astype(dt)
    t = _clean_times(d, start)
    src, dst, cum = _links(d, start, t)
    keys = _forest_keys(src, dst, n)
    # Links join sinks, each its own representative: the forest rows are (lo, hi, w).
    forest = np.empty((len(keys), 3), np.int64)
    np.minimum(src[keys], dst[keys], out=forest[:, 0])
    np.maximum(src[keys], dst[keys], out=forest[:, 1])
    del src, dst  # the rest of the run reads only the forest
    forest[:, 2] = d.cedge_w[order[np.searchsorted(cum, keys, "right") >> 1]]  # its link's cedge weight
    total = _exact_sum(forest[:, 2])
    arcs = int(index.outdegree[n + 1:][t[1:] < 2 * m].sum())  # the cleaned clusters' out-arcs
    return MstResult(edges=forest, total_weight=total,
                     stats=MstStats(add_edge_calls=arcs + m, arcs_traversed=arcs))


def _clean_times(d: DagCompression, start: np.ndarray) -> np.ndarray:
    """t[c - n] for each cluster c: the first of the walks (start[i] is
    walk i's start) that starts at c or at an ancestor of c, len(start) if
    none; slot 0 stands for every sink and holds -1."""
    n, walks = d.n_sinks, len(start)
    t = np.full(d.n_clusters + 1, walks, start.dtype)
    np.minimum.at(t, np.maximum(start - n, 0), np.arange(walks, dtype=start.dtype))
    t[0] = -1
    down = np.flatnonzero(d.arc_v > n)  # cluster -> cluster arcs
    if len(down):
        rank = np.empty(d.n_vertices + 1, np.int64)
        rank[np.fromiter(d._index.order, np.int64, d.n_vertices)] = np.arange(d.n_vertices)
        down = down[np.argsort(rank[d.arc_u[down]])]  # a parent's arcs before its children's
        tc = t.tolist()
        for a, b in zip((d.arc_u[down] - n).tolist(), (d.arc_v[down] - n).tolist()):
            if tc[a] < tc[b]:
                tc[b] = tc[a]
        t[:] = tc
    return t


def _links(d: DagCompression, start: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every link the walks try, in try order, as sink columns (src, dst),
    and cum[i], the number of links of walks 0..i. Only the walks that clean
    their start run here in Python; a walk from a clean start tries nothing
    from u_k and exactly (rep v_k, rep u_k) from v_k."""
    index, n, s = d._index, d.n_sinks, d.n_sinks + 1
    rep, ptr, ind = index.rep, index.ptr, index.ind
    reps = np.fromiter(rep, start.dtype, len(rep))  # for the single links and the walks' targets
    walk = np.arange(len(start), dtype=start.dtype)
    ts = t[np.maximum(start - n, 0)]
    fresh = np.flatnonzero(ts == walk)
    lone = 2 * np.flatnonzero(ts[1::2] < walk[1::2]) + 1
    # Children ascend, so a cluster's sink children pop first, each one link, and enter as one
    # slice: ind[ptr[c]:mid[c - s]] are c's sinks, ind[mid[c - s]:ptr[c + 1]] its clusters.
    mid = (np.cumsum(index.outdegree[s:])
           - np.bincount(d.arc_u[d.arc_v > n] - s, minlength=d.n_clusters)).tolist()
    clean = bytearray(b"\0" + b"\1" * n + b"\0" * d.n_clusters)
    links, ends = [], []
    for x in start[fresh].tolist():
        work = [x]
        while work:
            c = work.pop()
            if clean[c]:
                links.append(rep[c])
            else:
                clean[c] = 1
                links += ind[ptr[c]:mid[c - s]]
                work += ind[mid[c - s]:ptr[c + 1]][::-1]  # the first cluster child pops first
        ends.append(len(links))
    count = np.zeros(len(start), start.dtype)
    count[lone] = 1
    count[fresh] = np.diff(ends, prepend=0)
    cum = np.cumsum(count)
    src = np.empty(len(links) + len(lone), start.dtype)
    at = cum[lone] - 1
    src[at] = reps[start[lone]]
    walked = np.ones(len(src), bool)
    walked[at] = False
    src[walked] = np.fromiter(links, start.dtype, len(links))
    # Walk 2k goes towards rep v_k, walk 2k + 1 towards rep u_k.
    dst = np.repeat(reps[start.reshape(-1, 2)[:, ::-1].ravel()], count)
    return src, dst, cum


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
    f = result.edges.array
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
    u, v, w = _lex_sorted(*result.edges.array.T)
    return f"mst {n} {len(u)} {result.total_weight}\n" + _record_block("t", u, v, w)
