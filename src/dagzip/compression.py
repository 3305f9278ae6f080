"""The DAG-compression data structure.

A compression of a graph on sinks 1..n_sinks consists of a cluster DAG
(V, A) whose sinks are exactly the original vertices (cluster vertices are
numbered n_sinks+1 .. n_sinks+n_clusters) and a set E of compression edges.
Each cluster vertex v stands for the set C(v) of sinks reachable from it,
and a compression edge (u, v) encodes every original edge in C(u) x C(v)
(the unordered product for undirected compressions). The size of a
compression is |A| + |E|.

A DagCompression stores A and E as read-only int64 columns: the arcs
(arc_u, arc_v) sorted by (u, v), and the compression edges (cedge_u,
cedge_v), canonical (u <= v when undirected) and sorted the same way, with
their weights in cedge_w (None when unweighted). A weighted compression is
undirected, like a weighted Graph, and its weight column is built by the
same helper, so a weight map that misses a compression edge, has extra keys,
gives one edge two weights or holds a negative weight is refused at
construction, as are negative counts. The tuple views arcs, cedges and
weights are built on first use and cached, for the small-instance code and
the tests.

Every pass over (V, A) reads one index, built on first use and cached: the
arcs in CSR form (children in ascending order), in-degrees, the Kahn
topological order and a representative sink per vertex, all O(|V| + |A|).
The index alone decides whether the compression is well-formed: validate()
returns its list of violations, and every query that needs a well-formed
compression (decompress, clusters, compressed Kruskal, the normalize passes)
refuses any other through its check(), in validate()'s words.
The cluster sets, Theta(n * |clusters|), are built per call, once, as a
CSR of sorted sink arrays (_cluster_csr); clusters() reads every set, and
decompress() builds only the sets below compression-edge endpoints and
expands every product in one ragged numpy pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .graphs import (INT64_MAX, Graph, _Frozen, _LineReader, _pair_columns, _pair_view,
                     _record_block, _weight_column, _weight_view)


class CompressionFormatError(ValueError):
    """Raised for malformed compression text."""


class DagCompression(_Frozen):
    """A compression (V, A, E), immutable: attributes cannot be rebound and
    the arrays are read-only.

    The constructor takes non-negative counts, (u, v) pairs, as iterables or
    (k, 2) arrays, and, when weighted (undirected only), a {(u, v): weight}
    map of non-negative weights whose keys are exactly the compression edges;
    undirected pairs are canonicalized and repeats merged.
    """

    _fields = ("directed", "n_sinks", "n_clusters", "arc_u", "arc_v",
               "cedge_u", "cedge_v", "cedge_w")

    def __init__(self, directed: bool, n_sinks: int, n_clusters: int, arcs, cedges,
                 weights: dict[tuple[int, int], int] | None = None):
        if n_sinks < 0 or n_clusters < 0:
            raise ValueError("sink and cluster counts must be non-negative")
        au, av = _pair_columns(arcs, False, n_sinks + n_clusters, "vertex id")
        cu, cv = _pair_columns(cedges, not directed, n_sinks + n_clusters, "vertex id")
        if weights is not None and directed:
            raise ValueError("weighted compressions are undirected")
        cw = None if weights is None else _weight_column(weights, cu, cv, "compression edges")
        self._fill(directed, n_sinks, n_clusters, au, av, cu, cv, cw)
        # A directed frozenset is canonical already: it serves as its own view.
        if isinstance(arcs, frozenset):
            self.__dict__["arcs"] = arcs
        if isinstance(cedges, frozenset) and directed:
            self.__dict__["cedges"] = cedges

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return _pair_view(self.arc_u, self.arc_v)

    @cached_property
    def cedges(self) -> frozenset[tuple[int, int]]:
        return _pair_view(self.cedge_u, self.cedge_v)

    @cached_property
    def weights(self) -> MappingProxyType[tuple[int, int], int] | None:
        return _weight_view(self.cedge_u, self.cedge_v, self.cedge_w)

    @property
    def n_vertices(self) -> int:
        return self.n_sinks + self.n_clusters

    @property
    def weighted(self) -> bool:
        return self.cedge_w is not None

    def size(self) -> int:
        return len(self.arc_u) + len(self.cedge_u)

    @cached_property
    def _index(self) -> _DagIndex:
        # Built on first use; valid for good because the arrays are read-only.
        return _DagIndex(self)


@dataclass
class ClusterTable:
    """Reachable-sink sets C(v) and a fixed representative sink per vertex."""

    cluster: dict[int, frozenset[int]]
    representative: dict[int, int]


class _DagIndex:
    """The cluster DAG (V, A) of one compression in CSR form, as every pass
    reads it, and the one verdict on whether the compression is well-formed.

    The children of v are ind[ptr[v]:ptr[v + 1]], ascending, in Python lists
    that Kahn's pass builds and the walks reuse; outdegree and indegree are
    arrays that count arcs per vertex (slot 0 unused). order is
    Kahn's topological order (FIFO, smallest id first), or None on a cycle.
    violations names every sink with an out-arc, then every cluster vertex
    without one, then a cycle; check() raises on any of them. rep[v] is the
    sink reached from v by always taking the first (smallest) child; it is
    None unless violations is empty.
    Cluster sets are not kept: they can be quadratic in size.
    """

    __slots__ = ("ptr", "ind", "outdegree", "indegree", "order", "violations", "rep")

    def __init__(self, d: DagCompression):
        n, s = d.n_vertices, d.n_sinks
        self.outdegree = np.bincount(d.arc_u, minlength=n + 1)
        indptr = np.concatenate(([0], np.cumsum(self.outdegree)))
        self.indegree = np.bincount(d.arc_v, minlength=n + 1)
        self.ptr, self.ind = ptr, ind = indptr.tolist(), d.arc_v.tolist()
        indeg = self.indegree.tolist()
        order = (np.flatnonzero(self.indegree[1:] == 0) + 1).tolist()
        for x in order:  # the list grows while it is read: Kahn's FIFO queue
            for y in ind[ptr[x]:ptr[x + 1]]:
                indeg[y] -= 1
                if not indeg[y]:
                    order.append(y)
        self.order = order if len(order) == n else None
        self.violations = [f"original vertex {v} has outgoing arc"
                           for v in (np.flatnonzero(self.outdegree[1:s + 1]) + 1).tolist()]
        self.violations += [f"cluster vertex {v} with no outgoing arc"
                            for v in (np.flatnonzero(self.outdegree[s + 1:] == 0) + s + 1).tolist()]
        if self.order is None:
            self.violations.append("cycle in cluster DAG")
        self.rep = None
        if not self.violations:
            # Pointer jumping along first children ends at sinks: no cycle, no childless cluster.
            rep = np.arange(n + 1)
            rep[s + 1:] = d.arc_v[indptr[s + 1: n + 1]]
            while not np.array_equal(jumped := rep[rep], rep):
                rep = jumped
            self.rep = rep.tolist()

    def check(self) -> None:
        """Raise ValueError, in validate()'s words, unless the compression is well-formed."""
        if self.violations:
            raise ValueError("invalid compression: " + "; ".join(self.violations))


def validate(d: DagCompression) -> list[str]:
    """Empty list iff the compression is well-formed; its violations otherwise."""
    return list(d._index.violations)


# _cluster_csr holds about 24 bytes per cluster-set member at its peak
# (tracemalloc, all sets of a 4000-cluster chain: 8M members, 193 MB), so
# 80M members is about 2 GB.
MAX_CLUSTER_MEMBERS = 80_000_000


def _cluster_csr(d: DagCompression, tops: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """C(v) in CSR form for the vertices in tops and every vertex below them
    (every vertex when tops is None): cind[cptr[v]:cptr[v + 1]] is C(v),
    ascending; the other sets are left empty.

    Sink v is [v]. One pass over the topological order marks the cluster
    vertices to fold; each of them, in reverse topological order, is the
    sorted union of its children's sets. Raises ValueError once those sets
    hold more than MAX_CLUSTER_MEMBERS members in all.
    """
    index, s = d._index, d.n_sinks
    index.check()
    ptr, ind = index.ptr, index.ind
    folded = [v for v in index.order if v > s]  # parents before children
    if tops is not None:
        below = np.zeros(d.n_vertices + 1, bool)
        below[tops] = True
        below = below.tolist()
        for v in folded:
            if below[v]:
                for k in ind[ptr[v]: ptr[v + 1]]:
                    below[k] = True
        folded = [v for v in folded if below[v]]
    members: dict[int, list[int]] = {}
    total = 0
    for v in reversed(folded):
        kids = ind[ptr[v]: ptr[v + 1]]
        members[v] = got = sorted(set(chain.from_iterable(members.get(k, (k,)) for k in kids)))
        total += len(got)
        if total > MAX_CLUSTER_MEMBERS:
            raise ValueError(f"the cluster sets exceed the limit of {MAX_CLUSTER_MEMBERS} members in all")
    lists = [members.get(v, ()) for v in range(s + 1, d.n_vertices + 1)]
    cptr = np.ones(d.n_vertices + 2, dtype=np.int64)  # cptr[v + 1] = |C(v)| before the sum
    cptr[:2] = 0
    cptr[s + 2:] = np.fromiter(map(len, lists), np.int64, len(lists))
    cind = np.concatenate((np.arange(1, s + 1), np.fromiter(chain.from_iterable(lists), np.int64)))
    return np.cumsum(cptr, out=cptr), cind


# clusters() holds about 100 bytes per cluster-set member, sinks' own sets
# included, and 400 per vertex on top of the CSR (tracemalloc: a 2000-cluster
# chain, 2M members, peaked at 200 MB; 200,001 vertices at 99 MB).
MAX_CLUSTER_TABLE_BYTES = 2_000_000_000


def clusters(d: DagCompression) -> ClusterTable:
    """Materialize every C(v) plus the representative function; refused above MAX_CLUSTER_TABLE_BYTES."""
    cptr, cind = _cluster_csr(d)
    if (need := 100 * len(cind) + 400 * d.n_vertices) > MAX_CLUSTER_TABLE_BYTES:
        raise ValueError(f"the cluster table needs about {need} bytes, "
                         f"above the limit of {MAX_CLUSTER_TABLE_BYTES}")
    ptr, ind = cptr.tolist(), cind.tolist()
    vs = range(1, d.n_vertices + 1)
    return ClusterTable(cluster={v: frozenset(ind[ptr[v]: ptr[v + 1]]) for v in vs},
                        representative=dict(zip(vs, d._index.rep[1:])))


# decompress holds about 50 bytes per expanded pair at its peak, result
# included (49 measured with tracemalloc on rook g=100, plus at most 4 for
# the sort's buffer, which tracemalloc does not see), so 40M pairs is about
# 2 GB. Larger expansions are refused before they allocate.
MAX_EXPANDED_PAIRS = 40_000_000


def decompress(d: DagCompression) -> Graph:
    """Expand the compression into the explicit graph it encodes.

    Every compression edge contributes the full product of its endpoint
    clusters; in the weighted case an original edge gets the minimum weight
    over all compression edges covering it. All products are expanded in
    one ragged pass over the cluster CSR: pair t of the product of cedge
    (u, v) is (C(u)[t // |C(v)|], C(v)[t % |C(v)|]). The pairs are keyed as
    x * (n + 1) + y and sorted once; each run of equal keys is one edge,
    with the minimum weight of the run.

    The exact pair count sum |C(u)| * |C(v)| is known from the cluster
    sizes before the expansion allocates anything (about 50 bytes per pair
    at its peak); above MAX_EXPANDED_PAIRS it raises ValueError.
    """
    n = d.n_sinks
    if (n + 1) ** 2 > INT64_MAX:
        raise ValueError(f"decompress needs (sinks + 1)^2 to fit in int64, got {n} sinks")
    cptr, cind = _cluster_csr(d, np.concatenate((d.cedge_u, d.cedge_v)))
    size = np.diff(cptr)
    nv = size[d.cedge_v]
    counts = size[d.cedge_u] * nv
    total = sum(counts.tolist())  # Python ints: exact, where an int64 sum could wrap
    if total > MAX_EXPANDED_PAIRS:
        raise ValueError(f"decompressing expands {total} vertex pairs, "
                         f"above the limit of {MAX_EXPANDED_PAIRS}")
    i = np.repeat(np.arange(len(counts)), counts)
    t = np.arange(total)
    t -= np.repeat(np.cumsum(counts) - counts, counts)
    x, y = np.divmod(t, nv[i])
    del t
    x += cptr[d.cedge_u][i]
    y += cptr[d.cedge_v][i]
    x, y = cind[x], cind[y]
    w = d.cedge_w[i] if d.weighted else None
    del i
    if not d.directed:
        x, y = np.minimum(x, y), np.maximum(x, y)
    x *= n + 1
    x += y
    del y
    order = np.argsort(x, kind="stable")  # the expansion comes in sorted runs, which this sort exploits
    key = x[order]
    del x
    first = np.flatnonzero(np.diff(key, prepend=-1))  # keys are positive
    u, v = np.divmod(key[first], n + 1)
    w = np.minimum.reduceat(w[order], first) if d.weighted else None
    return Graph._from_arrays(d.directed, n, u, v, w)


def read_compression(text: str) -> DagCompression:
    """Parse the compression text format (see write_compression)."""
    r = _LineReader(text, CompressionFormatError)
    directed, _, weighted = r.header("dagc", 0)
    if weighted and directed:
        raise CompressionFormatError("weighted compressions must be undirected")
    n_sinks, n_clusters = r.counted("sinks"), r.counted("clusters")
    top = r.vertices(n_sinks + n_clusters)
    au, av, _ = r.edges("a", r.counted("arcs"), top, True, False)
    cu, cv, cw = r.edges("c", r.counted("cedges"), top, directed, weighted)
    r.end()
    return DagCompression._from_arrays(directed, n_sinks, n_clusters, au, av, cu, cv, cw)


def write_compression(d: DagCompression) -> str:
    """Canonical serialization: arcs, then compression edges, each sorted."""
    head = "dagc " + ("directed" if d.directed else "undirected") + (" weighted" if d.weighted else "")
    return (f"{head}\nsinks {d.n_sinks}\nclusters {d.n_clusters}\narcs {len(d.arc_u)}\n"
            + _record_block("a", d.arc_u, d.arc_v) + f"cedges {len(d.cedge_u)}\n"
            + _record_block("c", d.cedge_u, d.cedge_v, d.cedge_w))
