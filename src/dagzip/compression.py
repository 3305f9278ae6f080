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
their weights in cedge_w. The text reader and writer, the index and
compressed Kruskal work on these arrays. The tuple views arcs, cedges and
weights are built on first use and cached; the small-instance modules
(oracle, reductions, normalize, heuristics) and the tests read those.

Every pass over (V, A) reads one index, built on first use and cached on
the compression: the arcs in CSR form (indptr from the out-degrees of the
sorted arc sources, indices the arc targets, so each vertex's children come
in ascending order), in-degrees, the Kahn topological order and a
representative sink per vertex, all O(|V| + |A|). validate,
topological_order, sink_representatives, clusters, compressed Kruskal, the
shore pass and the tree-shape check share it. Cluster sets are
Theta(n * |clusters|) and stay per call (clusters(), decompress()).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .graphs import INT64_MAX, Graph, WeightedGraph, _LineReader, _lex_sorted, _text_rows, canonical_edge


class CompressionFormatError(ValueError):
    """Raised for malformed compression text."""


def _pair_columns(pairs, undirected: bool, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical, sorted, distinct int64 (u, v) columns of pairs (an iterable
    or a (k, 2) array) with ids in 1..top."""
    try:
        a = np.array(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    except OverflowError:
        raise ValueError(f"vertex id out of range 1..{top}") from None
    if a.size == 0:
        a = a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("arcs and compression edges must be (u, v) pairs")
    if a.size and (a.min() < 1 or a.max() > top):
        u, v = a[((a < 1) | (a > top)).any(axis=1)][0]
        raise ValueError(f"vertex id ({u},{v}) out of range 1..{top}")
    u, v = a[:, 0], a[:, 1]
    u, v = _lex_sorted(np.minimum(u, v), np.maximum(u, v)) if undirected else _lex_sorted(u, v)
    keep = np.ones(len(u), dtype=bool)
    keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u[keep], v[keep]


class DagCompression:
    """A compression (V, A, E), immutable: attributes cannot be rebound and
    the arrays are read-only.

    The constructor takes (u, v) pairs, as iterables or (k, 2) arrays, and,
    when weighted, a {(u, v): weight} map; undirected pairs are canonicalized
    and repeats merged. A map that misses a compression edge or has extra
    keys is kept as the weights view: validate() reports it, and cedge_w (so
    compressed Kruskal, decompress and write_compression) raises ValueError.
    """

    def __init__(self, directed: bool, n_sinks: int, n_clusters: int, arcs, cedges,
                 weights: dict[tuple[int, int], int] | None = None):
        au, av = _pair_columns(arcs, False, n_sinks + n_clusters)
        cu, cv = _pair_columns(cedges, not directed, n_sinks + n_clusters)
        cw = None
        if weights is not None:
            w = {canonical_edge(directed, a, b): x for (a, b), x in weights.items()}
            keys = list(zip(cu.tolist(), cv.tolist()))
            try:
                cw = np.fromiter(map(w.get, keys, repeat(0)), np.int64, len(keys))
            except OverflowError:
                raise ValueError("compression-edge weight does not fit in int64") from None
        self._set(directed, n_sinks, n_clusters, au, av, cu, cv, cw)
        # A directed frozenset is canonical already: it serves as its own view.
        if isinstance(arcs, frozenset):
            self.__dict__["arcs"] = arcs
        if isinstance(cedges, frozenset) and directed:
            self.__dict__["cedges"] = cedges
        if weights is not None and not len(w) == len(keys) == sum(map(w.__contains__, keys)):
            self.__dict__.update(_weights_cover=False, weights=MappingProxyType(w))

    @classmethod
    def _from_arrays(cls, directed, n_sinks, n_clusters, *columns) -> DagCompression:
        """From int64 columns that are canonical, sorted, distinct and in range already."""
        d = cls.__new__(cls)
        d._set(directed, n_sinks, n_clusters, *columns)
        return d

    def _set(self, directed, n_sinks, n_clusters, au, av, cu, cv, cw) -> None:
        self.__dict__.update(directed=directed, n_sinks=n_sinks, n_clusters=n_clusters,
                             arc_u=au, arc_v=av, cedge_u=cu, cedge_v=cv, _cedge_w=cw,
                             _weights_cover=True)
        for a in self._columns:
            a.flags.writeable = False

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def _columns(self) -> tuple[np.ndarray, ...]:
        cols = (self.arc_u, self.arc_v, self.cedge_u, self.cedge_v)
        return cols + (self._cedge_w,) if self.weighted else cols

    @property
    def cedge_w(self) -> np.ndarray | None:
        """The weights aligned with cedge_u/cedge_v, None when unweighted."""
        if not self._weights_cover:
            raise ValueError("weights do not cover exactly the compression edges")
        return self._cedge_w

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.arc_u.tolist(), self.arc_v.tolist()))

    @cached_property
    def cedges(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.cedge_u.tolist(), self.cedge_v.tolist()))

    @cached_property
    def weights(self) -> MappingProxyType[tuple[int, int], int] | None:
        pairs = zip(self.cedge_u.tolist(), self.cedge_v.tolist())
        return MappingProxyType(dict(zip(pairs, self._cedge_w.tolist()))) if self.weighted else None

    @property
    def n_vertices(self) -> int:
        return self.n_sinks + self.n_clusters

    @property
    def weighted(self) -> bool:
        return self._cedge_w is not None

    def is_sink(self, v: int) -> bool:
        return v <= self.n_sinks

    def size(self) -> int:
        return len(self.arc_u) + len(self.cedge_u)

    @cached_property
    def _index(self) -> _DagIndex:
        # Built on first use; valid for good because the arrays are read-only.
        return _DagIndex(self)

    def __eq__(self, other):
        if not isinstance(other, DagCompression):
            return NotImplemented
        return ((self.directed, self.n_sinks, self.n_clusters, self.weighted)
                == (other.directed, other.n_sinks, other.n_clusters, other.weighted)
                and all(map(np.array_equal, self._columns, other._columns))
                and (self._weights_cover and other._weights_cover or self.weights == other.weights))


@dataclass
class ClusterTable:
    """Reachable-sink sets C(v) and a fixed representative sink per vertex."""

    cluster: dict[int, frozenset[int]]
    representative: dict[int, int]


class _DagIndex:
    """The cluster DAG (V, A) of one compression in CSR form, as every pass reads it.

    The children of v are indices[indptr[v]:indptr[v + 1]], ascending;
    outdegree and indegree count arcs per vertex (slot 0 unused). order is
    Kahn's topological order (FIFO, smallest id first), or None on a cycle.
    rep[v] is the sink reached from v by always taking the first child; it
    is None without an order or when some cluster vertex has no child.
    Cluster sets are not kept: they can be quadratic in size.
    """

    __slots__ = ("indptr", "indices", "outdegree", "indegree", "order", "rep")

    def __init__(self, d: DagCompression):
        n, s = d.n_vertices, d.n_sinks
        self.outdegree = np.bincount(d.arc_u, minlength=n + 1)
        self.indptr = np.concatenate(([0], np.cumsum(self.outdegree)))
        self.indices = d.arc_v
        self.indegree = np.bincount(d.arc_v, minlength=n + 1)
        ptr, ind, indeg = self.indptr.tolist(), self.indices.tolist(), self.indegree.tolist()
        order = (np.flatnonzero(self.indegree[1:] == 0) + 1).tolist()
        for x in order:  # the list grows while it is read: Kahn's FIFO queue
            for y in ind[ptr[x]:ptr[x + 1]]:
                indeg[y] -= 1
                if not indeg[y]:
                    order.append(y)
        self.order = order if len(order) == n else None
        self.rep = None
        if self.order is not None and self.outdegree[s + 1:].all():
            # Pointer jumping along first children ends at sinks: no cycle, no childless cluster.
            rep = np.arange(n + 1)
            rep[s + 1:] = self.indices[self.indptr[s + 1: n + 1]]
            while not np.array_equal(jumped := rep[rep], rep):
                rep = jumped
            self.rep = rep.tolist()

    def children(self, v: int) -> list[int]:
        return self.indices[self.indptr[v]: self.indptr[v + 1]].tolist()

    def representatives(self) -> list[int]:
        if self.rep is None:
            raise ValueError("cluster DAG has a cycle or a cluster vertex without arcs")
        return self.rep


def validate(d: DagCompression) -> list[str]:
    """Empty list iff the compression invariants hold; violations otherwise."""
    index, s = d._index, d.n_sinks
    violations = [f"original vertex {v} has outgoing arc"
                  for v in (np.flatnonzero(index.outdegree[1:s + 1]) + 1).tolist()]
    violations += [f"cluster vertex {v} with no outgoing arc"
                   for v in (np.flatnonzero(index.outdegree[s + 1:] == 0) + s + 1).tolist()]
    if index.order is None:
        violations.append("cycle in cluster DAG")
    if d.weighted and not d._weights_cover:
        violations.append("weights do not cover exactly the compression edges")
    elif d.weighted and (d.cedge_w < 0).any():
        violations.append("negative compression-edge weight")
    return violations


def topological_order(d: DagCompression) -> list[int]:
    """Kahn's algorithm over (V, A); raises ValueError on a cycle."""
    if d._index.order is None:
        raise ValueError("cluster DAG contains a cycle")
    return list(d._index.order)


def sink_representatives(d: DagCompression) -> dict[int, int]:
    """A reachable sink per vertex, following first children.

    A vertex with several out-arcs copies the representative of the target that
    comes first in canonical arc order, so runs are deterministic. Cluster sets
    are never materialized here.
    """
    rep = d._index.representatives()
    return dict(zip(range(1, d.n_vertices + 1), rep[1:]))


def clusters(d: DagCompression) -> ClusterTable:
    """Materialize every C(v) plus the representative function."""
    index = d._index
    rep = sink_representatives(d)
    ptr, ind = index.indptr.tolist(), index.indices.tolist()
    cluster: dict[int, frozenset[int]] = {}
    for v in reversed(index.order):
        cluster[v] = (frozenset((v,)) if d.is_sink(v)
                      else frozenset().union(*map(cluster.__getitem__, ind[ptr[v]:ptr[v + 1]])))
    return ClusterTable(cluster=cluster, representative=rep)


def decompress(d: DagCompression) -> Graph | WeightedGraph:
    """Expand the compression into the explicit graph it encodes.

    Every compression edge contributes the full product of its endpoint
    clusters; in the weighted case an original edge gets the minimum weight
    over all compression edges covering it.
    """
    ws = d.cedge_w.tolist() if d.weighted else repeat(None)
    table = clusters(d)
    edges: set[tuple[int, int]] = set()
    weights: dict[tuple[int, int], int] = {}
    for u, v, w in zip(d.cedge_u.tolist(), d.cedge_v.tolist(), ws):
        cu, cv = table.cluster[u], table.cluster[v]
        for x in cu:
            for y in cv:
                e = canonical_edge(d.directed, x, y)
                edges.add(e)
                if w is not None and (e not in weights or w < weights[e]):
                    weights[e] = w
    g = Graph(directed=d.directed, n=d.n_sinks, edges=frozenset(edges))
    return WeightedGraph(graph=g, weights=weights) if d.weighted else g


def read_compression(text: str) -> DagCompression:
    """Parse the compression text format (see write_compression)."""
    r = _LineReader(text, CompressionFormatError)
    directed, _, weighted = r.header("dagc", 0)
    n_sinks, n_clusters = r.counted("sinks"), r.counted("clusters")
    top = n_sinks + n_clusters
    if top >= INT64_MAX:  # the index has n + 1 slots, so n + 1 must fit in int64 too
        raise CompressionFormatError(f"vertex count {top} is above the limit {INT64_MAX - 1}")
    au, av, _ = r.edges("a", r.counted("arcs"), top, True, False)
    cu, cv, cw = r.edges("c", r.counted("cedges"), top, directed, weighted)
    r.end()
    return DagCompression._from_arrays(directed, n_sinks, n_clusters, au, av, cu, cv, cw)


def write_compression(d: DagCompression) -> str:
    """Canonical serialization: arcs, then compression edges, each sorted."""
    head = "dagc " + ("directed" if d.directed else "undirected") + (" weighted" if d.weighted else "")
    arcs = _text_rows("a", zip(d.arc_u.tolist(), d.arc_v.tolist()), 2)
    columns = (d.cedge_u, d.cedge_v) + ((d.cedge_w,) if d.weighted else ())
    cedges = _text_rows("c", zip(*(c.tolist() for c in columns)), 2 + d.weighted)
    return "\n".join([head, f"sinks {d.n_sinks}", f"clusters {d.n_clusters}",
                      f"arcs {len(arcs)}", *arcs, f"cedges {len(cedges)}", *cedges, ""])
