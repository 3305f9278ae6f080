"""The DAG-compression data structure.

A compression of a graph on sinks 1..n_sinks consists of a cluster DAG
(V, A) whose sinks are exactly the original vertices (cluster vertices are
numbered n_sinks+1 .. n_sinks+n_clusters) and a set E of compression edges.
Each cluster vertex v stands for the set C(v) of sinks reachable from it,
and a compression edge (u, v) encodes every original edge in C(u) x C(v)
(the unordered product for undirected compressions). The size of a
compression is |A| + |E|.

Every pass over (V, A) reads one index, built on first use and cached on the
frozen compression: children in canonical arc order, in-degrees, the Kahn
topological order and a representative sink per vertex, all O(|V| + |A|).
validate, topological_order, sink_representatives, clusters, compressed
Kruskal, the shore pass and the tree-shape check share it. Cluster sets are
Theta(n * |clusters|) and stay per call (clusters(), decompress()).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter

from .graphs import Graph, WeightedGraph, _LineReader, canonical_edge


class CompressionFormatError(ValueError):
    """Raised for malformed compression text."""


@dataclass(frozen=True, eq=False)
class DagCompression:
    directed: bool
    n_sinks: int
    n_clusters: int
    arcs: frozenset[tuple[int, int]]
    cedges: frozenset[tuple[int, int]]
    weights: dict[tuple[int, int], int] | None = None

    def __post_init__(self):
        # A directed frozenset is already canonical: canonical_edge is the
        # identity on directed pairs, and a frozenset holds no lists.
        if not (self.directed and isinstance(self.arcs, frozenset)):
            object.__setattr__(self, "arcs", frozenset(tuple(a) for a in self.arcs))
        if not (self.directed and isinstance(self.cedges, frozenset)):
            cedges = frozenset(canonical_edge(self.directed, u, v) for u, v in self.cedges)
            object.__setattr__(self, "cedges", cedges)
        if self.weights is not None:
            w = {canonical_edge(self.directed, u, v): x for (u, v), x in self.weights.items()}
            object.__setattr__(self, "weights", w)
        top = self.n_sinks + self.n_clusters
        for u, v in chain(self.arcs, self.cedges):
            if not (1 <= u <= top and 1 <= v <= top):
                raise ValueError(f"vertex id ({u},{v}) out of range 1..{top}")

    @property
    def n_vertices(self) -> int:
        return self.n_sinks + self.n_clusters

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def is_sink(self, v: int) -> bool:
        return v <= self.n_sinks

    def size(self) -> int:
        return len(self.arcs) + len(self.cedges)

    @cached_property
    def _index(self) -> _DagIndex:
        # Built on first use; valid for good because arcs and counts are frozen.
        return _DagIndex(self)

    def __eq__(self, other):
        if not isinstance(other, DagCompression):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.n_sinks == other.n_sinks
            and self.n_clusters == other.n_clusters
            and self.arcs == other.arcs
            and self.cedges == other.cedges
            and self.weights == other.weights
        )


@dataclass
class ClusterTable:
    """Reachable-sink sets C(v) and a fixed representative sink per vertex."""

    cluster: dict[int, frozenset[int]]
    representative: dict[int, int]


class _DagIndex:
    """The cluster DAG (V, A) of one compression, in the form every pass reads.

    children[v] holds v's arc targets in canonical (ascending) order and
    indegree[v] counts v's in-arcs; slot 0 is unused. order is Kahn's
    topological order (FIFO, smallest id first), or None when (V, A) has a
    cycle. rep[v] is the sink reached from v by always taking the first
    child; it is None when there is no order or some cluster vertex has no
    child. Cluster sets are not kept: they can be quadratic in size.
    """

    __slots__ = ("children", "indegree", "order", "rep")

    def __init__(self, d: DagCompression):
        n = d.n_vertices
        arcs = sorted(d.arcs)
        children: list[tuple[int, ...]] = [()] * (n + 1)
        for u, group in groupby(arcs, key=itemgetter(0)):
            children[u] = tuple(v for _, v in group)
        indegree = [0] * (n + 1)
        for _, v in arcs:
            indegree[v] += 1
        self.children = tuple(children)
        self.indegree = tuple(indegree)
        order = [v for v in range(1, n + 1) if not indegree[v]]
        for x in order:  # the list grows while it is read: Kahn's FIFO queue
            for y in children[x]:
                indegree[y] -= 1
                if not indegree[y]:
                    order.append(y)
        self.order = tuple(order) if len(order) == n else None
        self.rep = None
        if self.order is not None and all(children[d.n_sinks + 1:]):
            rep = list(range(n + 1))
            for v in reversed(order):
                if v > d.n_sinks:
                    rep[v] = rep[children[v][0]]
            self.rep = tuple(rep)

    def representatives(self) -> tuple[int, ...]:
        if self.rep is None:
            raise ValueError("cluster DAG has a cycle or a cluster vertex without arcs")
        return self.rep


def validate(d: DagCompression) -> list[str]:
    """Empty list iff the compression invariants hold; violations otherwise."""
    children = d._index.children
    violations = [f"original vertex {v} has outgoing arc"
                  for v in range(1, d.n_sinks + 1) if children[v]]
    violations += [f"cluster vertex {v} with no outgoing arc"
                   for v in range(d.n_sinks + 1, d.n_vertices + 1) if not children[v]]
    if d._index.order is None:
        violations.append("cycle in cluster DAG")
    if d.weights is not None:
        if set(d.weights) != set(d.cedges):
            violations.append("weights do not cover exactly the compression edges")
        elif any(w < 0 for w in d.weights.values()):
            violations.append("negative compression-edge weight")
    return violations


def topological_order(d: DagCompression) -> list[int]:
    """Kahn's algorithm over (V, A); raises ValueError on a cycle."""
    if d._index.order is None:
        raise ValueError("cluster DAG contains a cycle")
    return list(d._index.order)


def sink_representatives(d: DagCompression) -> dict[int, int]:
    """A reachable sink per vertex, from one reverse-topological pass.

    A vertex with several out-arcs copies the representative of the target that
    comes first in canonical arc order, so runs are deterministic. Cluster sets
    are never materialized here.
    """
    rep = d._index.representatives()
    return {v: rep[v] for v in range(1, d.n_vertices + 1)}


def clusters(d: DagCompression) -> ClusterTable:
    """Materialize every C(v) plus the representative function."""
    index = d._index
    rep = sink_representatives(d)
    cluster: dict[int, frozenset[int]] = {}
    for v in reversed(index.order):
        if d.is_sink(v):
            cluster[v] = frozenset((v,))
        else:
            acc: set[int] = set()
            for u in index.children[v]:
                acc |= cluster[u]
            cluster[v] = frozenset(acc)
    return ClusterTable(cluster=cluster, representative=rep)


def decompress(d: DagCompression) -> Graph | WeightedGraph:
    """Expand the compression into the explicit graph it encodes.

    Every compression edge contributes the full product of its endpoint
    clusters; in the weighted case an original edge gets the minimum weight
    over all compression edges covering it.
    """
    table = clusters(d)
    edges: set[tuple[int, int]] = set()
    weights: dict[tuple[int, int], int] = {}
    items = sorted(d.cedges)
    for u, v in items:
        cu, cv = table.cluster[u], table.cluster[v]
        w = d.weights[(u, v)] if d.weighted else None
        for x in cu:
            for y in cv:
                e = canonical_edge(d.directed, x, y)
                edges.add(e)
                if w is not None and (e not in weights or w < weights[e]):
                    weights[e] = w
    g = Graph(directed=d.directed, n=d.n_sinks, edges=frozenset(edges))
    if d.weighted:
        return WeightedGraph(graph=g, weights=weights)
    return g


def compression_union(d1: DagCompression, d2: DagCompression) -> DagCompression:
    """Componentwise union of two compressions over the same sink set.

    d2's cluster vertices are renumbered after d1's; the result decompresses
    to the union of the two decompressed edge sets.
    """
    if d1.directed != d2.directed or d1.n_sinks != d2.n_sinks:
        raise ValueError("compressions must share orientation and sink set")
    if d1.weighted != d2.weighted:
        raise ValueError("cannot mix weighted and unweighted compressions")
    shift = d1.n_clusters

    def relabel(v: int) -> int:
        return v if v <= d2.n_sinks else v + shift

    arcs = set(d1.arcs) | {(relabel(u), relabel(v)) for u, v in d2.arcs}
    cedges = set(d1.cedges) | {(relabel(u), relabel(v)) for u, v in d2.cedges}
    weights = None
    if d1.weighted:
        weights = dict(d1.weights)
        for (u, v), w in d2.weights.items():
            e = canonical_edge(d1.directed, relabel(u), relabel(v))
            weights[e] = min(w, weights.get(e, w))
    return DagCompression(
        directed=d1.directed,
        n_sinks=d1.n_sinks,
        n_clusters=d1.n_clusters + d2.n_clusters,
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
        weights=weights,
    )


def read_compression(text: str) -> DagCompression:
    """Parse the compression text format (see write_compression)."""
    r = _LineReader(text, CompressionFormatError)
    directed, _, weighted = r.header("dagc", 0)
    n_sinks = r.counted("sinks")
    n_clusters = r.counted("clusters")
    top = n_sinks + n_clusters
    arcs = r.edges("a", r.counted("arcs"), top, True, False)
    cedges = r.edges("c", r.counted("cedges"), top, directed, weighted)
    r.end()
    return DagCompression(
        directed=directed,
        n_sinks=n_sinks,
        n_clusters=n_clusters,
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
        weights=cedges if weighted else None,
    )


def write_compression(d: DagCompression) -> str:
    """Canonical serialization: arcs, then compression edges, each sorted."""
    head = "dagc " + ("directed" if d.directed else "undirected")
    if d.weighted:
        head += " weighted"
    out = [head, f"sinks {d.n_sinks}", f"clusters {d.n_clusters}", f"arcs {len(d.arcs)}"]
    for u, v in sorted(d.arcs):
        out.append(f"a {u} {v}")
    out.append(f"cedges {len(d.cedges)}")
    for u, v in sorted(d.cedges):
        if d.weighted:
            out.append(f"c {u} {v} {d.weights[(u, v)]}")
        else:
            out.append(f"c {u} {v}")
    return "\n".join(out) + "\n"
