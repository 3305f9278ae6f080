"""Kruskal's algorithm on weighted undirected DAG compressions.

Both variants are one Kruskal pass (_kruskal) over a stream of weighted
links between sinks, on a union-find with path halving and union by size:
O(alpha(n)) amortized per link. The baseline links the edges of an explicit
graph in (w, (u, v)) order.

The compressed variant never expands a product. It takes the compression
edges in the same order, and for {u, v} it first makes u and then v
"clean" (the whole cluster inside one union-find set): it walks the
unclean part of the cluster DAG below the vertex, links each child, once
the child's own subtree is clean, to a fixed representative sink of the
other endpoint, and finally links the two representatives. The walk reads
only the arcs, the representatives and which vertices it has marked
clean, never the union-find, so the link stream (_links) is fixed by the
compression alone and Kruskal over it is plain Kruskal. A vertex is marked
clean when the walk first reaches it and stays clean, and a DAG vertex is
not reachable from its own subtree, so each arc is walked at most once
over the whole run. Each walked arc yields one link and each compression
edge one more: at most |A| + |E| links, O((|A| + |E|) * alpha(n)) work
plus the sort of E, and arcs_traversed = add_edge_calls - |E|.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .compression import DagCompression
from .graphs import Graph, _lex_sorted, _record_block


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


def _kruskal(n: int, links: Iterable[tuple[int, int, int]], n_edges: int) -> MstResult:
    """Kruskal over links (a, b, w) between sinks 1..n, given in weight order:
    the forest of the links that join two components, as (min, max, w).
    n_edges links come from edges and every other one from a walked arc."""
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    forest: list[tuple[int, int, int]] = []
    count = 0
    for count, (a, b, w) in enumerate(links, 1):
        x, y = a, b
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            if size[x] < size[y]:
                x, y = y, x
            parent[y] = x
            size[x] += size[y]
            forest.append((a, b, w) if a <= b else (b, a, w))
    return MstResult(edges=forest, total_weight=sum(w for _, _, w in forest),
                     stats=MstStats(add_edge_calls=count, arcs_traversed=count - n_edges))


def kruskal_baseline(g: Graph) -> MstResult:
    """Plain Kruskal on a weighted explicit graph; ties broken by canonical edge order."""
    if not g.weighted:
        raise ValueError("Kruskal needs a weighted graph")
    # The columns are sorted by (u, v), so a stable sort by weight gives the (w, (u, v)) order.
    order = np.argsort(g.w, kind="stable")
    return _kruskal(g.n, zip(*(c[order].tolist() for c in (g.u, g.v, g.w))), g.m)


def _links(d: DagCompression) -> Iterator[tuple[int, int, int]]:
    """The links of compressed Kruskal, in order (see the module docstring)."""
    index = d._index
    index.check()
    rep = index.rep
    ptr, ind = index.indptr.tolist(), index.indices.tolist()
    clean = bytearray(b"\0" + b"\1" * d.n_sinks + b"\0" * d.n_clusters)
    # cedges are sorted by (u, v), so a stable sort by weight gives the (w, (u, v)) order.
    order = np.argsort(d.cedge_w, kind="stable")
    for u, v, w in zip(*(c[order].tolist() for c in (d.cedge_u, d.cedge_v, d.cedge_w))):
        ru, rv = rep[u], rep[v]
        # Clean u towards sink rv, then v towards ru. A popped x >= 1 is
        # walked; a popped -x links rep(x) to r after x's subtree is clean.
        for work, r in (([u], rv), ([v], ru)):
            while work:
                x = work.pop()
                if x < 0:
                    yield rep[-x], r, w
                elif not clean[x]:
                    clean[x] = 1
                    for i in range(ptr[x + 1] - 1, ptr[x] - 1, -1):
                        c = ind[i]
                        work.append(-c)
                        work.append(c)
        yield ru, rv, w


def kruskal_compressed(d: DagCompression) -> MstResult:
    """Kruskal directly on a weighted undirected compression.

    Returns a minimum spanning forest of decompress(d) without ever
    materializing cluster sets. Raises ValueError on an unweighted or an
    invalid compression.
    """
    if not d.weighted:
        raise ValueError("compressed Kruskal needs a weighted undirected compression")
    return _kruskal(d.n_sinks, _links(d), len(d.cedge_u))


def write_mst(result: MstResult, n: int) -> str:
    """Serialize a spanning forest: header then edges sorted by (u, v), never repeated."""
    u, v, w = _lex_sorted(*np.fromiter(chain.from_iterable(result.edges), np.int64).reshape(-1, 3).T)
    return f"mst {n} {len(u)} {result.total_weight}\n" + _record_block("t", u, v, w)
