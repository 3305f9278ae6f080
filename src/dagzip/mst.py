"""Kruskal's algorithm on weighted undirected DAG compressions.

The compressed variant is one loop over the compression edges in weight
order and never expands a product: to process {u, v} it makes u and then v
"clean" (the whole cluster inside one union-find set) by walking the
unclean part of the cluster DAG below it, linking each child, once its own
subtree is clean, to a fixed representative sink of the other endpoint,
and finally joins the two representatives. A vertex is marked clean when
the walk first reaches it and stays clean, and a DAG vertex is not
reachable from its own subtree, so each arc is walked at most once over the
whole run: O((|A| + |E|) * alpha(n)) union-find work plus the sort of E.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .compression import DagCompression, clusters, decompress
from .graphs import Graph, UnionFind, _lex_sorted, _record_block, canonical_edge


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
    """Plain Kruskal on a weighted explicit graph; ties broken by canonical edge order."""
    if not g.weighted:
        raise ValueError("Kruskal needs a weighted graph")
    unite = UnionFind(g.n).unite
    # The columns are sorted by (u, v), so a stable sort by weight gives the (w, (u, v)) order.
    order = np.argsort(g.w, kind="stable")
    columns = (c[order].tolist() for c in (g.u, g.v, g.w))
    forest = [(u, v, w) for u, v, w in zip(*columns) if unite(u, v)]
    return MstResult(edges=forest, total_weight=sum(w for _, _, w in forest),
                     stats=MstStats(add_edge_calls=g.m))


def kruskal_compressed(d: DagCompression, debug: bool = False) -> MstResult:
    """Kruskal directly on a weighted undirected compression.

    Returns a minimum spanning forest of decompress(d) without ever
    materializing cluster sets. With debug=True (small inputs only) the
    cleaning precondition and the running spanning-forest invariant are
    re-checked against the decompressed graph after every compression edge.
    """
    if not d.weighted:
        raise ValueError("compressed Kruskal needs a weighted undirected compression")
    index = d._index
    rep = index.representatives()
    ptr, ind = index.indptr.tolist(), index.indices.tolist()
    clean = [False] + [True] * d.n_sinks + [False] * d.n_clusters
    unite = UnionFind(d.n_sinks).unite
    forest: list[tuple[int, int, int]] = []
    add_edge_calls = arcs_traversed = 0
    checker = _DebugChecker(d) if debug else None
    # cedges are sorted by (u, v), so a stable sort by weight gives the (w, (u, v)) order.
    order = np.argsort(d.cedge_w, kind="stable")
    for u, v, w in zip(*(c[order].tolist() for c in (d.cedge_u, d.cedge_v, d.cedge_w))):
        ru, rv = rep[u], rep[v]
        if checker:
            checker.check_clean_precondition(u, rv)
            checker.check_clean_precondition(v, ru)
        # Clean u towards sink rv, then v towards ru. A popped x >= 1 is
        # walked; a popped -x links rep(x) to r after x's subtree is clean.
        for work, r in (([u], rv), ([v], ru)):
            while work:
                x = work.pop()
                if x < 0:
                    add_edge_calls += 1
                    a = rep[-x]
                    if unite(a, r):
                        forest.append((a, r, w) if a <= r else (r, a, w))
                elif not clean[x]:
                    clean[x] = True
                    for i in range(ptr[x + 1] - 1, ptr[x] - 1, -1):
                        c = ind[i]
                        arcs_traversed += 1
                        work.append(-c)
                        work.append(c)
        add_edge_calls += 1
        if unite(ru, rv):
            forest.append((ru, rv, w) if ru <= rv else (rv, ru, w))
        if checker:
            checker.check_invariant((u, v), forest)
    return MstResult(
        edges=forest,
        total_weight=sum(w for _, _, w in forest),
        stats=MstStats(add_edge_calls=add_edge_calls, arcs_traversed=arcs_traversed),
    )


class _DebugChecker:
    """Decompression-backed assertions for small runs."""

    def __init__(self, d: DagCompression):
        if d.n_sinks > 12:
            raise ValueError("debug checking is limited to compressions with <= 12 sinks")
        self.d = d
        self.table = clusters(d)
        self.graph = decompress(d)
        self.processed: dict[tuple[int, int], int] = {}

    def check_clean_precondition(self, v: int, r: int) -> None:
        for x in self.table.cluster[v]:
            e = canonical_edge(False, x, r)
            if x != r and e not in self.graph.edges:
                raise AssertionError(f"clean precondition violated: {e} not an edge")

    def check_invariant(self, cedge: tuple[int, int], forest: list[tuple[int, int, int]]) -> None:
        # The products processed so far, each edge at its minimum weight.
        self.processed[cedge] = self.d.weights[cedge]
        d = self.d
        done = decompress(DagCompression(False, d.n_sinks, d.n_clusters, d.arcs, self.processed,
                                         self.processed))
        for u, v, fw in forest:
            if (u, v) not in self.graph.edges:
                raise AssertionError(f"forest edge {(u, v)} not in the decompressed graph")
            if fw != done.weights.get((u, v)):
                raise AssertionError(f"forest edge {(u, v)} carries weight {fw}, "
                                     f"expected {done.weights.get((u, v))}")
        # The forest must be a minimum spanning forest of the processed products
        # (they contain its edges, so this covers the invariant's sandwiched edge set).
        got, ref = sum(fw for _, _, fw in forest), kruskal_baseline(done).total_weight
        if got != ref:
            raise AssertionError(f"running forest weight {got} != minimum {ref}")


def write_mst(result: MstResult, n: int) -> str:
    """Serialize a spanning forest: header then edges sorted by (u, v), never repeated."""
    u, v, w = _lex_sorted(*np.fromiter(chain.from_iterable(result.edges), np.int64).reshape(-1, 3).T)
    return f"mst {n} {len(u)} {result.total_weight}\n" + _record_block("t", u, v, w)
