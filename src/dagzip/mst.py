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
mst --check thus compares two different algorithms.
"""

from __future__ import annotations

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


def write_mst(result: MstResult, n: int) -> str:
    """Serialize a spanning forest: header then edges sorted by (u, v), never repeated."""
    u, v, w = _lex_sorted(*np.fromiter(chain.from_iterable(result.edges), np.int64).reshape(-1, 3).T)
    return f"mst {n} {len(u)} {result.total_weight}\n" + _record_block("t", u, v, w)
