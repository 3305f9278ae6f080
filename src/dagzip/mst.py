"""Kruskal's algorithm on weighted undirected DAG compressions.

The compressed variant iterates over compression edges in weight order and
never expands a product: to process {u, v} it makes u and v "clean" (their
whole clusters inside one union-find set) by walking the cluster DAG once,
connecting each freshly visited child to a fixed representative sink of the
other endpoint. Every arc is traversed at most once over the whole run, so
the work is O((|A| + |E|) * alpha(n)) plus the sort of E.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .compression import DagCompression, clusters, decompress
from .graphs import Graph, WeightedGraph, canonical_edge


class UnionFind:
    """Disjoint sets over 1..n with path compression and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n + 1))
        self.rank = [0] * (n + 1)

    def find(self, x: int) -> int:
        root = x
        p = self.parent
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def unite(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


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


@dataclass
class MstRun:
    """Mutable per-run state for the compressed algorithm.

    rep and children are read-only per-vertex lookups; kruskal_compressed
    passes the compression's shared DAG index.
    """

    uf: UnionFind
    rep: Sequence[int] | Mapping[int, int]
    children: Sequence[Sequence[int]] | Mapping[int, Sequence[int]]
    clean: list[bool]
    forest: list[tuple[int, int, int]] = field(default_factory=list)
    stats: MstStats = field(default_factory=MstStats)
    current_weight: int = 0


def kruskal_baseline(g: WeightedGraph) -> MstResult:
    """Plain Kruskal on the explicit graph; ties broken by canonical edge order."""
    stats = MstStats()
    uf = UnionFind(g.n)
    forest: list[tuple[int, int, int]] = []
    for (u, v), w in sorted(g.weights.items(), key=lambda kv: (kv[1], kv[0])):
        stats.add_edge_calls += 1
        if uf.unite(u, v):
            forest.append((u, v, w))
    return MstResult(edges=forest, total_weight=sum(w for _, _, w in forest), stats=stats)


def add_edge(run: MstRun, u: int, v: int) -> None:
    """Unite the components of sinks u and v and record the edge if they differed."""
    run.stats.add_edge_calls += 1
    if run.uf.unite(u, v):
        a, b = (u, v) if u <= v else (v, u)
        run.forest.append((a, b, run.current_weight))


def make_clean(run: MstRun, v: int, r: int) -> None:
    """Ensure C(v) lies in a single union-find set, connecting children to sink r.

    Precondition (unchecked here): r is a sink and every edge in C(v) x {r}
    exists in the decompressed graph. Children are visited in canonical arc
    order; each arc is traversed at most once per run because vertices are
    marked clean permanently. Iterative so deep cluster chains cannot blow
    the recursion limit.
    """
    if run.clean[v]:
        return
    VISIT, EDGE, DONE = 0, 1, 2
    work: list[tuple[int, int]] = [(VISIT, v)]
    while work:
        action, x = work.pop()
        if action == EDGE:
            add_edge(run, run.rep[x], r)
        elif action == DONE:
            run.clean[x] = True
        else:
            if run.clean[x]:
                continue
            work.append((DONE, x))
            for w in reversed(run.children[x]):
                run.stats.arcs_traversed += 1
                work.append((EDGE, w))
                work.append((VISIT, w))


def kruskal_compressed(d: DagCompression, debug: bool = False) -> MstResult:
    """Kruskal directly on a weighted undirected compression.

    Returns a minimum spanning forest of decompress(d) without ever
    materializing cluster sets. With debug=True (small inputs only) the
    make_clean precondition and the running spanning-forest invariant are
    re-checked against the decompressed graph after every compression edge.
    """
    if not d.weighted or d.directed:
        raise ValueError("compressed Kruskal needs a weighted undirected compression")
    run = MstRun(
        uf=UnionFind(d.n_sinks),
        rep=d._index.representatives(),
        children=d._index.children,
        clean=[False] + [v <= d.n_sinks for v in range(1, d.n_vertices + 1)],
    )
    checker = _DebugChecker(d) if debug else None
    order = sorted(d.cedges, key=lambda e: (d.weights[e], e))
    for u, v in order:
        run.current_weight = d.weights[(u, v)]
        if checker:
            checker.check_clean_precondition(u, run.rep[v])
            checker.check_clean_precondition(v, run.rep[u])
        make_clean(run, u, run.rep[v])
        make_clean(run, v, run.rep[u])
        add_edge(run, run.rep[u], run.rep[v])
        if checker:
            checker.check_invariant((u, v), run)
    return MstResult(
        edges=run.forest,
        total_weight=sum(w for _, _, w in run.forest),
        stats=run.stats,
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
                raise AssertionError(f"make_clean precondition violated: {e} not an edge")

    def check_invariant(self, cedge: tuple[int, int], run: MstRun) -> None:
        w = self.d.weights[cedge]
        cu = self.table.cluster[cedge[0]]
        cv = self.table.cluster[cedge[1]]
        for x in cu:
            for y in cv:
                if x == y:
                    continue
                e = canonical_edge(False, x, y)
                self.processed[e] = min(w, self.processed.get(e, w))
        forest_edges = {(u, v): fw for u, v, fw in run.forest}
        for e, fw in forest_edges.items():
            if e not in self.graph.edges:
                raise AssertionError(f"forest edge {e} not in the decompressed graph")
            if fw != self.processed.get(e):
                raise AssertionError(f"forest edge {e} carries weight {fw}, expected {self.processed.get(e)}")
        # The forest must be a minimum spanning forest of the processed products
        # together with its own edges (covers the invariant's sandwiched edge set).
        edges = dict(self.processed)
        g = WeightedGraph(
            graph=Graph(directed=False, n=self.d.n_sinks, edges=frozenset(edges)),
            weights=edges,
        )
        ref = kruskal_baseline(g)
        got = sum(forest_edges.values())
        if got != ref.total_weight:
            raise AssertionError(f"running forest weight {got} != minimum {ref.total_weight}")


def write_mst(result: MstResult, n: int) -> str:
    """Serialize a spanning forest: header then edges sorted canonically."""
    edges = sorted(result.edges)
    out = [f"mst {n} {len(edges)} {result.total_weight}"]
    for u, v, w in edges:
        out.append(f"t {u} {v} {w}")
    return "\n".join(out) + "\n"


def spanning_forest_partition(edges: list[tuple[int, int, int]], n: int) -> list[frozenset[int]]:
    """Connected components induced by a forest, as a sorted list of vertex sets."""
    uf = UnionFind(n)
    for u, v, _ in edges:
        uf.unite(u, v)
    comps: dict[int, set[int]] = {}
    for v in range(1, n + 1):
        comps.setdefault(uf.find(v), set()).add(v)
    return sorted((frozenset(c) for c in comps.values()), key=lambda s: min(s))
