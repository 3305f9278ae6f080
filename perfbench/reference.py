"""Reference results that do not come from dagzip.

Strict readers for the canonical text the program writes, cluster sets and
product expansion, a minimum-spanning-forest weight from scipy, and an
exhaustive minimum set cover. The benchmark compares the program's outputs
against these.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class Comp:
    directed: bool
    n_sinks: int
    n_clusters: int
    arcs: list  # (u, v)
    cedges: list  # (u, v, weight or None)

    @property
    def size(self) -> int:
        return len(self.arcs) + len(self.cedges)


def _count(line: str, tag: str) -> int:
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != tag or not parts[1].isdigit():
        raise ValueError(f"expected '{tag} <count>', got {line!r}")
    return int(parts[1])


def _rows(lines, tag: str, width: int) -> list:
    rows = []
    for line in lines:
        parts = line.split(" ")
        if len(parts) != width + 1 or parts[0] != tag or not all(p.isdigit() for p in parts[1:]):
            raise ValueError(f"malformed {tag!r} line {line!r}")
        rows.append(tuple(int(p) for p in parts[1:]))
    if any(a >= b for a, b in zip(rows, rows[1:])):
        raise ValueError(f"{tag!r} lines not in strictly increasing canonical order")
    return rows


def parse_dagc(text: str) -> Comp:
    """Canonical compression text -> Comp; raises ValueError on any deviation."""
    if not text.endswith("\n"):
        raise ValueError("missing final newline")
    lines = text[:-1].split("\n")
    head = lines[0].split(" ")
    if head[0] != "dagc" or head[1:2] not in (["directed"], ["undirected"]) or head[2:] not in ([], ["weighted"]):
        raise ValueError(f"bad header {lines[0]!r}")
    directed, weighted = head[1] == "directed", head[2:] == ["weighted"]
    if len(lines) < 5:
        raise ValueError("truncated compression")
    n_sinks, n_clusters = _count(lines[1], "sinks"), _count(lines[2], "clusters")
    n_arcs = _count(lines[3], "arcs")
    if len(lines) < 5 + n_arcs:
        raise ValueError("fewer arc lines than declared")
    n_cedges = _count(lines[4 + n_arcs], "cedges")
    if len(lines) != 5 + n_arcs + n_cedges:
        raise ValueError("line count does not match the declared counts")
    arcs = _rows(lines[4: 4 + n_arcs], "a", 2)
    cedges = [
        (u, v, w[0] if w else None)
        for u, v, *w in _rows(lines[5 + n_arcs:], "c", 3 if weighted else 2)
    ]
    top = n_sinks + n_clusters
    for u, v, *_ in arcs + cedges:
        if not (1 <= u <= top and 1 <= v <= top):
            raise ValueError(f"vertex out of range in ({u},{v})")
    if not directed and any(u > v for u, v, _ in cedges):
        raise ValueError("undirected compression edge with its endpoints out of order")
    return Comp(directed, n_sinks, n_clusters, arcs, cedges)


def comp_of(d) -> Comp:
    """Comp view of a dagzip DagCompression object, read through its public fields."""
    weights = d.weights or {}
    return Comp(
        d.directed, d.n_sinks, d.n_clusters, sorted(d.arcs),
        [(u, v, weights.get((u, v))) for u, v in sorted(d.cedges)],
    )


def cluster_members(d: Comp) -> list:
    """C(v) for every vertex, as frozensets indexed by vertex id.

    Raises ValueError unless sinks have no out-arcs, every cluster vertex has
    one, and (V, A) is acyclic.
    """
    top = d.n_sinks + d.n_clusters
    children = [[] for _ in range(top + 1)]
    indeg = [0] * (top + 1)
    for u, v in d.arcs:
        children[u].append(v)
        indeg[v] += 1
    for v in range(1, top + 1):
        if (v <= d.n_sinks) == bool(children[v]):
            raise ValueError(f"vertex {v}: sinks need no out-arcs, clusters at least one")
    queue = deque(v for v in range(1, top + 1) if indeg[v] == 0)
    order = []
    while queue:
        x = queue.popleft()
        order.append(x)
        for y in children[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if len(order) != top:
        raise ValueError("cycle in the cluster DAG")
    members = [frozenset()] * (top + 1)
    for v in reversed(order):
        if v <= d.n_sinks:
            members[v] = frozenset((v,))
        else:
            members[v] = frozenset().union(*(members[c] for c in children[v]))
    return members


def edge_matrix(n: int, edges) -> np.ndarray:
    """(n+1) x (n+1) bool adjacency of (u, v) pairs; row and column 0 unused."""
    m = np.zeros((n + 1, n + 1), dtype=bool)
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    m[pairs[:, 0], pairs[:, 1]] = True
    return m


def expand(d: Comp) -> np.ndarray:
    """The decompressed graph as an edge_matrix; symmetric when undirected."""
    members = cluster_members(d)
    targets = {}
    for u, v, _ in d.cedges:
        targets.setdefault(u, set()).update(members[v])
    m = np.zeros((d.n_sinks + 1, d.n_sinks + 1), dtype=bool)
    for u, cols in targets.items():
        m[np.ix_(sorted(members[u]), sorted(cols))] = True
    return m if d.directed else m | m.T


def star_mst(d: Comp) -> tuple[int, int]:
    """(weight, edge count) of a minimum spanning forest of the decompressed graph.

    Each compression edge (u, v) of weight w contributes rep(v) x C(u) and
    rep(u) x C(v) at weight w, with rep the smallest sink of a cluster; a
    pair keeps its smallest weight. Every product edge is then joined by a
    path of edges no heavier than itself, so the forest weight is unchanged,
    and the graph stays linear in the sum of cluster sizes.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import minimum_spanning_tree

    members = cluster_members(d)
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    flat = np.fromiter((x for m in members for x in sorted(m)), dtype=np.int64, count=int(offsets[-1]))
    rep = np.zeros(len(members), dtype=np.int64)
    rep[sizes > 0] = flat[offsets[:-1][sizes > 0]]
    u, v, w = (np.array(col, dtype=np.int64) for col in zip(*d.cedges))

    def star(centre, side):
        """centre's representative joined to every sink of side's cluster."""
        counts = sizes[side]
        starts = np.repeat(offsets[side] - np.cumsum(counts) + counts, counts)
        return np.repeat(rep[centre], counts), flat[starts + np.arange(counts.sum())], np.repeat(w, counts)

    (a1, b1, w1), (a2, b2, w2) = star(v, u), star(u, v)
    a, b, w = np.concatenate([a1, a2]), np.concatenate([b1, b2]), np.concatenate([w1, w2])
    n = d.n_sinks + 1
    keep = a != b
    # One sort key per (pair, weight), so the first entry of a pair is its lightest.
    base = int(w.max()) + 1
    pair = np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep]
    key = np.sort(pair * base + w[keep])
    pair, w = key // base, key % base
    first = np.ones(len(key), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    graph = sp.csr_matrix((w[first].astype(np.float64), (pair[first] // n, pair[first] % n)), shape=(n, n))
    forest = minimum_spanning_tree(graph)
    return int(round(forest.sum())), int(forest.nnz)


def check_mst_output(text: str, n: int, weight: int, n_edges: int) -> str | None:
    """None if text is a spanning forest on 1..n with the reference weight and size."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "missing final newline"
    head = lines[0].split(" ")
    body = lines[1:-1]
    if len(head) != 4 or head[0] != "mst" or head[1:] != [str(n), str(n_edges), str(weight)]:
        return f"header {lines[0]!r}, want 'mst {n} {n_edges} {weight}'"
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    try:
        rows = _rows(body, "t", 3)
    except ValueError as exc:
        return str(exc)
    if len(rows) != n_edges:
        return f"{len(rows)} forest edges, header says {n_edges}"
    for u, v, w in rows:
        if not (1 <= u < v <= n):
            return f"bad forest edge ({u},{v})"
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"forest edge ({u},{v}) closes a cycle"
        parent[ru] = rv
        total += w
    return None if total == weight else f"edge weights sum to {total}, header says {weight}"


def min_cover(n: int, sets) -> int:
    """Fewest sets whose union is 1..n (exhaustive over bitmasks)."""
    full = (1 << n) - 1
    masks = [sum(1 << (e - 1) for e in s) for s in sets]
    for r in range(len(masks) + 1):
        for combo in itertools.combinations(masks, r):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return r
    raise ValueError("sets do not cover the universe")


def parse_graph(text: str) -> tuple[bool, int, np.ndarray]:
    """Canonical unweighted graph text -> (directed, n, edge_matrix)."""
    lines = text.split("\n")
    head = lines[0].split(" ")
    if lines[-1] != "" or len(head) != 4 or head[0] != "graph" or head[1] not in ("directed", "undirected"):
        raise ValueError(f"bad graph header {lines[0]!r}")
    edges = _rows(lines[1:-1], "e", 2)
    if len(edges) != int(head[3]):
        raise ValueError("edge count does not match the header")
    n = int(head[2])
    return head[1] == "directed", n, edge_matrix(n, edges)
