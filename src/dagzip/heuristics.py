"""Practical compressors: binary cluster trees and greedy twin contraction.

tree_compress builds a rooted binary merge tree over the vertices and then
places as compression edges exactly the maximal admissible products: node
pairs whose full cluster product lies inside the edge set, such that
replacing either node by its parent breaks admissibility. Admissibility
obeys a boolean recurrence over children (a product with an internal node
is admissible iff it is admissible with both children), which turns the
whole placement into a couple of vectorized passes over a node-pair matrix.
Maximal products can overlap; every original edge lies under at least one of
them because an admissible pair can always be climbed until maximal.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .compression import DagCompression, clusters, validate
from .generators import RookSpec, rook_canonical_compression
from .graphs import Graph, canonical_edge, neighborhoods


def validate_tree_compression(d: DagCompression) -> list[str]:
    """Violations of the binary-cluster-tree shape (on top of validate())."""
    violations = list(validate(d))
    children, indeg = d._index.children, d._index.indegree
    for v in range(d.n_sinks + 1, d.n_vertices + 1):
        if len(children[v]) != 2:
            violations.append(f"cluster vertex {v} has {len(children[v])} children, want 2")
    roots = [v for v in range(1, d.n_vertices + 1) if indeg[v] == 0]
    if d.n_vertices > 1 and len(roots) != 1:
        violations.append(f"expected a unique root, found {len(roots)}")
    if any(c > 1 for c in indeg):
        violations.append("a vertex has two parents")
    if not violations and d.n_clusters:
        root = roots[0]
        table = clusters(d)
        if table.cluster[root] != frozenset(range(1, d.n_sinks + 1)):
            violations.append("root cluster is not the whole sink set")
    return violations


def _adjacency_matrix(g: Graph) -> np.ndarray:
    m = np.zeros((g.n + 1, g.n + 1), dtype=bool)
    for u, v in g.edges:
        m[u, v] = True
        if not g.directed:
            m[v, u] = True
    return m


def _merge_balanced(level: list[int], pair_up) -> None:
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(pair_up(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level[:] = nxt


def _merge_similarity(level: list[int], signatures: np.ndarray, pair_up) -> None:
    # signatures: rows indexed by node id, columns by sink; updated in place.
    while len(level) > 1:
        ids = np.array(level, dtype=np.int64)
        sig = signatures[ids].astype(np.float32)
        scores = sig @ sig.T
        iu, ju = np.triu_indices(len(level), k=1)
        order = np.lexsort((ju, iu, -scores[iu, ju]))
        paired = np.zeros(len(level), dtype=bool)
        nxt: list[int] = []
        for idx in order:
            a, b = int(iu[idx]), int(ju[idx])
            if paired[a] or paired[b]:
                continue
            paired[a] = paired[b] = True
            node = pair_up(level[a], level[b])
            signatures[node] = signatures[level[a]] | signatures[level[b]]
            nxt.append(node)
            if paired.sum() >= len(level) - 1:
                break
        for i, node in enumerate(level):
            if not paired[i]:
                nxt.append(node)
        level[:] = nxt


def tree_compress(g: Graph, merge_policy: str = "similarity") -> DagCompression:
    """Compress g with a binary cluster tree and maximal-product edge placement.

    merge_policy "similarity" pairs nodes by largest neighborhood overlap
    (lexicographic tie-break); "balanced" pairs by index. The output always
    decompresses to g exactly.
    """
    if g.n < 1:
        raise ValueError("need at least one vertex")
    if merge_policy not in ("similarity", "balanced"):
        raise ValueError(f"unknown merge policy {merge_policy!r}")
    n = g.n
    total = 2 * n - 1
    left = np.zeros(total + 1, dtype=np.int64)
    right = np.zeros(total + 1, dtype=np.int64)
    next_id = n

    def pair_up(a: int, b: int) -> int:
        nonlocal next_id
        next_id += 1
        left[next_id] = a
        right[next_id] = b
        return next_id

    level = list(range(1, n + 1))
    m = _adjacency_matrix(g)
    if merge_policy == "balanced":
        _merge_balanced(level, pair_up)
    else:
        signatures = np.zeros((total + 1, n + 1), dtype=bool)
        signatures[1: n + 1, :] = (m | m.T)[1:, :]
        _merge_similarity(level, signatures, pair_up)

    parent = np.zeros(total + 1, dtype=np.int64)
    for v in range(n + 1, next_id + 1):
        parent[left[v]] = v
        parent[right[v]] = v

    adm = np.zeros((total + 1, total + 1), dtype=bool)
    adm[1: n + 1, 1: n + 1] = m[1:, 1:]
    for v in range(n + 1, next_id + 1):
        adm[v, 1: n + 1] = adm[left[v], 1: n + 1] & adm[right[v], 1: n + 1]
    for v in range(n + 1, next_id + 1):
        adm[:, v] = adm[:, left[v]] & adm[:, right[v]]

    # Maximal: admissible, and stepping either side up to its parent is not.
    # Row/column 0 is identically false, which makes the root maximal-safe.
    up_rows = adm[parent, :]
    up_cols = adm[:, parent]
    mx = adm & ~up_rows & ~up_cols
    mx[0, :] = False
    mx[:, 0] = False

    pairs = np.argwhere(mx)
    cedges = set()
    for u, v in pairs:
        u, v = int(u), int(v)
        if not g.directed and v < u:
            continue
        cedges.add(canonical_edge(g.directed, u, v))
    arcs = set()
    for v in range(n + 1, next_id + 1):
        arcs.add((v, int(left[v])))
        arcs.add((v, int(right[v])))
    return DagCompression(
        directed=g.directed,
        n_sinks=n,
        n_clusters=next_id - n,
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
    )


def dag_compress_greedy(g: Graph) -> DagCompression:
    """Greedy compressor: contract exact-twin classes one at a time.

    Each round groups the current units by their quotient neighborhoods,
    scores every class of two or more units by the size saved if it were
    contracted into a shared cluster vertex, and contracts the best class
    (re-grouping afterwards, so savings never double-count shared edges).
    Remaining quotient edges are emitted directly. Falls back to the direct
    encoding whenever that is smaller, so the result never exceeds |E|.
    """
    n = g.n
    direct = DagCompression(
        directed=g.directed, n_sinks=n, n_clusters=0,
        arcs=frozenset(), cedges=g.edges,
    )
    if n == 0 or not g.edges:
        return direct

    # Units are vertex ids (sinks, later cluster ids). Between distinct units
    # the quotient relation is all-or-nothing: members of a class are twins,
    # so a unit's neighborhood contains a class entirely or not at all. Only
    # a class's relation to its own members can be partial; those products
    # are emitted at member granularity the moment the class forms.
    units = list(range(1, n + 1))
    gi, go = neighborhoods(g)
    out_nb: dict[int, frozenset[int]] = {v: go[v] for v in units}
    in_nb: dict[int, frozenset[int]] = {v: gi[v] for v in units}

    arcs: set[tuple[int, int]] = set()
    cedges: set[tuple[int, int]] = set()
    next_id = n
    n_clusters = 0

    def class_saving(members, inn, out):
        k = len(members)
        g_set = frozenset(members)
        saving = (k - 1) * (len(out - g_set) + len(inn - g_set)) - k
        inside = out & g_set
        if inside == g_set:
            saving += k * k - 1
        else:
            saving += (k - 1) * len(inside)
        return saving

    while True:
        groups: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
        for u in units:
            groups.setdefault((in_nb[u], out_nb[u]), []).append(u)
        best_key = None
        best_saving = 0
        for key in sorted(groups, key=lambda k: min(groups[k])):
            members = groups[key]
            if len(members) < 2:
                continue
            saving = class_saving(members, *key)
            if saving > best_saving:
                best_saving = saving
                best_key = key
        if best_key is None:
            break
        members = sorted(groups[best_key])
        inn, out = best_key
        g_set = frozenset(members)
        next_id += 1
        n_clusters += 1
        c = next_id
        for u in members:
            arcs.add((c, u))
        full_self = g_set <= out
        if not full_self:
            for w in sorted(out & g_set):
                cedges.add(canonical_edge(g.directed, c, w))
        mu = {u: (c if u in g_set else u) for u in units}
        new_units = [c] + [u for u in units if u not in g_set]
        new_out = {c: frozenset({mu[x] for x in out - g_set} | ({c} if full_self else set()))}
        new_in = {c: frozenset({mu[x] for x in inn - g_set} | ({c} if full_self else set()))}
        for u in units:
            if u in g_set:
                continue
            new_out[u] = frozenset(mu[x] for x in out_nb[u])
            new_in[u] = frozenset(mu[x] for x in in_nb[u])
        out_nb, in_nb, units = new_out, new_in, new_units

    for u in units:
        for v in out_nb[u]:
            cedges.add(canonical_edge(g.directed, u, v))
    result = DagCompression(
        directed=g.directed,
        n_sinks=n,
        n_clusters=n_clusters,
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
    )
    if result.size() > direct.size():
        return direct
    return result


@dataclass
class GapRecord:
    g: int
    n: int
    dag_size: int
    tree_size: int
    tree_cedges: int
    ratio: float
    seconds: float


def gap_experiment(g_values, merge_policy: str = "similarity") -> list[GapRecord]:
    """Canonical DAG size vs measured tree-compression size per grid side g."""
    from .generators import rook_graph

    records = []
    for g_side in g_values:
        spec = RookSpec(g=g_side, d=2)
        start = time.monotonic()
        graph = rook_graph(spec)
        dag = rook_canonical_compression(spec)
        tree = tree_compress(graph, merge_policy=merge_policy)
        elapsed = time.monotonic() - start
        records.append(
            GapRecord(
                g=g_side,
                n=spec.n,
                dag_size=dag.size(),
                tree_size=tree.size(),
                tree_cedges=len(tree.cedges),
                ratio=tree.size() / dag.size(),
                seconds=elapsed,
            )
        )
    return records


def gap_report_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g", "n", "dag_size", "tree_size", "tree_cedges", "ratio", "seconds"])
    for r in records:
        writer.writerow([r.g, r.n, r.dag_size, r.tree_size, r.tree_cedges,
                         f"{r.ratio:.4f}", f"{r.seconds:.3f}"])
    return buf.getvalue()
