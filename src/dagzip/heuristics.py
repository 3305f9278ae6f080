"""Practical compressors: binary cluster trees and greedy twin contraction.

tree_compress builds a rooted binary merge tree over the vertices and then
places as compression edges exactly the maximal admissible products: node
pairs whose full cluster product lies inside the edge set, such that
replacing either node by its parent breaks admissibility. Maximal products
can overlap; every original edge lies under at least one of them because an
admissible pair can always be climbed until maximal.

The tree is built in rounds, each pairing up the current level. The
"similarity" policy scores two nodes by the overlap of their neighborhood
signatures and takes the greedy matching over all pairs ordered by
(-score, i, j). It never sorts those n^2/2 pairs. Each row's best partner is
the first maximum of its row among the unmatched nodes, and a smallest index
winning a tie is exactly that order. Every pair whose two rows name each
other is matched, and the rows whose best partner was just matched look
again. Under a strict order on pairs, matching these mutually best
("locally dominant") pairs round by round gives exactly the greedy
matching (Preis, STACS 1999): a mutually best pair outranks every other
pair at either of its ends whose other end is still unmatched, and the
greedy matched the rest earlier, so the greedy takes it as well; both
matchings leave at most one node over. The pairs are then numbered in
greedy acceptance order, so the node ids do not change.

Admissibility obeys a boolean recurrence over children: a product with an
internal node is admissible iff it is admissible with both children. A
round's nodes have children from earlier rounds only, so each round is one
row-major array step: first over the sink columns, then over the rows of
the transposed node-pair matrix, whose rows are the columns. Maximality is
then built in place in a second (2n)^2 bool matrix, so at most two such
matrices are live at a time.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from itertools import chain

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
    ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64, count=2 * g.m)
    tails, heads = ends[0::2], ends[1::2]
    m[tails, heads] = True
    if not g.directed:
        m[heads, tails] = True
    return m


def _rescan(scores: np.ndarray, rows: np.ndarray, best: np.ndarray,
            top: np.ndarray, alive: np.ndarray) -> None:
    """Move best/top of `rows`, whose best partner was just matched, to their alive argmax.

    Every alive column left of the old best scores below top, and columns
    only ever leave the alive set, so the first alive column right of it
    that scores top is the new first maximum. That tie scan runs in windows
    of doubling width; rows that reach their end without a tie take a
    masked argmax.
    """
    size = len(scores)
    flat = scores.reshape(-1)
    start = best[rows] + 1
    width = 8
    while len(rows):
        cols = np.minimum(start[:, None] + np.arange(width), size - 1)
        hit = flat.take(cols + (rows * size)[:, None]) == top[rows, None]
        hit &= alive.take(cols)
        found = hit.any(axis=1)
        best[rows[found]] = cols[found, hit[found].argmax(axis=1)]
        start += width
        width *= 2
        more = ~found & (start < size)
        spent = rows[~found & ~more]
        if len(spent):
            masked = np.where(alive, scores[spent], -1)
            best[spent] = masked.argmax(axis=1)
            top[spent] = masked[np.arange(len(spent)), best[spent]]
        rows, start = rows[more], start[more]


def _greedy_pairs(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The greedy matching over pairs i < j taken by descending score, then i, then j.

    scores must be symmetric and non-negative; its diagonal is overwritten.
    Returns the matched rows (i, j), i < j, in the order the greedy accepts
    them. Computed in mutual-best rounds, never sorting all pairs.
    """
    size = len(scores)
    np.fill_diagonal(scores, -1)
    idx = np.arange(size)
    alive = np.ones(size, dtype=bool)
    best = scores.argmax(axis=1)
    top = scores[idx, best]
    firsts, seconds = [idx[:0]], [idx[:0]]
    n_alive = size
    while n_alive > 1:
        i = np.flatnonzero(alive & (best[best] == idx) & (idx < best))
        if not len(i):  # the top pair is always mutual; fail rather than spin
            raise AssertionError("no mutually best pair among unmatched rows")
        j = best[i]
        firsts.append(i)
        seconds.append(j)
        alive[i] = False
        alive[j] = False
        n_alive -= 2 * len(i)
        if n_alive > 1:
            _rescan(scores, np.flatnonzero(alive & ~alive[best]), best, top, alive)
    i = np.concatenate(firsts)
    j = np.concatenate(seconds)
    order = np.lexsort((j, i, -scores[i, j]))
    return i[order], j[order]


def _merge_tree(n: int, signatures: np.ndarray | None):
    """Children of the merge tree's nodes n+1 .. 2n-1 and each round's id range.

    Each round pairs up the current level: by position when signatures is
    None ("balanced"), else by the greedy matching on signature overlap
    ("similarity"), whose merged rows are the union of their halves. The new
    nodes, numbered in pairing order, come first in the next level, then
    the unpaired nodes in level order.
    """
    left = np.zeros(2 * n, dtype=np.int64)
    right = np.zeros(2 * n, dtype=np.int64)
    rounds = []
    level = np.arange(1, n + 1)
    next_id = n
    while len(level) > 1:
        if signatures is None:
            a = np.arange(0, len(level) - 1, 2)
            b = a + 1
        else:
            sig32 = signatures.astype(np.float32)
            a, b = _greedy_pairs(sig32 @ sig32.T)
            del sig32
        lo, hi = next_id + 1, next_id + 1 + len(a)
        left[lo:hi] = level[a]
        right[lo:hi] = level[b]
        rest = np.ones(len(level), dtype=bool)
        rest[a] = False
        rest[b] = False
        level = np.concatenate([np.arange(lo, hi), level[rest]])
        if signatures is not None:
            signatures = np.concatenate([signatures[a] | signatures[b], signatures[rest]])
        rounds.append((lo, hi))
        next_id = hi - 1
    return left, right, rounds


def _and_children(adm: np.ndarray, left: np.ndarray, right: np.ndarray, rounds) -> None:
    # A round's nodes have children from earlier rounds only.
    for lo, hi in rounds:
        np.logical_and(adm[left[lo:hi]], adm[right[lo:hi]], out=adm[lo:hi])


_ROW_BLOCK = 1024  # rows per gathered block, so the maximality pass adds no full matrix


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
    m = _adjacency_matrix(g)
    signatures = None if merge_policy == "balanced" else (m | m.T)[1:, 1:]
    left, right, rounds = _merge_tree(n, signatures)
    del signatures
    parent = np.zeros(total + 1, dtype=np.int64)
    parent[left[n + 1:]] = np.arange(n + 1, total + 1)
    parent[right[n + 1:]] = np.arange(n + 1, total + 1)

    # adm[u, v]: C(u) x C(v) lies inside the edge set. The sink columns come
    # from row passes; the transpose's rows are adm's columns, so one more
    # row pass completes it as adm_t[v, u] = adm[u, v].
    sink_cols = np.zeros((total + 1, n + 1), dtype=bool)
    sink_cols[: n + 1] = m
    del m
    _and_children(sink_cols, left, right, rounds)
    adm_t = np.zeros((total + 1, total + 1), dtype=bool)
    adm_t[: n + 1] = sink_cols.T
    del sink_cols
    _and_children(adm_t, left, right, rounds)

    # Maximal: admissible, and stepping either side up to its parent is not.
    # Row and column 0 are identically false, which makes the root maximal-safe.
    mx_t = np.take(adm_t, parent, axis=1)
    for lo in range(0, total + 1, _ROW_BLOCK):
        mx_t[lo: lo + _ROW_BLOCK] |= adm_t[parent[lo: lo + _ROW_BLOCK]]
    np.logical_not(mx_t, out=mx_t)
    mx_t &= adm_t
    del adm_t

    # flatnonzero + divmod: np.nonzero on a 2-d bool matrix is several times slower
    vs, us = np.divmod(np.flatnonzero(mx_t), total + 1)
    if not g.directed:
        keep = us <= vs
        us, vs = us[keep], vs[keep]
    heads = np.arange(n + 1, total + 1).tolist()
    return DagCompression(
        directed=g.directed,
        n_sinks=n,
        n_clusters=n - 1,
        arcs=frozenset(zip(heads + heads, left[n + 1:].tolist() + right[n + 1:].tolist())),
        cedges=frozenset(zip(us.tolist(), vs.tolist())),
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
