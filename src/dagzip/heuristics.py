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

The overlap scores are exact int16 counts (at most n, which the size guard
keeps below 2^15), built tile by tile from float32 copies of the signature
row blocks, so no n^2 float32 matrix is held.

Admissibility obeys a boolean recurrence over children: a product with an
internal node is admissible iff it is admissible with both children. A
round's nodes have children from earlier rounds only, so each round is one
row-major array step: first over the bool sink columns, then over the rows
of the transposed node-pair matrix, whose rows are the columns, kept as
packed bits. Maximality then unpacks one row block and its parent rows at
a time, so no (2n)^2 bool matrix is built.
"""

from __future__ import annotations

import csv
import heapq
import io
import time
from dataclasses import dataclass

import numpy as np

from .compression import DagCompression, validate
from .generators import RookSpec, rook_canonical_compression, rook_graph
from .graphs import Graph, _twin_classes


def validate_tree_compression(d: DagCompression) -> list[str]:
    """Violations of the binary-cluster-tree shape (on top of validate())."""
    violations = list(validate(d))
    outdeg, indeg = d._index.outdegree.tolist(), d._index.indegree.tolist()
    for v in range(d.n_sinks + 1, d.n_vertices + 1):
        if outdeg[v] != 2:
            violations.append(f"cluster vertex {v} has {outdeg[v]} children, want 2")
    roots = [v for v in range(1, d.n_vertices + 1) if indeg[v] == 0]
    if d.n_vertices > 1 and len(roots) != 1:
        violations.append(f"expected a unique root, found {len(roots)}")
    if any(c > 1 for c in indeg):
        violations.append("a vertex has two parents")
    # With none of these violations every parent chain ends at the one root,
    # so the root's cluster is the whole sink set.
    return violations


def _adjacency_matrix(g: Graph) -> np.ndarray:
    m = np.zeros((g.n + 1, g.n + 1), dtype=bool)
    m[g.u, g.v] = True
    if not g.directed:
        m[g.v, g.u] = True
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


_TILE = 576  # rows per overlap tile


def _overlaps(signatures: np.ndarray) -> np.ndarray:
    """signatures @ signatures.T for a bool matrix, as exact int16 counts.

    Row blocks are copied into two reused float32 buffers; a diagonal tile
    is one symmetric product, an off-diagonal tile is written once and
    mirrored. float32 sums are exact below 2^24 and every count is at most
    the row width, which must stay below 2^15.
    """
    size, width = signatures.shape
    scores = np.empty((size, size), dtype=np.int16)
    rows = min(_TILE, size)
    a = np.empty((rows, width), dtype=np.float32)
    b = np.empty_like(a)
    tile = np.empty((rows, rows), dtype=np.float32)
    for i in range(0, size, _TILE):
        ai = a[: min(_TILE, size - i)]
        np.copyto(ai, signatures[i: i + _TILE])
        ii = slice(i, i + len(ai))
        scores[ii, ii] = np.matmul(ai, ai.T, out=tile[: len(ai), : len(ai)])
        for j in range(i + _TILE, size, _TILE):
            bj = b[: min(_TILE, size - j)]
            np.copyto(bj, signatures[j: j + _TILE])
            jj = slice(j, j + len(bj))
            t = np.matmul(ai, bj.T, out=tile[: len(ai), : len(bj)])
            scores[ii, jj] = t
            scores[jj, ii] = t.T
    return scores


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
            a, b = _greedy_pairs(_overlaps(signatures))
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


def _and_children(adm: np.ndarray, left: np.ndarray, right: np.ndarray, rounds, op) -> None:
    # A round's nodes have children from earlier rounds only.
    for lo, hi in rounds:
        op(adm[left[lo:hi]], adm[right[lo:hi]], out=adm[lo:hi])


_ROW_BLOCK = 1024  # rows unpacked at a time by the maximality pass

# The guard counts 2 (2n)^2 + 8 n^2 = 16 n^2 bytes, 2 GB at n = 11180. That
# is an upper bound: tree_compress holds about 5 n^2 at its peak (the bool
# signatures, the int16 scores and the float32 tile buffers; the bool sink
# columns and packed rows are less). It also keeps n below 2^15, where the
# int16 overlap counts are exact. Larger inputs are refused before they
# allocate.
MAX_TREE_MATRIX_BYTES = 2_000_000_000


def _check_tree_size(n: int) -> None:
    """Refuse a tree compression of n vertices above MAX_TREE_MATRIX_BYTES."""
    need = 2 * (2 * n) ** 2 + 2 * 4 * n * n
    if need > MAX_TREE_MATRIX_BYTES:
        raise ValueError(f"tree compression of {n} vertices needs {need} bytes of matrices, "
                         f"above the limit of {MAX_TREE_MATRIX_BYTES}")


def tree_compress(g: Graph, merge_policy: str = "similarity") -> DagCompression:
    """Compress g with a binary cluster tree and maximal-product edge placement.

    merge_policy "similarity" pairs nodes by largest neighborhood overlap
    (lexicographic tie-break); "balanced" pairs by index. The output always
    decompresses to g exactly. Raises ValueError on a weighted graph, and
    before allocating when its matrices would exceed MAX_TREE_MATRIX_BYTES.
    """
    if g.weighted:
        raise ValueError("compression strategies work on unweighted graphs")
    if g.n < 1:
        raise ValueError("need at least one vertex")
    if merge_policy not in ("similarity", "balanced"):
        raise ValueError(f"unknown merge policy {merge_policy!r}")
    n = g.n
    _check_tree_size(n)
    total = 2 * n - 1
    m = _adjacency_matrix(g)
    signatures = None if merge_policy == "balanced" else (m | m.T)[1:, 1:]
    del m  # rebuilt below, so it is not held through the merge rounds
    left, right, rounds = _merge_tree(n, signatures)
    del signatures
    parent = np.zeros(total + 1, dtype=np.int64)
    parent[left[n + 1:]] = np.arange(n + 1, total + 1)
    parent[right[n + 1:]] = np.arange(n + 1, total + 1)

    # adm[u, v]: C(u) x C(v) lies inside the edge set. The sink columns come
    # from row passes; the transpose's rows are adm's columns, so one more
    # row pass, on packed bits, completes it as adm_t[v, u] = adm[u, v].
    # Packed rows hold bit b of byte k at column 8k + b (little bit order).
    width = total // 8 + 1
    sink_cols = np.zeros((8 * width, n + 1), dtype=bool)  # rows past total pad the last byte
    sink_cols[: n + 1] = _adjacency_matrix(g)
    _and_children(sink_cols, left, right, rounds, np.logical_and)
    # Pack 8 sink-column rows into each byte in place, then transpose the
    # bytes: half the time of transposing the bools and packing them.
    eighths = sink_cols.view(np.uint8).reshape(width, 8, n + 1)
    for b in range(1, 8):
        eighths[:, b] <<= b
        eighths[:, 0] |= eighths[:, b]
    adm_t = np.zeros((total + 1, width), dtype=np.uint8)
    adm_t[: n + 1] = eighths[:, 0].T
    del sink_cols, eighths
    _and_children(adm_t, left, right, rounds, np.bitwise_and)

    # Maximal: admissible, and stepping either side up to its parent is not.
    # Row and column 0 are identically false, which makes the root maximal-safe.
    # Each row block is unpacked with its parent rows; adm_t itself is not rewritten.
    def unpacked(packed):
        return np.unpackbits(packed, axis=1, count=total + 1, bitorder="little").view(bool)

    found = []
    for lo in range(0, total + 1, _ROW_BLOCK):
        rows = unpacked(adm_t[lo: lo + _ROW_BLOCK])
        rows &= ~(np.take(rows, parent, axis=1) | unpacked(adm_t[parent[lo: lo + _ROW_BLOCK]]))
        # flatnonzero + divmod: np.nonzero on a 2-d bool matrix is several times slower
        found.append(np.flatnonzero(rows) + lo * (total + 1))
    vs, us = np.divmod(np.concatenate(found), total + 1)
    if not g.directed:
        keep = us <= vs
        us, vs = us[keep], vs[keep]
    heads = np.arange(n + 1, total + 1)
    return DagCompression(
        directed=g.directed,
        n_sinks=n,
        n_clusters=n - 1,
        arcs=np.column_stack((np.r_[heads, heads], np.r_[left[n + 1:], right[n + 1:]])),
        cedges=np.column_stack((us, vs)),
    )


def _saving(directed: bool, nbs: tuple[frozenset[int], frozenset[int]], k: frozenset[int],
            unit: list[int]) -> int:
    """The size change of contracting twin class k into one cluster vertex c,
    whose members share the (in, out) neighborhoods nbs and where vertex x is
    now unit[x]. Each member's edges to the outside units become one edge of
    c each, at the cost of |k| arcs; when k lies in its own neighborhood,
    the edges inside k (|k|^2, or |k|(|k|+1)/2 undirected) become one loop
    on c. An undirected class has one neighborhood, counted once."""
    inn, out = nbs
    outside = len({unit[x] for x in out - k})
    if directed:
        outside += len({unit[x] for x in inn - k})
    inside = (len(k) ** 2 if directed else len(k) * (len(k) + 1) // 2) - 1 if k <= out else 0
    return (len(k) - 1) * outside - len(k) + inside


def dag_compress_greedy(g: Graph) -> DagCompression:
    """Greedy compressor: contract twin classes of g into cluster vertices, one at a time.

    The members of a twin class K share their in- and out-neighborhoods, so
    every neighborhood holds all of K or none of it. Hence K meets itself all
    or nothing, and contracting K into a cluster vertex c, which maps each
    neighborhood s to (s - K) | {c}, makes no new twins: the classes are g's
    own, found once. While some class would save size, the first one (in
    smallest-member order) with the largest saving on its current
    neighborhoods is contracted. The edges between the final units are then
    emitted directly. Falls back to the direct encoding whenever that is
    smaller, so the result never exceeds |E|. Raises ValueError on a weighted
    graph.
    """
    if g.weighted:
        raise ValueError("compression strategies work on unweighted graphs")
    n = g.n
    direct = DagCompression(g.directed, n, 0, frozenset(), np.column_stack((g.u, g.v)))
    if not g.m:
        return direct
    classes = [(nbs, frozenset(k)) for nbs, k in _twin_classes(g).items() if len(k) > 1]
    unit = list(range(n + 1))  # each vertex's cluster vertex once its class is contracted

    def saving(i):
        return _saving(g.directed, *classes[i], unit)

    # Savings only fall as classes are contracted, so a top entry whose saving,
    # recomputed, has not fallen is the first class with the largest saving.
    heap = [(-saving(i), i) for i in range(len(classes))]
    heapq.heapify(heap)
    arcs, c = [], n
    while heap and heap[0][0] < 0:
        s, i = heapq.heappop(heap)
        if (now := saving(i)) < -s:
            heapq.heappush(heap, (-now, i))
            continue
        c += 1
        for v in classes[i][1]:
            unit[v] = c
            arcs.append((c, v))
    units = np.array(unit)
    result = DagCompression(g.directed, n, c - n, arcs, np.column_stack((units[g.u], units[g.v])))
    return direct if result.size() > direct.size() else result


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
    specs = [RookSpec(g=g_side, d=2) for g_side in g_values]
    for spec in specs:  # refuse before any graph is built
        _check_tree_size(spec.n)
    records = []
    for spec in specs:
        start = time.monotonic()
        graph = rook_graph(spec)
        dag = rook_canonical_compression(spec)
        tree = tree_compress(graph, merge_policy=merge_policy)
        elapsed = time.monotonic() - start
        records.append(
            GapRecord(
                g=spec.g,
                n=spec.n,
                dag_size=dag.size(),
                tree_size=tree.size(),
                tree_cedges=len(tree.cedge_u),
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
