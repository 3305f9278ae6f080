"""Explicit graph representations, twins, connectivity, and text I/O.

Vertices are dense 1-based integers. Directed edges are ordered pairs,
undirected edges are stored with the smaller endpoint first. Self-loops
are legal in both variants ((v, v) directed, {v, v} undirected). A Graph
keeps its edges as sorted int64 columns u, v and, when weighted (undirected
only), an aligned weight column w, like a DagCompression; both are
immutable, both build their weight column with one helper that refuses a
map whose keys are not exactly the pairs or that holds a negative weight,
and the reader, the writer and Kruskal work on the columns.

All four text formats (graph, compression, shore and set-cover files) are
parsed by one line-record reader kept here, which skips blank and '#' lines,
reads headers, ``tag <count>`` lines and integer records, rejects negative
counts, and raises the calling format's own error class. In a text laid out
as the writers lay it out once its lines are stripped and its blank and '#'
lines dropped, each block of edge records is parsed by one np.fromstring;
other texts, and blocks that fail a check, are read line by line, which
words every error. Each writer formats a block of records into one byte
matrix, one numpy floor division per digit slot of each column, and
compresses it once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import combinations
from operator import index
from types import MappingProxyType

import numpy as np


class GraphFormatError(ValueError):
    """Raised for malformed graph text."""


def canonical_edge(directed: bool, u: int, v: int) -> tuple[int, int]:
    if directed or u <= v:
        return (u, v)
    return (v, u)


class _Frozen:
    """An object that holds the values of its _fields: they cannot be rebound
    or deleted, and the arrays among them are read-only. Cached views write
    __dict__ directly. Two objects of one class are equal when their _fields
    are, arrays by value (None equals only None)."""

    _fields: tuple[str, ...]

    def _fill(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))
        for a in values:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return self

    @classmethod
    def _from_arrays(cls, *values):
        """From the values of the _fields, in order, with columns that are
        canonical, sorted, distinct, in range and checked already."""
        return cls.__new__(cls)._fill(*values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self._fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _weight_column(weights, u: np.ndarray, v: np.ndarray, what: str) -> np.ndarray:
    """The weights of the (undirected) map along the (u, v) columns, as int64.
    Raises ValueError unless its canonical keys are exactly those pairs, two
    keys that name one pair agree, and every weight is a non-negative integer
    (a numpy integer too) that fits in int64."""
    w = {canonical_edge(False, a, b): x for (a, b), x in weights.items()}
    if len(w) < len(weights):  # some pair is named twice: its weights must agree
        for (a, b), x in weights.items():
            e = canonical_edge(False, a, b)
            if w[e] != x:
                raise ValueError(f"conflicting weights {x!r} and {w[e]!r} on {e}")
    keys = list(zip(u.tolist(), v.tolist()))
    if len(w) != len(keys) or not all(map(w.__contains__, keys)):
        raise ValueError(f"weights must cover exactly the {what}")
    try:
        col = np.fromiter(map(index, map(w.__getitem__, keys)), np.int64, len(keys))
    except TypeError:
        e = next(e for e in keys if not hasattr(type(w[e]), "__index__"))
        raise ValueError(f"non-integer weight {w[e]!r} on {e}") from None
    except OverflowError:
        raise ValueError("weight does not fit in int64") from None
    if (col < 0).any():
        raise ValueError(f"negative weight on {keys[int(np.argmax(col < 0))]}")
    return col


def _pair_view(u: np.ndarray, v: np.ndarray) -> frozenset[tuple[int, int]]:
    return frozenset(zip(u.tolist(), v.tolist()))


def _weight_view(u: np.ndarray, v: np.ndarray, w: np.ndarray | None):
    """The {(u, v): weight} map of the columns, read-only; None when unweighted."""
    if w is None:
        return None
    return MappingProxyType(dict(zip(zip(u.tolist(), v.tolist()), w.tolist())))


def _pair_columns(pairs, undirected: bool, top: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Canonical, sorted, distinct int64 (u, v) columns of pairs (an iterable
    or a (k, 2) array) with ids in 1..top."""
    try:
        a = np.array(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what} out of range 1..{top}") from None
    if a.size == 0:
        a = a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"expected (u, v) pairs, got shape {a.shape}")
    if a.size and (a.min() < 1 or a.max() > top):
        u, v = a[((a < 1) | (a > top)).any(axis=1)][0]
        raise ValueError(f"{what} ({u},{v}) out of range 1..{top}")
    u, v = a[:, 0], a[:, 1]
    u, v = _lex_sorted(np.minimum(u, v), np.maximum(u, v)) if undirected else _lex_sorted(u, v)
    keep = np.ones(len(u), dtype=bool)
    keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u[keep], v[keep]


class Graph(_Frozen):
    """An explicit directed or undirected graph on vertices 1..n, immutable,
    optionally with a non-negative integer weight per edge (undirected only).

    The constructor takes (u, v) pairs, as an iterable or a (k, 2) array,
    and, when weighted, a {(u, v): weight} map whose keys are exactly the
    pairs; undirected pairs are canonicalized and repeats merged. The edges
    are read-only int64 columns u and v sorted by (u, v), the weights an
    aligned column w (None when unweighted); the edges frozenset and the
    weights map are views built on first use and cached.
    """

    _fields = ("directed", "n", "u", "v", "w")

    def __init__(self, directed: bool, n: int, edges,
                 weights: dict[tuple[int, int], int] | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        u, v = _pair_columns(edges, not directed, n, "edge")
        w = None
        if weights is not None:
            if directed:
                raise ValueError("weighted graphs are undirected")
            w = _weight_column(weights, u, v, "edge set")
        self._fill(directed, n, u, v, w)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return _pair_view(self.u, self.v)

    @cached_property
    def weights(self) -> MappingProxyType[tuple[int, int], int] | None:
        return _weight_view(self.u, self.v, self.w)

    @property
    def weighted(self) -> bool:
        return self.w is not None

    @property
    def m(self) -> int:
        return len(self.u)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(self.directed, u, v) in self.edges


@dataclass(frozen=True)
class ShorePartition:
    """A bipartition of 1..n; in the associated graph all edges go shore1 -> shore2."""

    shore1: frozenset[int]
    shore2: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "shore1", frozenset(self.shore1))
        object.__setattr__(self, "shore2", frozenset(self.shore2))
        if self.shore1 & self.shore2:
            raise ValueError("shores must be disjoint")


def _twin_classes(g: Graph) -> dict[tuple[frozenset[int], frozenset[int]], list[int]]:
    """The vertices grouped by their (in, out) neighborhood sets, keyed by them:
    ascending members, groups in smallest-member order. For undirected graphs
    in and out coincide."""
    outs = [set() for _ in range(g.n + 1)]
    ins = [set() for _ in range(g.n + 1)] if g.directed else outs
    for u, v in zip(g.u.tolist(), g.v.tolist()):
        outs[u].add(v)
        ins[v].add(u)
    groups = defaultdict(list)
    for v in range(1, g.n + 1):
        out = frozenset(outs[v])
        groups[frozenset(ins[v]) if g.directed else out, out].append(v)
    return groups


def twins(g: Graph) -> set[frozenset[int]]:
    """All unordered pairs of distinct vertices with identical in- and out-neighborhoods.

    The set definition is applied literally, so mutual edges or loops count as
    ordinary neighborhood members. Pairs within one equivalence class are all
    reported, which makes the result transitively closed by construction.
    """
    return {frozenset(p) for members in _twin_classes(g).values() for p in combinations(members, 2)}


INT64_MAX = 2 ** 63 - 1  # counts, vertex ids and weights must fit in int64


def _lex_sorted(u: np.ndarray, v: np.ndarray, *more: np.ndarray) -> list[np.ndarray]:
    """The columns u, v, *more reordered so that the pairs (u[i], v[i]) ascend."""
    order = np.lexsort((v, u))
    return [c[order] for c in (u, v, *more)]


# The digit passes hold about 36 bytes per record on top of the returned str
# at their peak (tracemalloc, the block of rook g=100: 1.99M records of 11.8
# bytes).
def _record_block(tag: str, *columns: np.ndarray | None) -> str:
    """One LF-ended ``tag x1 ... xk`` line per row of the k columns of int64s in
    0..INT64_MAX (None ones left out), each value as %d prints it.

    A column whose largest value has D digits fills D byte slots per row, one
    floor division by 10 per slot from the right (in uint32 when the column
    fits). Slots left of a value's first digit hold byte 0, and so does no
    other byte of the (rows, width) matrix that also holds the tag, a space
    before each field and the LF: one boolean compress drops them.
    """
    columns = [c for c in columns if c is not None]
    m = len(columns[0])
    tops = [int(c.max(initial=0)) for c in columns]
    digits = [len(str(top)) for top in tops]
    out = np.empty((m, len(tag) + sum(digits) + len(digits) + 1), np.uint8)
    out[:, :len(tag)] = np.frombuffer(tag.encode(), np.uint8)
    out[:, -1] = ord("\n")
    j = len(tag)  # the space before the next field
    for c, top, width in zip(columns, tops, digits):
        out[:, j] = ord(" ")
        j += width  # the field's last slot
        x = c.astype(np.uint32 if top < 2 ** 32 else np.int64)
        for t in range(width):  # slot j - t takes the digit of 10^t
            q = x // 10
            d = x - q * 10
            d += ord("0")
            if t:
                d *= x != 0  # x = value // 10^t is 0 left of the first digit
            out[:, j - t] = d
            x = q
        j += 1
    flat = out.ravel()
    return str(flat[flat != 0].data, "ascii")  # decoded from the buffer: no bytes copy


# The commands hold memory per declared vertex at their peak, whatever the
# file's size: validate, mst and decompress up to about 240 bytes per vertex
# of a compression (peak RSS of `dagzip mst --check`, the largest, on files
# declaring 2M and 4M sinks), `compress --strategy greedy` about 115 per
# vertex of a graph (1M and 3M vertices, no edges). read_graph and
# read_compression refuse more than MAX_VERTICES declared vertices, about
# 3 GB, before anything is allocated per vertex.
MAX_VERTICES = 12_000_000


def _plain(data: bytes) -> bool:
    """Whether LF-framed text bytes are laid out as the writers lay them out: lowercase
    words, digits, '-' and spaces on LF lines, no blank line, no leading or trailing space."""
    return not (data.translate(None, b"abcdefghijklmnopqrstuvwxyz0123456789- \n")
                or any(map(data.__contains__, (b"\n\n", b"\n ", b" \n"))))


def _ascending(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the pairs (u[i], v[i]) ascend strictly: sorted and distinct."""
    return bool(((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all())


class _LineReader:
    """The content lines of one text file, read front to back as integer records.

    Blank lines and lines starting with '#' are skipped. Every fault raises
    the format's own error class with a one-line message. The content lines are
    kept as bytes, with an LF before and after each, and their newline offsets.
    """

    def __init__(self, text: str, error: type[ValueError]):
        self.pos = 0
        self.error = error
        self.data = ("\n" + text.removesuffix("\n") + "\n").encode("utf-8", "surrogatepass")
        self.plain = _plain(self.data)
        if not self.plain:  # strip every line, drop blank and '#' lines, then look again
            lines = [ln for ln in filter(None, map(str.strip, text.split("\n"))) if ln[0] != "#"]
            self.data = "".join(f"\n{ln}" for ln in lines).encode("utf-8", "surrogatepass") + b"\n"
            self.plain = _plain(self.data)
        self.nl = np.flatnonzero(np.frombuffer(self.data, np.uint8) == 10)  # the LF offsets
        self.n = len(self.nl) - 1
        if not self.n:
            raise error("empty input")

    def line(self, i: int) -> str:
        return self.data[self.nl[i] + 1: self.nl[i + 1]].decode("utf-8", "surrogatepass")

    def record(self, tag: str, arity: int, more: bool = False) -> list[int]:
        """The next line as ``tag`` and exactly arity integers (at least arity if more)."""
        if self.pos == self.n:
            raise self.error(f"missing {tag!r} line")
        line = self.line(self.pos)
        self.pos += 1
        parts = line.split()
        if parts[0] != tag or len(parts) - 1 < arity or (len(parts) - 1 > arity and not more):
            want = f"{arity} or more" if more else str(arity)
            raise self.error(f"expected {tag!r} line with {want} fields, got {line!r}")
        try:
            return [int(x) for x in parts[1:]]
        except ValueError:
            raise self.error(f"non-integer field in {line!r}") from None

    def nonnegative(self, tag: str, k: int) -> int:
        if k < 0:
            raise self.error(f"negative count {k} in {tag!r} line")
        if k > INT64_MAX:
            raise self.error(f"count {k} in {tag!r} line does not fit in int64")
        return k

    def vertices(self, top: int) -> int:
        """A declared vertex count, refused above MAX_VERTICES."""
        if top > MAX_VERTICES:
            raise self.error(f"vertex count {top} is above the limit {MAX_VERTICES}")
        return top

    def counted(self, tag: str) -> int:
        """A ``tag <count>`` line."""
        return self.nonnegative(tag, self.record(tag, 1)[0])

    def header(self, tag: str, n_counts: int) -> tuple[bool, list[int], bool]:
        """``tag <directed|undirected> <count>... [weighted]``: (directed, counts, weighted)."""
        line = self.line(self.pos)
        parts = line.split()
        weighted = parts[-1] == "weighted"
        if parts[0] != tag or len(parts) != 2 + n_counts + weighted:
            raise self.error(f"malformed header: {line!r}")
        if parts[1] not in ("directed", "undirected"):
            raise self.error(f"unknown orientation {parts[1]!r}")
        self.pos += 1
        try:
            counts = [int(x) for x in parts[2: 2 + n_counts]]
        except ValueError:
            raise self.error(f"non-integer count in header {line!r}") from None
        return parts[1] == "directed", [self.nonnegative(tag, k) for k in counts], weighted

    def edges(self, tag: str, k: int, top: int, directed: bool,
              weighted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """k lines ``tag <u> <v> [<w>]``: ids in 1..top, canonical, distinct, w >= 0.

        Returns int64 columns u, v, w sorted by (u, v), w None unless weighted.
        A block that fails the array path is read line by line, which raises at
        its first bad line.
        """
        if self.n - self.pos < k:
            raise self.error(f"missing {tag!r} line")
        cols = self._plain_block(tag, k, 3 + weighted)
        if cols is not None and cols[:2].min(initial=1) >= 1 and cols[:2].max(initial=0) <= top:
            u, v, *w = cols
            u, v = (u, v) if directed else (np.minimum(u, v), np.maximum(u, v))
            if not _ascending(u, v):  # canonical files ascend already
                u, v, *w = _lex_sorted(u, v, *w)
                if not _ascending(u, v):  # a pair repeats
                    return self._read_lines(tag, k, top, directed, weighted)
            self.pos += k
            return u, v, (w[0] if w else None)
        return self._read_lines(tag, k, top, directed, weighted)

    def _plain_block(self, tag: str, k: int, width: int) -> np.ndarray | None:
        """The next k lines as width - 1 int64 rows, one per field after the tag, if the
        text is plain and each line is the tag and integers in 0..INT64_MAX - 1."""
        block = self.data[self.nl[self.pos]: self.nl[self.pos + k]]  # LF before each line
        if not self.plain or b"-" in block:
            return None
        block = block.replace(b"\n" + tag.encode() + b" ", b"\n-1 ")
        # Once digits, spaces and LFs go, only the k tag markers may be left. So every
        # token is an integer and np.fromstring reads them all: numpy 2 raises at a bad
        # token, but numpy 1 returns what it read before it, with only a warning.
        if block.translate(None, b"0123456789 \n") != b"-" * k:
            return None
        a = np.fromstring(block, np.int64, sep=" ")
        # The markers are the only negatives: k of them in column 0 of k rows mean k
        # lines of width fields. An integer above int64 reads as INT64_MAX (strtoll saturates).
        if a.size != k * width or (a[::width] != -1).any() or a.max(initial=0) == INT64_MAX:
            return None
        return np.ascontiguousarray(a.reshape(k, width)[:, 1:].T)

    def _read_lines(self, tag: str, k: int, top: int, directed: bool,
                    weighted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """edges(), line by line: raises at the first bad line."""
        rows: dict[tuple[int, int], list[int]] = {}
        for _ in range(k):
            line = self.line(self.pos)
            u, v, *w = self.record(tag, 2 + weighted)
            if not (1 <= u <= top and 1 <= v <= top):
                raise self.error(f"vertex id out of range in {line!r}")
            e = canonical_edge(directed, u, v)
            if e in rows:
                raise self.error(f"duplicate {tag!r} line for {e}")
            if w and not 0 <= w[0] <= INT64_MAX:
                what = "negative weight" if w[0] < 0 else "weight too large for int64"
                raise self.error(f"{what} in {line!r}")
            rows[e] = w
        cols = np.array([[*e, *w] for e, w in rows.items()], np.int64).reshape(k, 2 + weighted).T
        u, v, *w = _lex_sorted(*cols)
        return u, v, (w[0] if w else None)

    def end(self) -> None:
        if self.pos != self.n:
            raise self.error(f"more lines than declared, from {self.line(self.pos)!r}")


def read_graph(text: str) -> Graph:
    """Parse the graph text format.

    Header: ``graph <directed|undirected> <n> <m> [weighted]`` followed by m
    edge lines ``e <u> <v>`` (``e <u> <v> <w>`` when weighted).
    """
    r = _LineReader(text, GraphFormatError)
    directed, (n, m), weighted = r.header("graph", 2)
    if weighted and directed:
        raise GraphFormatError("weighted graphs must be undirected")
    u, v, w = r.edges("e", m, r.vertices(n), directed, weighted)
    r.end()
    return Graph._from_arrays(directed, n, u, v, w)


def write_graph(g: Graph) -> str:
    """Canonical serialization: edges sorted lexicographically, LF line endings."""
    kind = "directed" if g.directed else "undirected"
    head = f"graph {kind} {g.n} {g.m}" + (" weighted" if g.weighted else "")
    return head + "\n" + _record_block("e", g.u, g.v, g.w)


def read_shores(text: str) -> ShorePartition:
    """Parse a shore file: two lines ``shore1 <k> <v...>`` and ``shore2 <k> <v...>``."""
    r = _LineReader(text, GraphFormatError)
    sets = []
    for tag in ("shore1", "shore2"):
        k, *vs = r.record(tag, 1, more=True)
        if len(vs) != r.nonnegative(tag, k):
            raise GraphFormatError(f"{tag!r} line declares {k} vertices, found {len(vs)}")
        sets.append(frozenset(vs))
    r.end()
    try:
        return ShorePartition(shore1=sets[0], shore2=sets[1])
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def write_shores(shores: ShorePartition) -> str:
    out = []
    for tag, vs in (("shore1", sorted(shores.shore1)), ("shore2", sorted(shores.shore2))):
        out.append(" ".join([tag, str(len(vs))] + [str(v) for v in vs]))
    return "\n".join(out) + "\n"
