"""Explicit graph representations, twins, connectivity, and text I/O.

Vertices are dense 1-based integers. Directed edges are ordered pairs,
undirected edges are stored with the smaller endpoint first. Self-loops
are legal in both variants ((v, v) directed, {v, v} undirected).

All four text formats (graph, compression, shore and set-cover files) are
parsed by one line-record reader kept here, which skips blank and '#' lines,
reads headers, ``tag <count>`` lines and integer records, rejects negative
counts, and raises the calling format's own error class.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import combinations


class GraphFormatError(ValueError):
    """Raised for malformed graph text."""


def canonical_edge(directed: bool, u: int, v: int) -> tuple[int, int]:
    if directed or u <= v:
        return (u, v)
    return (v, u)


@dataclass(frozen=True)
class Graph:
    """An explicit directed or undirected graph on vertices 1..n."""

    directed: bool
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = self.edges
        if not (self.directed and isinstance(edges, frozenset)):
            edges = frozenset(canonical_edge(self.directed, u, v) for u, v in edges)
            object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(self.directed, u, v) in self.edges


@dataclass(eq=True)
class WeightedGraph:
    """An undirected graph together with a non-negative integer edge weight map."""

    graph: Graph
    weights: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.graph.directed:
            raise ValueError("weighted graphs are undirected")
        self.weights = {canonical_edge(False, u, v): w for (u, v), w in self.weights.items()}
        if set(self.weights) != set(self.graph.edges):
            raise ValueError("weights must cover exactly the edge set")
        for e, w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight on {e}")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self.graph.edges


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

    def check(self, g: Graph) -> None:
        """Raise unless the shores cover 1..g.n and every edge goes shore1 -> shore2."""
        if self.shore1 | self.shore2 != frozenset(range(1, g.n + 1)):
            raise ValueError("shores must partition the vertex set")
        for u, v in g.edges:
            if u not in self.shore1 or v not in self.shore2:
                raise ValueError(f"edge ({u},{v}) does not go from shore1 to shore2")


def neighborhoods(g: Graph) -> tuple[dict[int, frozenset[int]], dict[int, frozenset[int]]]:
    """Per-vertex (in, out) neighborhood sets; for undirected graphs both maps coincide."""
    ins: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    outs: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        outs[u].add(v)
        ins[v].add(u)
        if not g.directed:
            outs[v].add(u)
            ins[u].add(v)
    fi = {v: frozenset(s) for v, s in ins.items()}
    fo = {v: frozenset(s) for v, s in outs.items()}
    return fi, fo


def twins(g: Graph) -> set[frozenset[int]]:
    """All unordered pairs of distinct vertices with identical in- and out-neighborhoods.

    The set definition is applied literally, so mutual edges or loops count as
    ordinary neighborhood members. Pairs within one equivalence class are all
    reported, which makes the result transitively closed by construction.
    """
    return {frozenset(p) for members in twin_classes(g) for p in combinations(members, 2)}


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Equivalence classes of the twin relation, each sorted, in order of smallest member."""
    ins, outs = neighborhoods(g)
    groups: dict[tuple[frozenset[int], frozenset[int]], list[int]] = defaultdict(list)
    for v in range(1, g.n + 1):
        groups[(ins[v], outs[v])].append(v)
    return sorted(tuple(members) for members in groups.values())


def is_connected(g: Graph | WeightedGraph) -> bool:
    """True iff the graph has a single connected component (loops and directions ignored)."""
    if isinstance(g, WeightedGraph):
        g = g.graph
    if g.n <= 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for u, v in g.edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    seen = {1}
    queue = deque([1])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == g.n


class _LineReader:
    """The content lines of one text file, read front to back as integer records.

    Blank lines and lines starting with '#' are skipped. Every fault raises
    the format's own error class with a one-line message.
    """

    def __init__(self, text: str, error: type[ValueError]):
        self.lines = [line for line in (raw.strip() for raw in text.split("\n"))
                      if line and not line.startswith("#")]
        self.pos = 0
        self.error = error
        if not self.lines:
            raise error("empty input")

    def record(self, tag: str, arity: int, more: bool = False) -> list[int]:
        """The next line as ``tag`` and exactly arity integers (at least arity if more)."""
        if self.pos == len(self.lines):
            raise self.error(f"missing {tag!r} line")
        line = self.lines[self.pos]
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
        return k

    def counted(self, tag: str) -> int:
        """A ``tag <count>`` line."""
        return self.nonnegative(tag, self.record(tag, 1)[0])

    def header(self, tag: str, n_counts: int) -> tuple[bool, list[int], bool]:
        """``tag <directed|undirected> <count>... [weighted]``: (directed, counts, weighted)."""
        line = self.lines[self.pos]
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
              weighted: bool) -> dict[tuple[int, int], int | None]:
        """k lines ``tag <u> <v> [<w>]``: ids in 1..top, canonical, distinct, w >= 0.

        The hot loop of every large file, so it splits the lines itself
        rather than calling record() per line.
        """
        lines = self.lines[self.pos: self.pos + k]
        if len(lines) < k:
            raise self.error(f"missing {tag!r} line")
        self.pos += k
        out: dict[tuple[int, int], int | None] = {}
        width = 3 + weighted
        for line in lines:
            parts = line.split()
            if len(parts) != width or parts[0] != tag:
                raise self.error(f"expected {tag!r} line with {width - 1} fields, got {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
                w = int(parts[3]) if weighted else None
            except ValueError:
                raise self.error(f"non-integer field in {line!r}") from None
            if not (1 <= u <= top and 1 <= v <= top):
                raise self.error(f"vertex id out of range in {line!r}")
            e = canonical_edge(directed, u, v)
            if e in out:
                raise self.error(f"duplicate {tag!r} line for {e}")
            if weighted and w < 0:
                raise self.error(f"negative weight in {line!r}")
            out[e] = w
        return out

    def end(self) -> None:
        if self.pos != len(self.lines):
            raise self.error(f"more lines than declared, from {self.lines[self.pos]!r}")


def read_graph(text: str) -> Graph | WeightedGraph:
    """Parse the graph text format.

    Header: ``graph <directed|undirected> <n> <m> [weighted]`` followed by m
    edge lines ``e <u> <v>`` (``e <u> <v> <w>`` when weighted).
    """
    r = _LineReader(text, GraphFormatError)
    directed, (n, m), weighted = r.header("graph", 2)
    if weighted and directed:
        raise GraphFormatError("weighted graphs must be undirected")
    edges = r.edges("e", m, n, directed, weighted)
    r.end()
    g = Graph(directed=directed, n=n, edges=frozenset(edges))
    return WeightedGraph(graph=g, weights=edges) if weighted else g


def write_graph(g: Graph | WeightedGraph) -> str:
    """Canonical serialization: edges sorted lexicographically, LF line endings."""
    weighted = isinstance(g, WeightedGraph)
    base = g.graph if weighted else g
    kind = "directed" if base.directed else "undirected"
    head = f"graph {kind} {base.n} {base.m}" + (" weighted" if weighted else "")
    out = [head]
    for u, v in sorted(base.edges):
        if weighted:
            out.append(f"e {u} {v} {g.weights[(u, v)]}")
        else:
            out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"


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
