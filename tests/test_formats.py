"""The four text formats: canonical round trips and a malformed-input corpus."""

import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dagzip import (
    DagCompression,
    Graph,
    RookSpec,
    SetCoverInstance,
    ShorePartition,
    decompress,
    kruskal_compressed,
    random_compression,
    random_graph,
    read_compression,
    read_graph,
    read_setcover,
    read_shores,
    rook_canonical_compression,
    rook_graph,
    write_compression,
    write_graph,
    write_setcover,
    write_shores,
)
from dagzip import compression, graphs
from dagzip.cli import main
from dagzip.compression import CompressionFormatError
from dagzip.graphs import GraphFormatError, canonical_edge
from dagzip.mst import MstResult, MstStats, write_mst

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _pairs(draw, top, max_size=10):
    if top == 0:
        return set()
    ids = st.integers(1, top)
    return draw(st.sets(st.tuples(ids, ids), max_size=max_size))


def _noisy(draw, lines, free=()):
    """The same content with the records of each free (start, stop) slice
    reordered, endpoints of undirected records possibly swapped, and blank
    lines, comments and extra blanks inserted."""
    rnd = draw(st.randoms(use_true_random=False))
    lines = list(lines)
    for start, stop, undirected in free:
        block = lines[start:stop]
        rnd.shuffle(block)
        if undirected:
            block = [" ".join([p[0], p[2], p[1], *p[3:]]) if rnd.random() < 0.5 else line
                     for line in block for p in [line.split()]]
        lines[start:stop] = block
    out = []
    for line in lines:
        if rnd.random() < 0.3:
            out.append(rnd.choice(["", "   ", "# a comment", "  # 1 2 3"]))
        out.append(" " * rnd.randint(0, 2) + line.replace(" ", " " * rnd.randint(1, 3))
                   + "\t" * rnd.randint(0, 1))
    return "\n".join(out) + rnd.choice(["", "\n", "\n\n"])


@st.composite
def compression_texts(draw):
    directed = draw(st.booleans())
    weighted = not directed and draw(st.booleans())
    n_sinks, n_clusters = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    top = n_sinks + n_clusters
    arcs, pairs = _pairs(draw, top), _pairs(draw, top)
    cedges = {canonical_edge(directed, u, v) for u, v in pairs}
    weights = {e: draw(st.integers(0, 9)) for e in sorted(cedges)} if weighted else None
    # lists, not frozensets: the constructor sorts, canonicalizes and merges them
    d = DagCompression(directed=directed, n_sinks=n_sinks, n_clusters=n_clusters,
                       arcs=list(arcs), cedges=list(pairs), weights=weights)
    text = write_compression(d)
    c_start = 5 + len(arcs)
    free = [(4, 4 + len(arcs), False), (c_start, c_start + len(cedges), not directed)]
    return text, _noisy(draw, text.splitlines(), free), d


@st.composite
def graph_texts(draw):
    directed = draw(st.booleans())
    n = draw(st.integers(0, 7))
    edges = {canonical_edge(directed, u, v) for u, v in _pairs(draw, n, 15)}
    weighted = not directed and draw(st.booleans())
    weights = {e: draw(st.integers(0, 99)) for e in sorted(edges)} if weighted else None
    g = Graph(directed=directed, n=n, edges=frozenset(edges), weights=weights)
    text = write_graph(g)
    return text, _noisy(draw, text.splitlines(), [(1, 1 + len(edges), not directed)]), g


@st.composite
def setcover_texts(draw):
    n = draw(st.integers(1, 5))
    subsets = st.frozensets(st.integers(1, n), min_size=1)
    sets = draw(st.lists(subsets, max_size=6, unique=True))
    text = write_setcover(SetCoverInstance(n=n, sets=tuple(sets), k=draw(st.integers(-2, 6))))
    return text, _noisy(draw, text.splitlines())


@st.composite
def shore_texts(draw):
    split = draw(st.lists(st.sampled_from([0, 1, 2]), max_size=9))
    sides = [frozenset(v for v, s in enumerate(split, 1) if s == side) for side in (1, 2)]
    text = write_shores(ShorePartition(shore1=sides[0], shore2=sides[1]))
    return text, _noisy(draw, text.splitlines())


@SETTINGS
@given(compression_texts())
def test_compression_text_round_trip(texts):
    text, noisy, d = texts
    assert write_compression(read_compression(text)) == text
    assert write_compression(read_compression(noisy)) == text
    # the arrays the reader builds equal the ones the constructor builds from pairs
    assert read_compression(text) == d == read_compression(noisy)


@SETTINGS
@given(graph_texts())
def test_graph_text_round_trip(texts):
    text, noisy, g = texts
    assert write_graph(read_graph(text)) == text
    assert write_graph(read_graph(noisy)) == text
    assert read_graph(text) == g == read_graph(noisy)


@SETTINGS
@given(setcover_texts())
def test_setcover_text_round_trip(texts):
    text, noisy = texts
    assert write_setcover(read_setcover(text)) == text
    assert write_setcover(read_setcover(noisy)) == text


@SETTINGS
@given(shore_texts())
def test_shore_text_round_trip(texts):
    text, noisy = texts
    assert write_shores(read_shores(text)) == text
    assert write_shores(read_shores(noisy)) == text


# Each malformed text with the one stderr line it gets; the lines of the
# entries before the int64 ones are as the line-by-line reader wrote them.
DAGC = {
    '':
        'error: bad compression file: empty input',
    '# only a comment\n':
        'error: bad compression file: empty input',
    'graph directed 2 1\ne 1 2\n':
        "error: bad compression file: malformed header: 'graph directed 2 1'",
    'dagc sideways\nsinks 1\nclusters 0\narcs 0\ncedges 0\n':
        "error: bad compression file: unknown orientation 'sideways'",
    'dagc directed extra\nsinks 1\nclusters 0\narcs 0\ncedges 0\n':
        "error: bad compression file: malformed header: 'dagc directed extra'",
    'dagc directed\nsinks -3\nclusters 5\narcs 0\ncedges 0\n':
        "error: bad compression file: negative count -3 in 'sinks' line",
    'dagc directed\nsinks 2\nclusters -1\narcs 0\ncedges 0\n':
        "error: bad compression file: negative count -1 in 'clusters' line",
    'dagc directed\nsinks 2\nclusters 0\narcs -1\ncedges 0\n':
        "error: bad compression file: negative count -1 in 'arcs' line",
    'dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges -1\n':
        "error: bad compression file: negative count -1 in 'cedges' line",
    'dagc directed\nsinks two\nclusters 0\narcs 0\ncedges 0\n':
        "error: bad compression file: non-integer field in 'sinks two'",
    'dagc directed\nsinks 2 3\nclusters 0\narcs 0\ncedges 0\n':
        "error: bad compression file: expected 'sinks' line with 1 fields, got 'sinks 2 3'",
    'dagc directed\nclusters 0\nsinks 2\narcs 0\ncedges 0\n':
        "error: bad compression file: expected 'sinks' line with 1 fields, got 'clusters 0'",
    'dagc directed\nsinks 2\nclusters 0\n':
        "error: bad compression file: missing 'arcs' line",
    'dagc directed\nsinks 2\nclusters 1\narcs 2\na 3 1\ncedges 0\n':
        "error: bad compression file: expected 'a' line with 2 fields, got 'cedges 0'",
    'dagc directed\nsinks 2\nclusters 1\narcs 1\na 3 4\ncedges 0\n':
        "error: bad compression file: vertex id out of range in 'a 3 4'",
    'dagc directed\nsinks 2\nclusters 1\narcs 1\na 3 x\ncedges 0\n':
        "error: bad compression file: non-integer field in 'a 3 x'",
    'dagc directed\nsinks 2\nclusters 1\narcs 2\na 3 1\na 3 1\ncedges 0\n':
        "error: bad compression file: duplicate 'a' line for (3, 1)",
    'dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2\nc 2 1\n':
        "error: bad compression file: more lines than declared, from 'c 2 1'",
    'dagc undirected\nsinks 2\nclusters 0\narcs 0\ncedges 2\nc 1 2\nc 2 1\n':
        "error: bad compression file: duplicate 'c' line for (1, 2)",
    'dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2\n':
        "error: bad compression file: expected 'c' line with 3 fields, got 'c 1 2'",
    'dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 -4\n':
        "error: bad compression file: negative weight in 'c 1 2 -4'",
    'dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 4\n':
        "error: bad compression file: expected 'c' line with 2 fields, got 'c 1 2 4'",
    'dagc directed\nsinks 1\nclusters 2\narcs 4\na 2 3\na 3 2\na 2 1\na 3 1\ncedges 0\n':
        'error: invalid compression: cycle in cluster DAG',
    'dagc directed\nsinks 2\nclusters 2\narcs 2\na 1 3\na 3 2\ncedges 1\nc 4 1\n':
        'error: invalid compression: original vertex 1 has outgoing arc; cluster vertex 4 with no outgoing arc',
    'dagc directed\nsinks 99999999999999999999\nclusters 0\narcs 0\ncedges 0\n':
        "error: bad compression file: count 99999999999999999999 in 'sinks' line does not fit in int64",
    'dagc directed\nsinks 9223372036854775807\nclusters 1\narcs 0\ncedges 0\n':
        'error: bad compression file: vertex count 9223372036854775808 is above the limit 12000000',
    'dagc directed\nsinks 9223372036854775807\nclusters 0\narcs 0\ncedges 0\n':
        'error: bad compression file: vertex count 9223372036854775807 is above the limit 12000000',
    'dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 99999999999999999999\n':
        "error: bad compression file: vertex id out of range in 'c 1 99999999999999999999'",
    'dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 9223372036854775808\n':
        "error: bad compression file: weight too large for int64 in 'c 1 2 9223372036854775808'",
    'dagc directed weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 4\n':
        'error: bad compression file: weighted compressions must be undirected',
}

GRAPH = {
    '':
        'error: bad graph file: empty input',
    'graph directed 2\n':
        "error: bad graph file: malformed header: 'graph directed 2'",
    'graph sideways 2 0\n':
        "error: bad graph file: unknown orientation 'sideways'",
    'graph directed -1 0\n':
        "error: bad graph file: negative count -1 in 'graph' line",
    'graph directed 2 -1\n':
        "error: bad graph file: negative count -1 in 'graph' line",
    'graph directed 2 x\n':
        "error: bad graph file: non-integer count in header 'graph directed 2 x'",
    'graph directed 2 1 weighted\ne 1 2 3\n':
        'error: bad graph file: weighted graphs must be undirected',
    'graph undirected 2 1 heavy\ne 1 2\n':
        "error: bad graph file: malformed header: 'graph undirected 2 1 heavy'",
    'graph directed 2 1\ne 1 3\n':
        "error: bad graph file: vertex id out of range in 'e 1 3'",
    'graph directed 2 1\ne 0 1\n':
        "error: bad graph file: vertex id out of range in 'e 0 1'",
    'graph directed 2 1\ne 1 2 5\n':
        "error: bad graph file: expected 'e' line with 2 fields, got 'e 1 2 5'",
    'graph directed 2 2\ne 1 2\n':
        "error: bad graph file: missing 'e' line",
    'graph directed 2 1\ne 1 2\ne 2 1\n':
        "error: bad graph file: more lines than declared, from 'e 2 1'",
    'graph undirected 2 2\ne 1 2\ne 2 1\n':
        "error: bad graph file: duplicate 'e' line for (1, 2)",
    'graph undirected 2 1 weighted\ne 1 2\n':
        "error: bad graph file: expected 'e' line with 3 fields, got 'e 1 2'",
    'graph undirected 2 1 weighted\ne 1 2 -1\n':
        "error: bad graph file: negative weight in 'e 1 2 -1'",
    'graph directed 2 1\nf 1 2\n':
        "error: bad graph file: expected 'e' line with 2 fields, got 'f 1 2'",
    'graph directed 99999999999999999999 0\n':
        "error: bad graph file: count 99999999999999999999 in 'graph' line does not fit in int64",
    'graph directed 2 1\ne 99999999999999999999 1\n':
        "error: bad graph file: vertex id out of range in 'e 99999999999999999999 1'",
    'graph undirected 2 1 weighted\ne 1 2 9223372036854775808\n':
        "error: bad graph file: weight too large for int64 in 'e 1 2 9223372036854775808'",
}

SETCOVER = [
    "",
    "setcover 2 1\ns 1 1\n",
    "setcover 2 -1 1\n",
    "setcover -2 0 0\n",
    "setcover 2 x 1\ns 1 1\n",
    "setcover 2 2 1\ns 1 1\n",
    "setcover 2 1 1\ns 1 1\ns 2 2\n",
    "setcover 2 2 1\ns 2 1\ns 1 2\n",
    "setcover 2 1 1\ns 1\n",
    "setcover 2 1 1\ns 1 3\n",
    "setcover 2 2 1\ns 1 1 2\ns 2 2 1\n",
    "setcover 2 1 1\nt 1 1\n",
    "setcover 2 1 1\ns 1 one\n",
]

SHORES = [
    "",
    "shore1 1 1\n",
    "shore1 -1\nshore2 0\n",
    "shore1 2 1\nshore2 0\n",
    "shore1 1 1\nshore2 1 1\n",
    "shore2 1 1\nshore1 1 2\n",
    "shore1\nshore2 0\n",
    "shore1 1 1\nshore2 1 2\nshore3 0\n",
    "shore1 1 x\nshore2 0\n",
    "shore1 1 1\nshore2 1 2\n",  # valid syntax, but does not cover the sinks
]


def _piped(monkeypatch, capsys, text, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv)
    return code, capsys.readouterr().err


def _assert_one_line_exit_2(code, err, text):
    assert code == 2, text
    assert err.count("\n") == 1 and err.startswith("error: "), (text, err)


@pytest.mark.parametrize("text", list(DAGC))
def test_malformed_compression(monkeypatch, capsys, tmp_path, text):
    out = ["-o", str(tmp_path / "out")]
    commands = [["decompress", "-", *out], ["mst", "-", *out]]
    if "bad compression file" in DAGC[text]:  # validate lists violations on stdout instead
        commands.append(["validate", "-"])
    for argv in commands:
        code, err = _piped(monkeypatch, capsys, text, argv)
        _assert_one_line_exit_2(code, err, text)
        assert err == DAGC[text] + "\n", argv


@pytest.mark.parametrize("text", list(GRAPH))
def test_malformed_graph(monkeypatch, capsys, text):
    for argv in (["compress", "--strategy", "greedy", "-"], ["oracle", "-"]):
        code, err = _piped(monkeypatch, capsys, text, argv)
        _assert_one_line_exit_2(code, err, text)
        assert err == GRAPH[text] + "\n", argv


def test_int64_limits_are_inclusive():
    text = "dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 9223372036854775807\n"
    d = read_compression(text)
    assert write_compression(d) == text
    assert kruskal_compressed(d).total_weight == 2 ** 63 - 1


def test_declared_vertex_count_is_bounded(monkeypatch, capsys, tmp_path):
    # A few bytes can declare millions of vertices, and validate, mst and
    # decompress allocate per declared vertex: the reader refuses the count.
    monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
    at_limit = "dagc undirected weighted\nsinks 3\nclusters 2\narcs 2\na 4 1\na 5 4\ncedges 1\nc 5 2 1\n"
    assert read_compression(at_limit).n_vertices == 5
    path = tmp_path / "big.dagc"
    path.write_text("dagc undirected weighted\nsinks 4\nclusters 2\narcs 0\ncedges 0\n")
    out = ["-o", str(tmp_path / "out")]
    for argv in (["validate", str(path)], ["decompress", str(path), *out], ["mst", str(path), *out]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: bad compression file: vertex count 6 is above the limit 5\n"


def test_declared_graph_vertex_count_is_bounded(monkeypatch, capsys, tmp_path):
    # The same limit holds for a graph, whose vertices become a compression's
    # sinks: compress allocates per declared vertex before it reads an edge.
    monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
    assert read_graph("graph directed 5 1\ne 5 1\n").n == 5
    with pytest.raises(GraphFormatError, match="vertex count 6 is above the limit 5"):
        read_graph("graph undirected 6 0\n")
    path = tmp_path / "big.graph"
    path.write_text("graph undirected 6 0\n")
    for argv in (["compress", "--strategy", "greedy", str(path), "-o", str(tmp_path / "out")],
                 ["compress", "--strategy", "tree", str(path), "-o", str(tmp_path / "out")],
                 ["oracle", str(path)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: bad graph file: vertex count 6 is above the limit 5\n"
    assert not (tmp_path / "out").exists()


def test_non_ascii_file_is_a_bad_file_of_its_format(capsys, tmp_path):
    # Every command reads its input files as ASCII through one loader, which
    # words an undecodable file as a bad file of the format it expected.
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xe9\n")
    comp = tmp_path / "t.dagc"
    comp.write_text("dagc directed\nsinks 3\nclusters 0\narcs 0\ncedges 1\nc 1 3\n")
    out = ["-o", str(tmp_path / "out")]
    for what, argv in (("compression", ["decompress", str(bad), *out]),
                       ("graph", ["compress", "--strategy", "greedy", str(bad), *out]),
                       ("graph", ["oracle", str(bad)]),
                       ("shore", ["normalize", "--pass", "shore", "--shores", str(bad), str(comp), *out]),
                       ("set-cover", ["reduce", "mindag", str(bad), "--out-prefix", str(tmp_path / "r")])):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (f"error: bad {what} file: 'ascii' codec can't decode "
                                           "byte 0xe9 in position 0: ordinal not in range(128)\n")
    assert sorted(tmp_path.iterdir()) == [bad, comp]


@pytest.mark.parametrize("text", SETCOVER)
def test_malformed_setcover(monkeypatch, capsys, tmp_path, text):
    code, err = _piped(monkeypatch, capsys, text,
                       ["reduce", "mindag", "-", "--out-prefix", str(tmp_path / "red")])
    _assert_one_line_exit_2(code, err, text)


@pytest.mark.parametrize("text", SHORES)
def test_malformed_shores(monkeypatch, capsys, tmp_path, text):
    comp = tmp_path / "t.dagc"
    comp.write_text("dagc directed\nsinks 3\nclusters 0\narcs 0\ncedges 1\nc 1 3\n")
    code, err = _piped(monkeypatch, capsys, text,
                       ["normalize", "--pass", "shore", "--shores", "-", str(comp)])
    _assert_one_line_exit_2(code, err, text)


# The record reader and writer before the array codec, kept as the reference
# the codec must match: every text kept as stripped lines, each record block
# split once and converted with int(), each row formatted on its own.

def _reference_text_rows(tag, *columns):
    columns = [c for c in columns if c is not None]
    return list(map((tag + " %d" * len(columns)).__mod__, zip(*(c.tolist() for c in columns))))


class _ReferenceLineReader(graphs._LineReader):
    def __init__(self, text, error):
        self.pos, self.error = 0, error
        self.lines = [line for line in filter(None, map(str.strip, text.split("\n")))
                      if line[0] != "#"]
        self.n = len(self.lines)
        if not self.lines:
            raise error("empty input")

    def line(self, i):
        return self.lines[i]

    def edges(self, tag, k, top, directed, weighted):
        lines = self.lines[self.pos: self.pos + k]
        if len(lines) < k:
            raise self.error(f"missing {tag!r} line")
        self.pos += k
        width = 3 + weighted
        block = "\n".join(lines)
        tokens = block.split()
        cols = []
        if (len(tokens) == k * width and ("\n" + block).count("\n" + tag) == k
                and tokens[::width].count(tag) == k):
            try:
                cols = [np.fromiter(map(int, tokens[j::width]), np.int64, k)
                        for j in range(1, width)]
            except (ValueError, OverflowError):
                pass
        if cols:
            u, v, *w = cols
            u, v = (u, v) if directed else (np.minimum(u, v), np.maximum(u, v))
            u, v, *w = graphs._lex_sorted(u, v, *w)
            if not (((u < 1) | (u > top) | (v < 1) | (v > top)).any()
                    or (w and (w[0] < 0).any())
                    or ((u[1:] == u[:-1]) & (v[1:] == v[:-1])).any()):
                return u, v, (w[0] if w else None)
        self.pos -= k
        self._raise_first_fault(tag, k, top, directed, weighted)

    def _raise_first_fault(self, tag, k, top, directed, weighted):
        seen = set()
        for line in self.lines[self.pos: self.pos + k]:
            u, v, *w = self.record(tag, 2 + weighted)
            if not (1 <= u <= top and 1 <= v <= top):
                raise self.error(f"vertex id out of range in {line!r}")
            e = canonical_edge(directed, u, v)
            if e in seen:
                raise self.error(f"duplicate {tag!r} line for {e}")
            seen.add(e)
            if w and not 0 <= w[0] <= graphs.INT64_MAX:
                what = "negative weight" if w[0] < 0 else "weight too large for int64"
                raise self.error(f"{what} in {line!r}")
        raise AssertionError("a block that fails the array checks has a bad line")


def _outcome(read, text, reader=None):
    """What read(text) gives: the object, or the class and message it raises."""
    with pytest.MonkeyPatch.context() as m:
        if reader:
            m.setattr(graphs, "_LineReader", reader)
            m.setattr(compression, "_LineReader", reader)
        try:
            return read(text)
        except (GraphFormatError, CompressionFormatError) as exc:
            return type(exc), str(exc)


_TOKENS = ["+1", "1_0", "007", "0", "-0", "-1", "-", "1-2", str(2 ** 63 - 1), str(2 ** 63),
           "99999999999999999999", "x", "٣", "1e5", "3", "4 5", "e", "a", "c", ""]


@st.composite
def _mutated(draw, texts):
    """A canonical text from texts, possibly broken: tokens swapped for
    edge cases, weights set to 2**63 - 1 or 2**63, lines repeated, dropped or
    retagged, and CRLF, tabs, doubled spaces, comments or blank lines put in."""
    text = draw(texts)[0]
    rnd = draw(st.randoms(use_true_random=False))
    lines = text.split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        i = rnd.randrange(len(lines))
        parts = lines[i].split(" ")
        kind = rnd.randrange(8)
        if kind == 0 and len(parts) > 1:
            parts[rnd.randrange(1, len(parts))] = rnd.choice(_TOKENS)
        elif kind == 7 and len(parts) == 4:  # the weight of a weighted record
            parts[3] = rnd.choice([str(2 ** 63 - 1), str(2 ** 63)])
        elif kind == 1:
            parts[0] = rnd.choice(["e", "a", "c", "t", "E", "-1"])
        elif kind == 2:
            lines.insert(i, lines[i])
        elif kind == 3 and len(lines) > 1:
            del lines[i]
            continue
        elif kind == 4:
            lines.insert(i, rnd.choice(["", "# note", " ", "\r"]))
        elif kind == 5:
            parts[-1] += rnd.choice(["\r", "\t", " ", "  "])
        else:
            parts = [" " * rnd.randint(1, 2) + p if j else p for j, p in enumerate(parts)]
        lines[i] = " ".join(parts)
    return "\n".join(lines) + rnd.choice(["\n", "", "\r\n", "\n\n"])


@SETTINGS
@given(_mutated(graph_texts()))
@example("graph undirected 2 1 weighted\ne 1 2 9223372036854775807\n")
@example("graph undirected 2 1 weighted\ne 1 2 9223372036854775808\n")
@example("graph directed 0 0\n")
@example("graph undirected 5 2 weighted\ne 1 2\ne 1 3 4 5\n")  # right count, misaligned
@example("graph directed 2 1\n e 1 x\n")  # messages quote stripped lines
@example("graph directed 2 1\ne 1 x \n")
@example("graph directed  2  1\ne  1   2\n")
@example("graph directed 3 2\ne 1 2\ne 2 3x\n")  # junk after the last number of a block
@example("graph directed 3 2\ne 1 2\ne 2 3 x\n")
@example("graph directed 3 2\ne 1 2\n-1 2 3\n")  # a line with no tag reads as a marker
@example("# note\r\ngraph directed 3 2\r\n\r\n  e 1 2 \r\ne 2 3\r\n")
def test_graph_reader_matches_reference(text):
    assert _outcome(read_graph, text) == _outcome(read_graph, text, _ReferenceLineReader)


@SETTINGS
@given(_mutated(compression_texts()))
@example("dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 9223372036854775807\n")
@example("dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 9223372036854775808\n")
@example("dagc directed\nsinks 0\nclusters 0\narcs 0\ncedges 0\n")
def test_compression_reader_matches_reference(text):
    assert _outcome(read_compression, text) == _outcome(read_compression, text,
                                                        _ReferenceLineReader)


@SETTINGS
@given(st.data())
def test_writers_match_reference(data):
    directed = data.draw(st.booleans())
    weighted = not directed and data.draw(st.booleans())
    n = data.draw(st.integers(0, 7))
    edges = sorted({canonical_edge(directed, u, v) for u, v in _pairs(data.draw, n, 15)})
    weight = st.sampled_from([0, 1, 9, 2 ** 63 - 1]) if weighted else st.none()
    weights = {e: data.draw(weight) for e in edges} if weighted else None
    g = Graph(directed=directed, n=n, edges=edges, weights=weights)
    head = f"graph {'directed' if directed else 'undirected'} {n} {len(edges)}"
    head += " weighted" if weighted else ""
    rows = _reference_text_rows("e", g.u, g.v, g.w)
    assert write_graph(g) == "\n".join([head, *rows, ""])
    d = DagCompression(directed, n, 0, [], edges, weights)
    rows = _reference_text_rows("c", d.cedge_u, d.cedge_v, d.cedge_w)
    assert write_compression(d).endswith("\n".join([f"arcs 0\ncedges {len(rows)}", *rows, ""]))
    forest = [(u, v, weights[u, v]) for u, v in edges if u != v] if weighted else []
    forest = data.draw(st.permutations(forest))
    total = sum(w for *_, w in forest)
    rows = [f"t {u} {v} {w}" for u, v, w in sorted(forest)]
    text = "\n".join([f"mst {n} {len(rows)} {total}", *rows, ""])
    assert write_mst(MstResult(forest, total, MstStats()), n) == text
    # The same forest as the (k, 3) int64 array that both Kruskals hand on.
    array = np.array(forest, np.int64).reshape(-1, 3)
    assert write_mst(MstResult(array, total, MstStats()), n) == text


# Every decimal width a record can have: 0, 10^k - 1 and 10^k up to 10^18,
# the uint32 edge 2^32 - 1 and 2^32, and INT64_MAX.
WIDTHS = sorted({0, 2 ** 32 - 1, 2 ** 32, graphs.INT64_MAX}
                | {10 ** k + d for k in range(1, 19) for d in (-1, 0)})


def _assert_writers_match(directed, n, edges, weights=None):
    """write_graph, write_compression and write_mst against the reference rows,
    on the edges as graph edges, as arcs and compression edges, and as a forest."""
    g = Graph(directed, n, edges, weights)
    kind = "directed" if directed else "undirected"
    flag = " weighted" if weights is not None else ""
    rows = _reference_text_rows("e", g.u, g.v, g.w)
    assert write_graph(g) == "\n".join([f"graph {kind} {n} {g.m}{flag}", *rows, ""])
    d = DagCompression(directed, n, 0, edges, edges, weights)
    arcs = _reference_text_rows("a", d.arc_u, d.arc_v)
    cedges = _reference_text_rows("c", d.cedge_u, d.cedge_v, d.cedge_w)
    assert write_compression(d) == "\n".join([f"dagc {kind}{flag}", f"sinks {n}", "clusters 0",
                                              f"arcs {len(arcs)}", *arcs,
                                              f"cedges {len(cedges)}", *cedges, ""])
    forest = [(u, v, weights[u, v]) for u, v in g.edges] if weights is not None else []
    cols = np.array(sorted(forest), np.int64).reshape(-1, 3).T
    total = sum(cols[2].tolist())
    text = "\n".join([f"mst {n} {len(forest)} {total}", *_reference_text_rows("t", *cols), ""])
    assert write_mst(MstResult(forest[::-1], total, MstStats()), n) == text
    array = np.array(forest[::-1], np.int64).reshape(-1, 3)  # as both Kruskals hand it on
    assert write_mst(MstResult(array, total, MstStats()), n) == text


@pytest.mark.parametrize("top", WIDTHS[1:])
def test_writers_match_reference_at_every_width(top):
    # Each block's largest value is top, and its rows mix every smaller width.
    ids = [x for x in WIDTHS if 1 <= x <= top]
    edges = [(a, b) for a in ids for b in ids if a <= b]
    weights = [x for x in WIDTHS if x <= top]
    weighted = {e: weights[i % len(weights)] for i, e in enumerate(edges)}
    for directed, w in ((True, None), (False, None), (False, weighted)):
        _assert_writers_match(directed, top, edges, w)
        _assert_writers_match(directed, top, [(top, top)], w and {(top, top): top})
        _assert_writers_match(directed, top, [], w and {})
    # A longer block of values near top, with more rows than the boundary pairs give.
    many = [(top - i, top) for i in range(min(top, 300))]
    _assert_writers_match(False, top, many, {e: top for e in many})


@SETTINGS
@given(st.data())
def test_writers_match_reference_on_wide_values(data):
    value = st.one_of(st.integers(0, 12), st.sampled_from(WIDTHS), st.integers(0, graphs.INT64_MAX))
    directed = data.draw(st.booleans())
    weighted = not directed and data.draw(st.booleans())
    pairs = data.draw(st.lists(st.tuples(value, value), max_size=120))
    edges = {canonical_edge(directed, max(a, 1), max(b, 1)) for a, b in pairs}
    n = max(map(max, edges), default=data.draw(value))
    weights = {e: data.draw(value) for e in sorted(edges)} if weighted else None
    _assert_writers_match(directed, n, sorted(edges), weights)


def _fail(*args):
    raise AssertionError("a canonical text left the array path")


def _untidy(text):
    """The same content with CRLF ends, a comment, a blank line and outer spaces."""
    return "# note\r\n\r\n" + "".join(f" {line}  \r\n" for line in text.splitlines())


def test_canonical_texts_stay_on_the_array_path(monkeypatch, fig_compression, mst_compression):
    # A fallback that always fires would pass every other test and lose the
    # whole gain: here the line path is forbidden. Texts whose lines are
    # canonical once stripped (CRLF, comments, blank lines) stay on it too.
    monkeypatch.setattr(graphs._LineReader, "_read_lines", _fail)
    spec = RookSpec(g=4)
    for g in (rook_graph(spec), random_graph(9, 0.4, seed=2, directed=False),
              Graph(True, 3, []), decompress(mst_compression)):
        assert read_graph(write_graph(g)) == g == read_graph(_untidy(write_graph(g)))
    for d in (fig_compression, mst_compression, rook_canonical_compression(spec),
              random_compression(12, 5, arc_density=0.3, edge_count=9, max_weight=5, seed=4),
              DagCompression(False, 2, 0, [], [])):
        text = write_compression(d)
        assert read_compression(text) == d == read_compression(_untidy(text))


def _numpy1_fromstring(data, dtype, sep):
    """np.fromstring as numpy 1.x has it: at a token that is no integer it stops
    and returns the values read so far (with a DeprecationWarning) instead of raising."""
    return np.array(re.match(rb"(?:\s*-?\d+)*", data).group().split(), dtype)


@pytest.mark.parametrize("text", [
    "graph directed 3 2\ne 1 2\ne 2 3x\n",
    "graph directed 3 2\ne 1 2\ne 2 3 x\n",
    "graph undirected 3 2 weighted\ne 1 2 5\ne 2 3 5e\n",
    "dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 junk\n",
])
def test_junk_after_a_block_is_refused_whatever_fromstring_does(monkeypatch, text):
    # A reader that trusted the value count would take "3x" for 3 where
    # np.fromstring reads up to a bad token and stops, as in numpy 1.x.
    read = read_compression if text.startswith("dagc") else read_graph
    expected = _outcome(read, text, _ReferenceLineReader)
    assert expected[0] in (GraphFormatError, CompressionFormatError)
    monkeypatch.setattr(np, "fromstring", _numpy1_fromstring)
    assert _outcome(read, text) == expected
