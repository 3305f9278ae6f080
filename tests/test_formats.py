"""The four text formats: canonical round trips and a malformed-input corpus."""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dagzip import (
    DagCompression,
    Graph,
    SetCoverInstance,
    ShorePartition,
    WeightedGraph,
    read_compression,
    read_graph,
    read_setcover,
    read_shores,
    write_compression,
    write_graph,
    write_setcover,
    write_shores,
)
from dagzip.cli import main
from dagzip.graphs import canonical_edge

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
    arcs = _pairs(draw, top)
    cedges = {canonical_edge(directed, u, v) for u, v in _pairs(draw, top)}
    weights = {e: draw(st.integers(0, 9)) for e in sorted(cedges)} if weighted else None
    d = DagCompression(directed=directed, n_sinks=n_sinks, n_clusters=n_clusters,
                       arcs=frozenset(arcs), cedges=frozenset(cedges), weights=weights)
    text = write_compression(d)
    c_start = 5 + len(arcs)
    free = [(4, 4 + len(arcs), False), (c_start, c_start + len(cedges), not directed)]
    return text, _noisy(draw, text.splitlines(), free)


@st.composite
def graph_texts(draw):
    directed = draw(st.booleans())
    n = draw(st.integers(0, 7))
    edges = {canonical_edge(directed, u, v) for u, v in _pairs(draw, n, 15)}
    g = Graph(directed=directed, n=n, edges=frozenset(edges))
    if not directed and draw(st.booleans()):
        g = WeightedGraph(graph=g, weights={e: draw(st.integers(0, 99)) for e in sorted(edges)})
    text = write_graph(g)
    return text, _noisy(draw, text.splitlines(), [(1, 1 + len(edges), not directed)])


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
    text, noisy = texts
    assert write_compression(read_compression(text)) == text
    assert write_compression(read_compression(noisy)) == text


@SETTINGS
@given(graph_texts())
def test_graph_text_round_trip(texts):
    text, noisy = texts
    assert write_graph(read_graph(text)) == text
    assert write_graph(read_graph(noisy)) == text


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


DAGC = [
    "",
    "# only a comment\n",
    "graph directed 2 1\ne 1 2\n",
    "dagc sideways\nsinks 1\nclusters 0\narcs 0\ncedges 0\n",
    "dagc directed extra\nsinks 1\nclusters 0\narcs 0\ncedges 0\n",
    "dagc directed\nsinks -3\nclusters 5\narcs 0\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters -1\narcs 0\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters 0\narcs -1\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges -1\n",
    "dagc directed\nsinks two\nclusters 0\narcs 0\ncedges 0\n",
    "dagc directed\nsinks 2 3\nclusters 0\narcs 0\ncedges 0\n",
    "dagc directed\nclusters 0\nsinks 2\narcs 0\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters 0\n",
    "dagc directed\nsinks 2\nclusters 1\narcs 2\na 3 1\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters 1\narcs 1\na 3 4\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters 1\narcs 1\na 3 x\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters 1\narcs 2\na 3 1\na 3 1\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2\nc 2 1\n",
    "dagc undirected\nsinks 2\nclusters 0\narcs 0\ncedges 2\nc 1 2\nc 2 1\n",
    "dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2\n",
    "dagc undirected weighted\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 -4\n",
    "dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2 4\n",
    "dagc directed\nsinks 1\nclusters 2\narcs 4\na 2 3\na 3 2\na 2 1\na 3 1\ncedges 0\n",
    "dagc directed\nsinks 2\nclusters 2\narcs 2\na 1 3\na 3 2\ncedges 1\nc 4 1\n",
]

GRAPH = [
    "",
    "graph directed 2\n",
    "graph sideways 2 0\n",
    "graph directed -1 0\n",
    "graph directed 2 -1\n",
    "graph directed 2 x\n",
    "graph directed 2 1 weighted\ne 1 2 3\n",
    "graph undirected 2 1 heavy\ne 1 2\n",
    "graph directed 2 1\ne 1 3\n",
    "graph directed 2 1\ne 0 1\n",
    "graph directed 2 1\ne 1 2 5\n",
    "graph directed 2 2\ne 1 2\n",
    "graph directed 2 1\ne 1 2\ne 2 1\n",
    "graph undirected 2 2\ne 1 2\ne 2 1\n",
    "graph undirected 2 1 weighted\ne 1 2\n",
    "graph undirected 2 1 weighted\ne 1 2 -1\n",
    "graph directed 2 1\nf 1 2\n",
]

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


@pytest.mark.parametrize("text", DAGC)
def test_malformed_compression(monkeypatch, capsys, tmp_path, text):
    for argv in (["decompress", "-"], ["mst", "-"]):
        code, err = _piped(monkeypatch, capsys, text, [*argv, "-o", str(tmp_path / "out")])
        _assert_one_line_exit_2(code, err, text)


@pytest.mark.parametrize("text", GRAPH)
def test_malformed_graph(monkeypatch, capsys, text):
    for argv in (["compress", "--strategy", "greedy", "-"], ["oracle", "-"]):
        code, err = _piped(monkeypatch, capsys, text, argv)
        _assert_one_line_exit_2(code, err, text)


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
