import contextlib
import csv
import hashlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_formats import _mutated, compression_texts, graph_texts, shore_texts

from dagzip import (
    DagCompression,
    MstResult,
    MstStats,
    SetCoverInstance,
    decompress,
    kruskal_compressed,
    random_compression,
    read_compression,
    read_graph,
    validate,
    write_compression,
    write_setcover,
    write_shores,
)
from dagzip import compression, graphs, heuristics
from dagzip.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def mst_file(tmp_path, mst_compression):
    path = tmp_path / "fig.dagc"
    path.write_text(write_compression(mst_compression), encoding="ascii")
    return str(path)


def test_mst_check_ok(mst_file, capsys, tmp_path):
    out_path = tmp_path / "out.mst"
    code, out, err = run_cli(["mst", mst_file, "--check", "-o", str(out_path)], capsys)
    assert code == 0, err
    text = out_path.read_text()
    assert text.splitlines()[0] == "mst 7 6 7"


def test_mst_deterministic(mst_file, capsys):
    code1, out1, _ = run_cli(["mst", mst_file], capsys)
    code2, out2, _ = run_cli(["mst", mst_file], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_mst_baseline_agrees(mst_file, capsys):
    _, compressed, _ = run_cli(["mst", mst_file], capsys)
    _, baseline, _ = run_cli(["mst", mst_file, "--baseline"], capsys)
    head_c = compressed.splitlines()[0].split()
    head_b = baseline.splitlines()[0].split()
    assert head_c[3] == head_b[3] == "7"


def test_validate_ok_and_exit_codes(tmp_path, capsys, mst_compression):
    good = tmp_path / "good.dagc"
    good.write_text(write_compression(mst_compression), encoding="ascii")
    code, out, _ = run_cli(["validate", str(good)], capsys)
    assert code == 0 and out.startswith("ok")
    bad = tmp_path / "bad.dagc"
    bad.write_text(
        "dagc directed\nsinks 2\nclusters 1\narcs 1\na 1 3\ncedges 0\n",
        encoding="ascii",
    )
    code, out, _ = run_cli(["validate", str(bad)], capsys)
    assert code == 2
    assert "violation" in out


def test_invalid_compression_exits_2_from_mst(tmp_path, capsys):
    bad = tmp_path / "bad.dagc"
    bad.write_text(
        "dagc undirected weighted\nsinks 2\nclusters 1\narcs 0\ncedges 1\nc 1 2 4\n",
        encoding="ascii",
    )
    code, _, err = run_cli(["mst", str(bad)], capsys)
    assert code == 2
    assert "invalid" in err or "error" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_decompress_roundtrip(tmp_path, capsys, fig_compression):
    src = tmp_path / "fig.dagc"
    src.write_text(write_compression(fig_compression), encoding="ascii")
    out_path = tmp_path / "fig.graph"
    code, _, _ = run_cli(["decompress", str(src), "-o", str(out_path)], capsys)
    assert code == 0
    g = read_graph(out_path.read_text())
    assert g.n == 8 and g.has_edge(1, 3)


def test_generate_validate_decompress_compress_pipeline(tmp_path, capsys):
    comp = tmp_path / "rook.dagc"
    code, _, _ = run_cli(
        ["generate", "rook", "--g", "5", "--compress", "-o", str(comp)], capsys)
    assert code == 0
    code, _, _ = run_cli(["validate", str(comp)], capsys)
    assert code == 0
    graph = tmp_path / "rook.graph"
    code, _, _ = run_cli(["decompress", str(comp), "-o", str(graph)], capsys)
    assert code == 0
    re_comp = tmp_path / "rook2.dagc"
    code, _, _ = run_cli(
        ["compress", "--strategy", "greedy", str(graph), "-o", str(re_comp)], capsys)
    assert code == 0
    code, _, _ = run_cli(["validate", str(re_comp)], capsys)
    assert code == 0


def test_generate_random_seed_env(tmp_path, capsys, monkeypatch):
    out = tmp_path / "g.graph"
    monkeypatch.setenv("DAGZIP_SEED", "5")
    run_cli(["generate", "random", "--n", "6", "--p", "0.5", "-o", str(out)], capsys)
    first = out.read_text()
    run_cli(["generate", "random", "--n", "6", "--p", "0.5", "-o", str(out)], capsys)
    assert out.read_text() == first
    run_cli(["generate", "random", "--n", "6", "--p", "0.5", "--seed", "6",
             "-o", str(out)], capsys)
    assert out.read_text() != first


def test_generate_random_compression_validates(tmp_path, capsys):
    out = tmp_path / "rc.dagc"
    code, _, _ = run_cli(
        ["generate", "random-compression", "--sinks", "9", "--clusters", "4",
         "--edges", "7", "--seed", "3", "-o", str(out)], capsys)
    assert code == 0
    code, _, _ = run_cli(["validate", str(out)], capsys)
    assert code == 0


@pytest.mark.parametrize("density", ["0", "-4", "1.5"])
def test_generate_random_compression_rejects_bad_density(tmp_path, capsys, density):
    out = tmp_path / "rc.dagc"
    code, _, err = run_cli(
        ["generate", "random-compression", "--sinks", "9", "--clusters", "4", "--edges", "7",
         f"--arc-density={density}", "-o", str(out)], capsys)
    assert code == 2 and err == "error: arc density must lie in (0, 1]\n"
    assert not out.exists()


def test_out_of_memory_exits_2(mst_file, capsys, monkeypatch):
    def exhausted(d):
        raise MemoryError

    monkeypatch.setattr("dagzip.cli.decompress", exhausted)
    for args in (["decompress", mst_file], ["mst", mst_file, "--baseline"]):
        assert run_cli(args, capsys) == (2, "", "error: out of memory\n")


def test_oracle_cli_k22(tmp_path, capsys):
    g = tmp_path / "k22.graph"
    g.write_text("graph directed 4 4\ne 1 3\ne 1 4\ne 2 3\ne 2 4\n", encoding="ascii")
    wit = tmp_path / "w.dagc"
    code, out, _ = run_cli(["oracle", str(g), "--witness", str(wit)], capsys)
    assert code == 0
    assert "minimum compression size: 4" in out
    assert read_compression(wit.read_text()).size() == 4


def test_oracle_cli_decision(tmp_path, capsys):
    g = tmp_path / "e.graph"
    g.write_text("graph directed 2 1\ne 1 2\n", encoding="ascii")
    code, out, _ = run_cli(["oracle", str(g), "--k", "0"], capsys)
    assert code == 0 and "no" in out
    code, out, _ = run_cli(["oracle", str(g), "--k", "1"], capsys)
    assert code == 0 and "yes" in out


def test_reduce_cli_mindag(tmp_path, capsys):
    inst = SetCoverInstance(n=2, sets=(frozenset({1}), frozenset({2})), k=1)
    src = tmp_path / "sc.txt"
    src.write_text(write_setcover(inst), encoding="ascii")
    prefix = str(tmp_path / "red")
    code, out, _ = run_cli(["reduce", "mindag", str(src), "--out-prefix", prefix], capsys)
    assert code == 0
    g = read_graph((tmp_path / "red.graph").read_text())
    assert g.n == 2 + 2 * 3
    meta = (tmp_path / "red.meta").read_text()
    assert "k_prime" in meta and "m_closure 2" in meta


def test_reduce_cli_add_and_delete(tmp_path, capsys):
    inst = SetCoverInstance(n=2, sets=(frozenset({1}), frozenset({2})), k=2)
    src = tmp_path / "sc.txt"
    src.write_text(write_setcover(inst), encoding="ascii")
    for problem in ("add", "delete"):
        prefix = str(tmp_path / problem)
        code, _, _ = run_cli(["reduce", problem, str(src), "--out-prefix", prefix], capsys)
        assert code == 0
        comp = read_compression((tmp_path / f"{problem}.dagc").read_text())
        code, _, _ = run_cli(["validate", str(tmp_path / f"{problem}.dagc")], capsys)
        assert code == 0
        assert comp.size() > 0



# sha256 over stdout and the written files of `dagzip reduce` on the worked
# example, taken from the implementation with one write branch per problem.
REDUCE_CLI_DIGEST = "742b00f10f65844f77714ae3f3eb151e3b28400a98c55c6865afa5e59bf92e4b"


def test_reduce_cli_outputs_pinned(tmp_path, capsys):
    inst = SetCoverInstance(
        n=7, sets=(frozenset({1, 4, 5, 6}), frozenset({2, 3, 5, 7})), k=2
    )
    src = tmp_path / "sc.txt"
    src.write_text(write_setcover(inst), encoding="ascii")
    h = hashlib.sha256()
    for problem in ("mindag", "add", "delete"):
        prefix = tmp_path / problem
        argv = ["reduce", problem, str(src), "--out-prefix", str(prefix)]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        h.update(out.replace(str(tmp_path), "DIR").encode())
        for ext in ("graph", "dagc", "meta"):
            path = tmp_path / f"{problem}.{ext}"
            h.update(path.read_bytes() if path.exists() else b"-")
    assert h.hexdigest() == REDUCE_CLI_DIGEST

def test_normalize_cli(tmp_path, capsys):
    from dagzip import twinned_incidence, DagCompression

    sets = (frozenset({1, 2}), frozenset({2}))
    tg = twinned_incidence(sets, 2)
    d = DagCompression(directed=True, n_sinks=tg.graph.n, n_clusters=0,
                       arcs=frozenset(), cedges=tg.graph.edges)
    comp = tmp_path / "t.dagc"
    comp.write_text(write_compression(d), encoding="ascii")
    shores = tmp_path / "t.shores"
    shores.write_text(write_shores(tg.shores), encoding="ascii")
    out = tmp_path / "out.dagc"
    for pass_name in ("twins", "shore", "single-edge"):
        code, _, err = run_cli(
            ["normalize", "--pass", pass_name, "--shores", str(shores),
             str(comp), "-o", str(out)], capsys)
        assert code == 0, err
    normalized = read_compression(out.read_text())
    assert normalized.size() == d.size()


@pytest.mark.parametrize("pass_name", ["twins", "shore", "single-edge"])
def test_normalize_cli_refuses_weighted(tmp_path, capsys, pass_name):
    # twins 1 and 2 reach {3, 4} by a weight-1 cluster edge and two weight-5 edges
    comp = tmp_path / "w.dagc"
    comp.write_text("dagc undirected weighted\nsinks 4\nclusters 1\narcs 2\na 5 3\na 5 4\n"
                    "cedges 3\nc 1 5 1\nc 2 3 5\nc 2 4 5\n")
    shores = tmp_path / "w.shores"
    shores.write_text("shore1 2 1 2\nshore2 2 3 4\n")
    out = tmp_path / "out.dagc"
    code, _, err = run_cli(["normalize", "--pass", pass_name, "--shores", str(shores),
                            str(comp), "-o", str(out)], capsys)
    _one_line_error(code, err, "is defined for unweighted compressions")
    assert not out.exists()



def _normalize_files(tmp_path, dagc, shores):
    comp, shore_file = tmp_path / "in.dagc", tmp_path / "in.shores"
    comp.write_text(dagc, encoding="ascii")
    shore_file.write_text(shores, encoding="ascii")
    return str(comp), str(shore_file)


def _normalize_chain(tmp_path, capsys, comp, shores, passes):
    """Run the passes in turn from comp; the last output as a compression."""
    for i, pass_name in enumerate(passes):
        out = str(tmp_path / f"out{i}.dagc")
        code, _, err = run_cli(["normalize", "--pass", pass_name, "--shores", shores, comp, "-o", out], capsys)
        assert code == 0, err
        comp = out
    return read_compression((tmp_path / f"out{len(passes) - 1}.dagc").read_text())


def test_normalize_cli_keeps_twins_joined_by_edges(tmp_path, capsys):
    # 1 and 2 are twins with loops and edges both ways, all of shore1
    comp, shores = _normalize_files(tmp_path, "dagc directed\nsinks 2\nclusters 0\narcs 0\n"
                                    "cedges 4\nc 1 1\nc 1 2\nc 2 1\nc 2 2\n", "shore1 2 1 2\nshore2 0\n")
    out = _normalize_chain(tmp_path, capsys, comp, shores, ["twins"])
    assert out == read_compression(open(comp).read())


def test_normalize_cli_twins_output_is_valid(tmp_path, capsys):
    # mirroring twin 4 onto 3 leaves clusters 5 and 6 with no child
    comp, shores = _normalize_files(tmp_path, "dagc directed\nsinks 4\nclusters 3\narcs 4\n"
                                    "a 5 3\na 6 3\na 7 1\na 7 2\ncedges 3\nc 4 7\nc 5 1\nc 6 2\n",
                                    "shore1 2 3 4\nshore2 2 1 2\n")
    out = _normalize_chain(tmp_path, capsys, comp, shores, ["twins"])
    assert validate(out) == []
    assert decompress(out) == decompress(read_compression(open(comp).read()))
    assert out.size() <= 7


def test_normalize_cli_chain_on_a_twin_class(tmp_path, capsys):
    # sources 3, 4 and 5 each reach sinks 1 and 2: three twin pairs, one class
    cedges = "".join(f"c {t} {y}\n" for t in (3, 4, 5) for y in (1, 2))
    comp, shores = _normalize_files(tmp_path, f"dagc directed\nsinks 5\nclusters 0\narcs 0\ncedges 6\n{cedges}",
                                    "shore1 3 3 4 5\nshore2 2 1 2\n")
    out = _normalize_chain(tmp_path, capsys, comp, shores, ["twins", "shore", "single-edge"])
    assert validate(out) == []
    assert decompress(out) == decompress(read_compression(open(comp).read()))
    assert out.cedges == frozenset({(3, 6), (4, 6), (5, 6)}) and out.size() == 5


@pytest.mark.parametrize("command", ["compress", "normalize"])
def test_produced_compression_is_validated(tmp_path, capsys, monkeypatch, command):
    import dagzip.cli as cli_mod

    invalid = DagCompression(directed=True, n_sinks=2, n_clusters=1, arcs=[], cedges=[(1, 2)])
    monkeypatch.setattr(cli_mod.heuristics, "tree_compress", lambda g, merge_policy: invalid)
    monkeypatch.setattr(cli_mod.normalize, "twin_normalize", lambda d, pairs: invalid)
    comp, shores = _normalize_files(tmp_path, "dagc directed\nsinks 2\nclusters 0\narcs 0\ncedges 1\nc 1 2\n",
                                    "shore1 1 1\nshore2 1 2\n")
    graph = tmp_path / "in.graph"
    graph.write_text("graph directed 2 1\ne 1 2\n", encoding="ascii")
    out = tmp_path / "out.dagc"
    argv = {"compress": ["compress", "--strategy", "tree", str(graph)],
            "normalize": ["normalize", "--pass", "twins", "--shores", shores, comp]}[command]
    code, _, err = run_cli(argv + ["-o", str(out)], capsys)
    assert (code, err) == (3, "error: produced compression failed validation\n")
    assert not out.exists()

def test_gap_cli(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    code, _, _ = run_cli(["gap", "--g", "2,4", "--policy", "balanced",
                          "--out", str(out)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "g"
    assert len(rows) == 3


def test_help_runs(capsys):
    assert main(["--help"]) == 0
    assert main(["mst", "--help"]) == 0


def test_reused_parser_keeps_no_state(mst_file, tmp_path, capsys):
    assert build_parser() is build_parser()
    checked = tmp_path / "checked.mst"
    code, _, err = run_cli(["mst", "--check", mst_file, "-o", str(checked)], capsys)
    assert code == 0, err
    # neither --check nor -o carries over: the next call prints to stdout
    args = build_parser().parse_args(["mst", mst_file])
    assert (args.check, args.baseline, args.output) == (False, False, None)
    code, out, _ = run_cli(["mst", mst_file], capsys)
    assert code == 0 and out == checked.read_text()
    code, _, err = run_cli(["mst"], capsys)  # a usage error, then a valid call
    assert code == 2 and err.startswith("usage: dagzip mst")
    assert run_cli(["mst", mst_file], capsys) == (0, out, "")
    assert main(["--help"]) == 0
    first = capsys.readouterr().out
    assert main(["--help"]) == 0 and capsys.readouterr().out == first


def test_weight_mismatch_exits_3(mst_file, capsys, monkeypatch):
    import dagzip.cli as cli_mod

    def heavier(d):
        res = kruskal_compressed(d)
        a, b, w = res.edges[-1]
        return MstResult(res.edges[:-1] + [(a, b, w + 1)], res.total_weight + 1, res.stats)

    monkeypatch.setattr(cli_mod, "kruskal_compressed", heavier)
    code, out, err = run_cli(["mst", mst_file, "--check"], capsys)
    assert (code, out, err) == (3, "", "error: forest not certified minimum: compression edge (8, 10) "
                                       "at weight 2 crosses forest edge (1, 7) at weight 3\n")


def test_forest_size_mismatch_exits_3(mst_file, capsys, monkeypatch):
    import dagzip.cli as cli_mod

    def one_edge_short(d):
        res = kruskal_compressed(d)
        return MstResult(res.edges[:-1], res.total_weight, res.stats)  # total_weight still the right one

    monkeypatch.setattr(cli_mod, "kruskal_compressed", one_edge_short)
    code, out, err = run_cli(["mst", mst_file, "--check"], capsys)
    assert (code, out, err) == (3, "", "error: forest not certified minimum: "
                                       "compression edge (8, 10) joins two of its trees\n")


# The fig forest is (1, 4), (2, 4), (3, 4), (1, 5), (1, 6) at 1 and (1, 7) at 2;
# each case swaps one edge and states the forest's total weight.
@pytest.mark.parametrize("old, new, total, why", [
    ((1, 7, 2), (4, 7, 2), 7, "forest edge (4, 7) at weight 2 is no link of compressed Kruskal"),
    ((1, 4, 1), (2, 7, 2), 8, "compression edge (8, 9) at weight 1 crosses forest edge (1, 7) at weight 2"),
    ((1, 7, 2), (1, 7, 2), 8, "its edges weigh 7, not 8"),
], ids=["in-no-product", "heavier-swap", "header-weight"])
def test_mutated_forest_exits_3_in_one_line(mst_file, capsys, monkeypatch, old, new, total, why):
    import dagzip.cli as cli_mod

    def mutated(d):
        res = kruskal_compressed(d)
        edges = res.edges[:]
        edges[edges.index(old)] = new
        return MstResult(edges, total, res.stats)

    monkeypatch.setattr(cli_mod, "kruskal_compressed", mutated)
    for flags in (["--check"], ["--baseline", "--check"]):
        assert run_cli(["mst", *flags, mst_file], capsys) == (
            3, "", f"error: forest not certified minimum: {why}\n")


def test_baseline_check_still_compares_with_the_baseline(mst_file, capsys, monkeypatch):
    import dagzip.cli as cli_mod

    monkeypatch.setattr(cli_mod, "kruskal_baseline", lambda g: MstResult([], 7, MstStats()))
    code, out, err = run_cli(["mst", "--baseline", "--check", mst_file], capsys)
    assert (code, out, err) == (3, "", "error: forest size mismatch: compressed 6, baseline 0\n")
    assert run_cli(["mst", "--check", mst_file], capsys)[0] == 0  # the certified forest itself is fine


def test_mst_path_reads_the_forest_array(tmp_path, capsys, monkeypatch):
    """mst, its certificate and its baseline comparison read the forest as
    an array and its size by len: no command indexes or iterates the view."""
    from dagzip import rook_mst_compression
    from dagzip.mst import ForestView

    path = tmp_path / "rook.dagc"
    path.write_text(write_compression(rook_mst_compression(40, 5, 1)), encoding="ascii")
    flag_sets = [[], ["--check"], ["--baseline"], ["--baseline", "--check"]]

    def outputs():
        for i, flags in enumerate(flag_sets):
            out = tmp_path / f"{i}.mst"
            assert run_cli(["mst", str(path), *flags, "-o", str(out)], capsys) == (0, "", "")
            yield out.read_bytes()

    before = list(outputs())

    def fail(*args):
        raise AssertionError("the forest view was indexed or iterated")

    monkeypatch.setattr(ForestView, "__iter__", fail)
    monkeypatch.setattr(ForestView, "__getitem__", fail)
    assert list(outputs()) == before
    assert before[0] == before[1] == before[3] != before[2]  # --baseline alone writes Borůvka's forest
    assert all(text.startswith(b"mst 1600 1599 3615\n") for text in before)


def test_unwritable_output_exits_2(mst_file, capsys, tmp_path):
    out = tmp_path / "missing" / "dir" / "out.mst"
    code, _, err = run_cli(["mst", mst_file, "-o", str(out)], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: cannot write")


def test_mst_check_runs_each_pipeline_once(mst_file, capsys, monkeypatch):
    import dagzip.cli as cli_mod

    calls = []
    for name in ("kruskal_compressed", "certify_forest", "kruskal_baseline", "decompress"):
        def counted(*args, _orig=getattr(cli_mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cli_mod, name, counted)
    # --check certifies on the compressed form; only --baseline expands
    for flags, expected in ((["--check"], ["certify_forest", "kruskal_compressed"]),
                            (["--baseline", "--check"],
                             ["certify_forest", "decompress", "kruskal_baseline", "kruskal_compressed"])):
        calls.clear()
        code, out, err = run_cli(["mst", *flags, mst_file], capsys)
        assert code == 0, err
        assert out.startswith("mst 7 6 7\n")
        assert sorted(calls) == expected


def _one_line_error(code, err, needle):
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert needle in err


@pytest.mark.parametrize("tag", ["sinks", "clusters", "arcs", "cedges"])
def test_negative_count_compression(tmp_path, capsys, tag):
    counts = {"sinks": 2, "clusters": 0, "arcs": 0, "cedges": 0}
    counts[tag] = -1
    path = tmp_path / "neg.dagc"
    path.write_text("dagc directed\n" + "".join(f"{t} {k}\n" for t, k in counts.items()))
    for command in (["validate"], ["decompress"]):
        code, out, err = run_cli([*command, str(path)], capsys)
        _one_line_error(code, err, f"negative count -1 in {tag!r} line")
        assert out == ""


@pytest.mark.parametrize("header", ["graph directed -1 0", "graph undirected 3 -2"])
def test_negative_count_graph(tmp_path, capsys, header):
    path = tmp_path / "neg.graph"
    path.write_text(header + "\n")
    code, _, err = run_cli(["compress", "--strategy", "greedy", str(path)], capsys)
    _one_line_error(code, err, "negative count")


@pytest.mark.parametrize("header", ["setcover 2 -1 1", "setcover -2 0 0"])
def test_negative_count_setcover(tmp_path, capsys, header):
    path = tmp_path / "neg.setcover"
    path.write_text(header + "\n")
    code, _, err = run_cli(["reduce", "mindag", str(path), "--out-prefix",
                            str(tmp_path / "red")], capsys)
    _one_line_error(code, err, "negative count")
    assert not list(tmp_path.glob("red.*"))


def test_negative_count_shores(tmp_path, capsys, fig_compression):
    comp = tmp_path / "fig.dagc"
    comp.write_text(write_compression(fig_compression), encoding="ascii")
    shores = tmp_path / "neg.shores"
    shores.write_text("shore1 -1\nshore2 0\n")
    code, _, err = run_cli(["normalize", "--pass", "twins", "--shores", str(shores),
                            str(comp)], capsys)
    _one_line_error(code, err, "negative count -1 in 'shore1' line")


# Refusals that no other CLI test reaches: each test asserts the exit code
# and the whole stderr line.
WEIGHTED_GRAPH = "graph undirected 2 1 weighted\ne 1 2 5\n"


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_unreadable_input_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing.dagc")
    assert run_cli(["validate", path], capsys) == (
        2, "", f"error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n")


def test_mst_refuses_unweighted(tmp_path, capsys, fig_compression):
    comp = _file(tmp_path, "fig.dagc", write_compression(fig_compression))
    assert run_cli(["mst", comp], capsys) == (
        2, "", "error: mst needs a weighted undirected compression\n")


def test_generate_rook_compress_refuses_no_loops(tmp_path, capsys):
    out = tmp_path / "rook.dagc"
    argv = ["generate", "rook", "--g", "3", "--compress", "--no-loops", "-o", str(out)]
    assert run_cli(argv, capsys) == (
        2, "", "error: the canonical rook compression exists only with loops on\n")
    assert not out.exists()


def test_reduce_refuses_a_collection_that_misses_the_universe(tmp_path, capsys):
    inst = SetCoverInstance(n=3, sets=(frozenset({1}), frozenset({2})), k=1)
    src = _file(tmp_path, "sc.txt", write_setcover(inst))
    for problem in ("mindag", "add", "delete"):
        argv = ["reduce", problem, src, "--out-prefix", str(tmp_path / "red")]
        assert run_cli(argv, capsys) == (2, "", "error: collection does not cover the universe\n")
    assert not list(tmp_path.glob("red.*"))


@pytest.mark.parametrize("extra", [[], ["--k", "3"]])
def test_oracle_refuses_weighted(tmp_path, capsys, extra):
    g = _file(tmp_path, "w.graph", WEIGHTED_GRAPH)
    assert run_cli(["oracle", g, *extra], capsys) == (
        2, "", "error: the oracle works on unweighted graphs\n")


@pytest.mark.parametrize("extra", [[], ["--k", "3"]])
def test_oracle_refuses_over_budget(tmp_path, capsys, extra):
    g = _file(tmp_path, "five.graph", "graph directed 5 1\ne 1 2\n")
    assert run_cli(["oracle", g, *extra], capsys) == (
        2, "", "error: 5 sinks exceed the budget of 4\n")
    assert run_cli(["oracle", g, "--max-sinks", "3", *extra], capsys) == (
        2, "", "error: 5 sinks exceed the budget of 3\n")


def test_oracle_decision_writes_the_witness_only_on_yes(tmp_path, capsys):
    g = _file(tmp_path, "k22.graph", "graph directed 4 4\ne 1 3\ne 1 4\ne 2 3\ne 2 4\n")
    no, yes = tmp_path / "no.dagc", tmp_path / "yes.dagc"
    assert run_cli(["oracle", g, "--k", "3", "--witness", str(no)], capsys) == (
        0, "size <= 3: no\n", "")
    assert not no.exists()
    assert run_cli(["oracle", g, "--k", "4", "--witness", str(yes)], capsys) == (
        0, "size <= 4: yes\n", "")
    witness = read_compression(yes.read_text())
    assert witness.size() == 4 and validate(witness) == []
    assert decompress(witness) == read_graph(open(g).read())


@pytest.mark.parametrize("strategy", ["tree", "greedy"])
def test_compress_refuses_weighted(tmp_path, capsys, strategy):
    g = _file(tmp_path, "w.graph", WEIGHTED_GRAPH)
    out = tmp_path / "out.dagc"
    argv = ["compress", "--strategy", strategy, g, "-o", str(out)]
    assert run_cli(argv, capsys) == (
        2, "", "error: compression strategies work on unweighted graphs\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    (["generate", "rook", "--g", "0"], "side length must be >= 1"),
    (["generate", "rook", "--g", "3", "--d", "1"], "dimension must be >= 2"),
    (["generate", "random-compression", "--sinks", "0", "--clusters", "1", "--edges", "1"],
     "parameters must be positive"),
])
def test_generate_refuses_bad_parameters(tmp_path, capsys, argv, line):
    out = tmp_path / "out"
    assert run_cli([*argv, "-o", str(out)], capsys) == (2, "", f"error: {line}\n")
    assert not out.exists()


def test_tree_compress_refuses_an_empty_graph(tmp_path, capsys):
    g = _file(tmp_path, "empty.graph", "graph directed 0 0\n")
    assert run_cli(["compress", "--strategy", "tree", g], capsys) == (
        2, "", "error: need at least one vertex\n")


def test_oracle_refuses_a_non_positive_budget(tmp_path, capsys):
    g = _file(tmp_path, "g.graph", "graph directed 2 1\ne 1 2\n")
    assert run_cli(["oracle", g, "--max-sinks", "0"], capsys) == (
        2, "", "error: max_sinks must be positive\n")


def test_gap_refuses_a_non_integer_entry(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    assert run_cli(["gap", "--g", "2,x", "--out", str(out)], capsys) == (
        2, "", "error: bad --g list '2,x'\n")
    assert not out.exists()


def test_library_value_errors_exit_2_in_their_own_words(tmp_path, capsys, monkeypatch,
                                                        mst_file, fig_compression):
    import dagzip.cli as cli_mod

    comp = _file(tmp_path, "directed.dagc", write_compression(fig_compression))
    graph = _file(tmp_path, "g.graph", "graph directed 2 1\ne 1 2\n")
    inst = SetCoverInstance(n=2, sets=(frozenset({1}), frozenset({2})), k=1)
    sc = _file(tmp_path, "sc.txt", write_setcover(inst))
    shores = _file(tmp_path, "fig.shores", "shore1 1 1\nshore2 1 2\n")
    out = str(tmp_path / "out")
    cases = [
        (cli_mod, "validate", ["validate", comp]),
        (cli_mod, "decompress", ["decompress", comp]),
        (cli_mod, "kruskal_compressed", ["mst", mst_file]),
        (cli_mod.generators, "rook_graph", ["generate", "rook", "--g", "2"]),
        (cli_mod.generators, "rook_canonical_compression", ["generate", "rook", "--g", "2", "--compress"]),
        (cli_mod.generators, "random_graph", ["generate", "random", "--n", "2", "--p", "0.5"]),
        (cli_mod.generators, "random_compression",
         ["generate", "random-compression", "--sinks", "2", "--clusters", "1", "--edges", "1"]),
        (cli_mod.reductions, "reduce_mindag", ["reduce", "mindag", sc, "--out-prefix", out]),
        (cli_mod.reductions, "reduce_add", ["reduce", "add", sc, "--out-prefix", out]),
        (cli_mod.reductions, "reduce_delete", ["reduce", "delete", sc, "--out-prefix", out]),
        (cli_mod.normalize, "twin_normalize", ["normalize", "--pass", "twins", "--shores", shores, comp]),
        (cli_mod.normalize, "shore_normalize", ["normalize", "--pass", "shore", "--shores", shores, comp]),
        (cli_mod.normalize, "twin_single_edge",
         ["normalize", "--pass", "single-edge", "--shores", shores, comp]),
        (cli_mod.oracle, "min_dag_size", ["oracle", graph]),
        (cli_mod.oracle, "decide_mindag", ["oracle", graph, "--k", "1"]),
        (cli_mod.heuristics, "tree_compress", ["compress", "--strategy", "tree", graph]),
        (cli_mod.heuristics, "dag_compress_greedy", ["compress", "--strategy", "greedy", graph]),
        (cli_mod.heuristics, "gap_experiment", ["gap", "--g", "2", "--out", out]),
    ]

    def boom(*args, **kwargs):
        raise ValueError("boom")

    for owner, name, argv in cases:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, boom)
            assert run_cli(argv, capsys) == (2, "", "error: boom\n"), name
    assert not list(tmp_path.glob("out*"))


# One fault each: the arc lines and the one compression edge's endpoints.
INVALID_COMPRESSIONS = {
    "cycle in cluster DAG": ("sinks 2\nclusters 2\narcs 3\na 3 1\na 3 4\na 4 3\n", "3 2"),
    "original vertex 1 has outgoing arc": ("sinks 2\nclusters 1\narcs 2\na 1 3\na 3 2\n", "3 2"),
    "cluster vertex 3 with no outgoing arc": ("sinks 2\nclusters 1\narcs 0\n", "1 3"),
}


@pytest.mark.parametrize("violation", list(INVALID_COMPRESSIONS))
@pytest.mark.parametrize("argv", [["decompress"], ["mst"], ["mst", "--baseline"], ["mst", "--check"],
                                  *(["normalize", "--pass", p] for p in ("twins", "shore", "single-edge"))])
def test_loading_commands_refuse_an_invalid_compression(tmp_path, capsys, violation, argv):
    # mst reads a weighted undirected file, the other commands an unweighted directed one
    arcs, cedge = INVALID_COMPRESSIONS[violation]
    text = (f"dagc undirected weighted\n{arcs}cedges 1\nc {cedge} 5\n" if argv[0] == "mst"
            else f"dagc directed\n{arcs}cedges 1\nc {cedge}\n")
    comp = _file(tmp_path, "bad.dagc", text)
    if argv[0] == "normalize":
        argv = [*argv, "--shores", _file(tmp_path, "bad.shores", "shore1 1 1\nshore2 1 2\n")]
    out = tmp_path / "out"
    assert run_cli([*argv, comp, "-o", str(out)], capsys) == (
        2, "", f"error: invalid compression: {violation}\n")
    assert not out.exists()


# Every command that reads a file, with the reader it goes through first.
FUZZ_COMMANDS = [
    (["validate"], "dagc"), (["decompress"], "dagc"), (["mst"], "dagc"), (["mst", "--check"], "dagc"),
    (["mst", "--baseline", "--check"], "dagc"),
    *((["normalize", "--pass", p], "dagc") for p in ("twins", "shore", "single-edge")),
    *((["compress", "--strategy", "tree", "--policy", p], "graph") for p in ("similarity", "balanced")),
    (["compress", "--strategy", "greedy"], "graph"), (["oracle"], "graph"),
]
# The size guards, set so small that the fuzz's inputs meet them (tree: 16 n^2 bytes, n <= 5).
FUZZ_LIMITS = [(graphs, "MAX_VERTICES", 10), (compression, "MAX_CLUSTER_MEMBERS", 12),
               (compression, "MAX_CLUSTER_TABLE_BYTES", 3000), (compression, "MAX_EXPANDED_PAIRS", 20),
               (heuristics, "MAX_TREE_MATRIX_BYTES", 400)]
# MAX_VERTICES is 10 here.
ADVERSARIAL = {
    "dagc": [
        "dagc directed\nsinks 2\nclusters 1\narcs 3\na 1 3\na 3 1\na 3 2\ncedges 1\nc 1 2\n",  # a cycle through a sink
        "dagc undirected weighted\nsinks 2\nclusters 1\narcs 1\na 1 2\ncedges 1\nc 1 2 3\n",  # a sink's arc, no cycle
        "dagc undirected weighted\nsinks 2\nclusters 1\narcs 0\ncedges 1\nc 3 3 1\n",  # a childless cluster
        "dagc undirected\nsinks 3\nclusters 1\narcs 2\na 4 1\na 4 2\ncedges 1\nc 3 4\n",  # unweighted to mst
        "dagc undirected weighted\nsinks 9\nclusters 1\narcs 2\na 10 1\na 10 9\ncedges 2\n"
        "c 1 10 9223372036854775807\nc 9 10 0\n",  # ids and weight at the limits
        "dagc undirected weighted\nsinks 10\nclusters 1\narcs 0\ncedges 0\n",  # a vertex too many
        "dagc directed\nsinks 4\nclusters 2\narcs 4\na 5 1\na 5 2\na 6 3\na 6 4\ncedges 1\nc 5 6\n",
    ],
    "graph": ["graph directed 10 2\ne 1 10\ne 10 1\n", "graph directed 11 0\n",
              "graph undirected 3 1 weighted\ne 1 2 5\n", "graph directed 6 2\ne 1 2\ne 3 4\n"],
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_keeps_the_exit_code_contract(data):
    """Any command on a broken or adversarial input exits 0, 2 or 3, says
    why in exactly one stderr line when it fails (validate lists violations
    on stdout instead), and lets no exception escape."""
    argv, kind = data.draw(st.sampled_from(FUZZ_COMMANDS))
    texts = graph_texts() if kind == "graph" else st.one_of(compression_texts(), st.builds(
        lambda seed: (write_compression(random_compression(1 + seed % 6, seed % 4, 0.5, 1 + seed % 5, 5, seed)),),
        st.integers(0, 999)))  # valid and weighted: mst gets past its checks
    text = data.draw(st.one_of(_mutated(texts), st.sampled_from(ADVERSARIAL[kind])))
    shores = data.draw(st.one_of(  # a partition of the first 4 sinks, the adversarial file's shores
        st.just("shore1 2 1 2\nshore2 2 3 4\n"), _mutated(shore_texts())))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for module, name, limit in FUZZ_LIMITS:
            patch.setattr(module, name, limit)
        (Path(tmp) / "in").write_text(text, encoding="utf-8")  # a non-ascii token is a bad file
        (Path(tmp) / "shores").write_text(shores, encoding="utf-8")
        if argv[0] == "normalize":
            argv = [*argv, "--shores", str(Path(tmp) / "shores")]
        if argv[0] not in ("validate", "oracle"):
            argv = [*argv, "-o", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(Path(tmp) / "in")])
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, text, err)
    if code == 0 or (argv[0] == "validate" and not err):
        assert err == ""
        if code:
            assert out.getvalue() and all(line.startswith("violation: ")
                                          for line in out.getvalue().splitlines())
    else:
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, text, err)
