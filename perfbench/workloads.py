"""The fixed op list of each workload, with the check of each op's output.

CLI ops call dagzip.cli.main(argv) in-process on the set-up's files, as a
user would run the command; the set-cover op calls the public reduction
and oracle API. Every check compares against reference.py or the set-up's
refs.json, never against dagzip itself.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import inputs
import reference

WORKLOADS = ("mst-compressed", "compress-expand", "exact-small")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    outputs: list = field(default_factory=list)  # files removed before each run
    work_bound: int | None = None  # |A| + |E| of an mst input


class Runner:
    """Calls into dagzip for the ops; opens a `cli` span per command when traced."""

    def __init__(self, dagzip, cli, tracer):
        self.api, self.cli_module, self.tracer = dagzip, cli, tracer
        self.traced = False
        self.facts = {}  # compressed_size, recorded by the compress check

    def cli(self, argv, reads=(), writes=()):
        counters = self.tracer.counters
        if self.traced:
            counters["cli.bytes_in"] += sum(os.path.getsize(p) for p in reads)
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span("cli") if self.traced else nullcontext():
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli_module.main([str(a) for a in argv])
        if self.traced:
            counters["cli.bytes_out"] += sum(os.path.getsize(p) for p in writes if os.path.exists(p))
        return code, out.getvalue(), err.getvalue()


def _cli_failure(result):
    code, _, err = result
    return f"exit {code}: {err.strip()[:200]}" if code != 0 else None


def _once_per_output(check):
    """Run an expensive output check once per distinct output; reuse its verdict."""
    verdicts = {}

    def wrapped(paths):
        key = hashlib.sha256(b"".join(p.read_bytes() if p.exists() else b"-" for p in paths)).digest()
        if key not in verdicts:
            verdicts[key] = check()
        return verdicts[key]
    return wrapped


def _mst_op(kind, runner, path, out, ref, check_flag=False):
    argv = ["mst", *(["--check"] if check_flag else []), path, "-o", out]
    verdict = _once_per_output(
        lambda: reference.check_mst_output(out.read_text(), ref["n"], ref["weight"], ref["forest_edges"]))

    def check(result):
        return _cli_failure(result) or verdict([out])
    return Op(kind, lambda: runner.cli(argv, [path], [out]), check, [out], work_bound=ref["size"])


def mst_compressed(data, refs, runner):
    return [
        _mst_op("mst_rook", runner, data / "rook.dagc", data / "rook.mst", refs["rook.dagc"]),
        _mst_op("mst_deep", runner, data / "deep.dagc", data / "deep.mst", refs["deep.dagc"]),
    ]


def compress_expand(data, refs, runner):
    rook = data / "rook48.graph"
    gen, tree, back = data / "gen.graph", data / "tree.dagc", data / "back.graph"
    rook_bytes = rook.read_bytes()
    rook_edges = reference.parse_graph(rook_bytes.decode())[2]

    def same_as_rook(path):
        if not path.exists() or path.read_bytes() != rook_bytes:
            return f"{path.name} differs from the benchmark's own rook g={inputs.ROOK_GRAPH_G} graph text"
        return None

    def tree_check():
        try:
            d = reference.parse_dagc(tree.read_text())
            if not np.array_equal(reference.expand(d), rook_edges):
                return "tree compression does not decompress to the rook graph"
        except ValueError as exc:
            return f"invalid tree compression: {exc}"
        runner.facts["compressed_size"] = d.size
        return None
    tree_verdict = _once_per_output(tree_check)

    g = str(inputs.ROOK_GRAPH_G)
    return [
        Op("generate", lambda: runner.cli(["generate", "rook", "--g", g, "-o", gen], [], [gen]),
           lambda r: _cli_failure(r) or same_as_rook(gen), [gen]),
        Op("compress", lambda: runner.cli(["compress", "--strategy", "tree", gen, "-o", tree], [gen], [tree]),
           lambda r: _cli_failure(r) or tree_verdict([tree]), [tree]),
        Op("decompress", lambda: runner.cli(["decompress", tree, "-o", back], [tree], [back]),
           lambda r: _cli_failure(r) or same_as_rook(back), [back]),
        _mst_op("mst_check", runner, data / "rook60.dagc", data / "rook60.mst", refs["rook60.dagc"], True),
    ]


def _decide_op(runner, path, ref):
    def run():
        api = runner.api
        inst = api.read_setcover(path.read_text())
        out = api.reduce_mindag(inst)
        opt, witness = api.twinned_optimum(out.twinned.sets, inst.n)
        kmin, _ = api.setcover_exhaustive(inst)
        res = {"kmin": kmin, "mindag": opt <= out.k_prime, "witness": witness, "graph": out.graph}
        # The update reductions grow the universe by one; universe 5 is out of budget.
        if inst.n == 3:
            full = frozenset(range(1, inst.n + 2))
            add = api.reduce_add(inst)
            neigh = tuple(s for s in add.family.sets for _ in range(2)) + (full,)
            res["add"] = api.min_bipartite_size(neigh, inst.n + 1)[0] <= add.k_new
            delete = api.reduce_delete(inst)
            neigh = [s for s in delete.family.sets for _ in range(2)]
            j = 2 * delete.full_set_index
            neigh[j] = neigh[j] - {1}
            res["delete"] = api.min_bipartite_size(tuple(neigh), inst.n + 1)[0] <= delete.k_new
        return res

    def check(res):
        want = ref["kmin"] <= ref["k"]
        if res["kmin"] != ref["kmin"]:
            return f"{path.name}: setcover_exhaustive gives {res['kmin']}, reference {ref['kmin']}"
        for name in ("mindag", "add", "delete"):
            if res.get(name, want) != want:
                return f"{path.name}: {name} decision {res[name]}, exhaustive cover says {want}"
        try:
            graph = reference.edge_matrix(res["graph"].n, res["graph"].edges)
            if not np.array_equal(reference.expand(reference.comp_of(res["witness"])), graph):
                return f"{path.name}: optimum witness does not decompress to the reduction graph"
        except ValueError as exc:
            return f"{path.name}: invalid optimum witness: {exc}"
        return None
    return Op("decide", run, check)


def _oracle_op(runner, path, ref, witness):
    k = ref["k"]
    edges = reference.parse_graph(path.read_text())[2]

    def check(result):
        bad = _cli_failure(result)
        if bad:
            return bad
        answer = result[1]
        if answer == f"size <= {k}: no\n":
            if k >= ref["planted"]:
                return f"{path.name}: 'no' at k={k}, but a compression of size {ref['planted']} exists"
            return "witness written on a 'no'" if witness.exists() else None
        if answer != f"size <= {k}: yes\n":
            return f"{path.name}: unexpected output {answer!r}"
        try:
            d = reference.parse_dagc(witness.read_text())
            if d.size > k or not np.array_equal(reference.expand(d), edges):
                return f"{path.name}: witness of size {d.size} is not a compression of the input within {k}"
        except (OSError, ValueError) as exc:
            return f"{path.name}: invalid witness: {exc}"
        return None
    argv = ["oracle", path, "--k", str(k), "--witness", witness]
    return Op("oracle", lambda: runner.cli(argv, [path], [witness]), check, [witness])


def _normalize_op(runner, path, ref, tmp):
    shores = path.with_suffix(".shores")
    stages = [path] + [tmp.with_name(f"{tmp.name}.{p}.dagc") for p in ("twins", "shore", "single-edge")]
    edges = reference.edge_matrix(ref["n"], ref["edges"])

    def run():
        results = []
        for name, src, dst in zip(("twins", "shore", "single-edge"), stages, stages[1:]):
            results.append(runner.cli(["normalize", "--pass", name, "--shores", shores, src, "-o", dst],
                                      [src, shores], [dst]))
        return results

    def check(results):
        for result in results:
            bad = _cli_failure(result)
            if bad:
                return f"{path.name}: {bad}"
        sizes = []
        for stage in stages:
            try:
                d = reference.parse_dagc(stage.read_text())
                if not np.array_equal(reference.expand(d), edges):
                    return f"{stage.name} does not decompress to the twinned incidence graph"
            except ValueError as exc:
                return f"{stage.name}: invalid compression: {exc}"
            sizes.append(d.size)
        if not (sizes[1] <= sizes[0] and sizes[2] <= sizes[1] and sizes[3] == sizes[2]):
            return f"{path.name}: pass sizes {sizes} break never-grow / size-neutral"
        return None
    return Op("normalize", run, check, stages[1:])


def exact_small(data, refs, runner):
    names = sorted(refs)
    ops = [_decide_op(runner, data / n, refs[n]) for n in names if n.endswith(".setcover")]
    ops += [_oracle_op(runner, data / n, refs[n], data / f"{n}.witness.dagc")
            for n in names if n.endswith(".graph")]
    ops += [_normalize_op(runner, data / n, refs[n], data / f"{n}.out")
            for n in names if n.startswith("nm") and n.endswith(".dagc")]
    return ops


def build(workload, data, refs, runner):
    return {"mst-compressed": mst_compressed, "compress-expand": compress_expand,
            "exact-small": exact_small}[workload](data, refs, runner)
