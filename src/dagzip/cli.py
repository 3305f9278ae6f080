"""The dagzip command line: every subsystem behind one executable.

Exit codes: 0 success, 2 input or usage error, 3 contract violation
(weight mismatch under --check, validation failure of a produced artifact).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time

from . import generators, heuristics, normalize, oracle, reductions
from .compression import (
    CompressionFormatError,
    decompress,
    read_compression,
    validate,
    write_compression,
)
from .graphs import (
    GraphFormatError,
    Graph,
    WeightedGraph,
    read_graph,
    read_shores,
    twins,
    write_graph,
)
from .mst import kruskal_baseline, kruskal_compressed, write_mst
from .reductions import SetCoverFormatError, read_setcover

USAGE_ERROR = 2
CONTRACT_ERROR = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_compression(path: str, check: bool = True):
    try:
        d = read_compression(_read_text(path))
    except (CompressionFormatError, ValueError) as exc:
        raise CliError(f"bad compression file: {exc}") from exc
    if check:
        violations = validate(d)
        if violations:
            raise CliError("invalid compression: " + "; ".join(violations))
    return d


def _default_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DAGZIP_SEED")
    return int(env) if env else 0


def cmd_validate(args) -> int:
    d = _load_compression(args.file, check=False)
    violations = validate(d)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return USAGE_ERROR
    print(f"ok: {d.n_sinks} sinks, {d.n_clusters} clusters, size {d.size()}")
    return 0


def cmd_decompress(args) -> int:
    d = _load_compression(args.file)
    _write_text(args.output, write_graph(decompress(d)))
    return 0


def cmd_mst(args) -> int:
    d = _load_compression(args.file)
    if not d.weighted or d.directed:
        raise CliError("mst needs a weighted undirected compression")
    base = kruskal_baseline(decompress(d)) if args.baseline or args.check else None
    result = base if args.baseline and not args.check else kruskal_compressed(d)
    if args.check and result.total_weight != base.total_weight:
        raise CliError(
            f"weight mismatch: compressed {result.total_weight}, baseline {base.total_weight}",
            CONTRACT_ERROR,
        )
    _write_text(args.output, write_mst(result, d.n_sinks))
    return 0


def cmd_generate(args) -> int:
    if args.family == "rook":
        spec = generators.RookSpec(g=args.g, d=args.d, include_loops=not args.no_loops)
        if args.compress:
            if args.no_loops:
                raise CliError("the canonical rook compression exists only with loops on")
            _write_text(args.output, write_compression(generators.rook_canonical_compression(spec)))
        else:
            _write_text(args.output, write_graph(generators.rook_graph(spec)))
    elif args.family == "random":
        g = generators.random_graph(args.n, args.p, _default_seed(args), directed=args.directed)
        _write_text(args.output, write_graph(g))
    elif args.family == "random-compression":
        d = generators.random_compression(
            n_sinks=args.sinks,
            n_clusters=args.clusters,
            arc_density=args.arc_density,
            edge_count=args.edges,
            max_weight=args.max_weight,
            seed=_default_seed(args),
        )
        _write_text(args.output, write_compression(d))
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown family {args.family!r}")
    return 0


def cmd_reduce(args) -> int:
    try:
        inst = read_setcover(_read_text(args.file))
    except SetCoverFormatError as exc:
        raise CliError(f"bad set-cover file: {exc}") from exc
    prefix = args.out_prefix
    try:
        if args.problem == "mindag":
            out = reductions.reduce_mindag(inst)
            _write_text(f"{prefix}.graph", write_graph(out.graph))
            meta = dict(out.meta, k_prime=out.k_prime)
        elif args.problem == "add":
            out = reductions.reduce_add(inst)
            _write_text(f"{prefix}.graph", write_graph(out.graph))
            _write_text(f"{prefix}.dagc", write_compression(out.compression))
            meta = dict(out.meta, k_new=out.k_new, new_edge=list(out.new_edge))
        else:
            out = reductions.reduce_delete(inst)
            _write_text(f"{prefix}.graph", write_graph(out.graph))
            _write_text(f"{prefix}.dagc", write_compression(out.compression))
            meta = dict(out.meta, k_new=out.k_new, removed_edge=list(out.removed_edge))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lines = [f"{key} {meta[key]}" for key in sorted(meta)]
    _write_text(f"{prefix}.meta", "\n".join(lines) + "\n")
    print(f"wrote {prefix}.graph" + ("" if args.problem == "mindag" else f", {prefix}.dagc") + f", {prefix}.meta")
    return 0


def cmd_normalize(args) -> int:
    d = _load_compression(args.file)
    try:
        shores = read_shores(_read_text(args.shores))
    except GraphFormatError as exc:
        raise CliError(f"bad shore file: {exc}") from exc
    try:
        if args.pass_name == "shore":
            out = normalize.shore_normalize(d, shores)
        else:
            pairs = sorted(tuple(sorted(p)) for p in twins(decompress(d)))
            pairs = [p for p in pairs if p[0] in shores.shore1 and p[1] in shores.shore1]
            if args.pass_name == "twins":
                out = normalize.twin_normalize(d, pairs)
            else:
                out = normalize.twin_single_edge(d, shores, pairs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_text(args.output, write_compression(out))
    return 0


def cmd_oracle(args) -> int:
    try:
        g = read_graph(_read_text(args.file))
    except GraphFormatError as exc:
        raise CliError(f"bad graph file: {exc}") from exc
    if isinstance(g, WeightedGraph):
        raise CliError("the oracle works on unweighted graphs")
    budget = oracle.OracleBudget(max_sinks=args.max_sinks)
    try:
        if args.k is not None:
            yes, witness = oracle.decide_mindag(g, args.k, budget)
            print(f"size <= {args.k}: {'yes' if yes else 'no'}")
            if yes and args.witness:
                _write_text(args.witness, write_compression(witness))
        else:
            best, witness = oracle.min_dag_size(g, budget)
            print(f"minimum compression size: {best}")
            if args.witness:
                _write_text(args.witness, write_compression(witness))
    except oracle.OracleBudgetExceeded as exc:
        raise CliError(str(exc)) from exc
    return 0


def cmd_compress(args) -> int:
    try:
        g = read_graph(_read_text(args.file))
    except GraphFormatError as exc:
        raise CliError(f"bad graph file: {exc}") from exc
    if isinstance(g, WeightedGraph):
        raise CliError("compression strategies work on unweighted graphs")
    if args.strategy == "tree":
        d = heuristics.tree_compress(g, merge_policy=args.policy)
    else:
        d = heuristics.dag_compress_greedy(g)
    violations = validate(d)
    if violations:
        raise CliError("produced compression failed validation", CONTRACT_ERROR)
    _write_text(args.output, write_compression(d))
    return 0


def cmd_gap(args) -> int:
    try:
        g_values = [int(x) for x in args.g.split(",") if x]
    except ValueError as exc:
        raise CliError(f"bad --g list {args.g!r}") from exc
    records = heuristics.gap_experiment(g_values, merge_policy=args.policy)
    _write_text(args.out, heuristics.gap_report_csv(records))
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(x) for x in args.sizes.split(",") if x]
    except ValueError as exc:
        raise CliError(f"bad --sizes list {args.sizes!r}") from exc
    seed = _default_seed(args)
    rows = []
    for size in sizes:
        per_size = []
        for trial in range(args.trials):
            if args.family == "rook":
                d = generators.rook_mst_compression(size, seed=seed + trial)
                params = f"g={size}"
            else:
                d = generators.random_compression(
                    n_sinks=size,
                    n_clusters=max(1, size // 4),
                    arc_density=0.3,
                    edge_count=max(1, size // 2),
                    max_weight=10,
                    seed=seed + trial,
                )
                params = f"sinks={size}"
            t0 = time.monotonic()
            mine = kruskal_compressed(d)
            t_comp = (time.monotonic() - t0) * 1000.0
            g = decompress(d)
            t0 = time.monotonic()
            base = kruskal_baseline(g)
            t_base = (time.monotonic() - t0) * 1000.0
            if base.total_weight != mine.total_weight:
                raise CliError("weight mismatch between pipelines", CONTRACT_ERROR)
            if mine.stats.add_edge_calls > len(d.arcs) + len(d.cedges):
                raise CliError("work bound violated", CONTRACT_ERROR)
            rows.append([
                args.family, params, trial, d.n_sinks, g.graph.m,
                len(d.arcs), len(d.cedges),
                f"{t_comp:.3f}", f"{t_base:.3f}",
                mine.total_weight, mine.stats.add_edge_calls,
            ])
            per_size.append(t_comp)
        if per_size:
            med = sorted(per_size)[len(per_size) // 2]
            print(f"{args.family} size={size}: median compressed {med:.3f} ms over {args.trials} trials")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "family", "parameters", "trial", "n_sinks", "n_edges",
        "arcs", "cedges", "t_compressed_ms", "t_baseline_ms",
        "weight", "add_edge_calls",
    ])
    writer.writerows(rows)
    _write_text(args.out, buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagzip",
        description="Graph compression via cluster DAGs: validate, decompress, "
        "run MST on the compressed form, generate families, build hardness "
        "reductions, normalize, and query the exact small-instance oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a compression file's invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decompress", help="expand a compression into its explicit graph")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("mst", help="minimum spanning forest of a weighted compression")
    p.add_argument("file")
    p.add_argument("--baseline", action="store_true", help="decompress first, run plain Kruskal")
    p.add_argument("--check", action="store_true", help="run both pipelines, require equal weight")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_mst)

    p = sub.add_parser("generate", help="graph and compression generators")
    gen = p.add_subparsers(dest="family", required=True)
    rook = gen.add_parser("rook", help="d-dimensional rook graph")
    rook.add_argument("--g", type=int, required=True)
    rook.add_argument("--d", type=int, default=2)
    rook.add_argument("--no-loops", action="store_true")
    rook.add_argument("--compress", action="store_true",
                      help="emit the canonical compression instead of the graph")
    rook.add_argument("-o", "--output", default=None)
    rook.set_defaults(func=cmd_generate)
    rnd = gen.add_parser("random", help="G(n,p) with a fixed seed")
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--p", type=float, required=True)
    rnd.add_argument("--seed", type=int, default=None)
    rnd.add_argument("--directed", action="store_true")
    rnd.add_argument("-o", "--output", default=None)
    rnd.set_defaults(func=cmd_generate)
    rc = gen.add_parser("random-compression", help="random valid weighted compression")
    rc.add_argument("--sinks", type=int, required=True)
    rc.add_argument("--clusters", type=int, required=True)
    rc.add_argument("--arc-density", type=float, default=0.3)
    rc.add_argument("--edges", type=int, required=True)
    rc.add_argument("--max-weight", type=int, default=10)
    rc.add_argument("--seed", type=int, default=None)
    rc.add_argument("-o", "--output", default=None)
    rc.set_defaults(func=cmd_generate)

    p = sub.add_parser("reduce", help="set-cover hardness reductions")
    p.add_argument("problem", choices=["mindag", "add", "delete"])
    p.add_argument("file", help="set-cover instance file")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("normalize", help="rewrite passes for bipartite compressions")
    p.add_argument("--pass", dest="pass_name", choices=["twins", "shore", "single-edge"],
                   required=True)
    p.add_argument("--shores", required=True, help="shore partition file")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("oracle", help="exact minimum compression size (tiny graphs)")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-sinks", type=int, default=4)
    p.add_argument("--witness", default=None, help="write the witness compression here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compress", help="heuristic compressors")
    p.add_argument("--strategy", choices=["tree", "greedy"], required=True)
    p.add_argument("--policy", choices=["similarity", "balanced"], default="similarity")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("gap", help="DAG-vs-tree compression gap on rook graphs")
    p.add_argument("--g", required=True, help="comma-separated grid sides, e.g. 8,16,32,64")
    p.add_argument("--policy", choices=["similarity", "balanced"], default="similarity")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("bench", help="compressed vs baseline Kruskal timings")
    p.add_argument("--family", choices=["random-compression", "rook"], required=True)
    p.add_argument("--sizes", required=True, help="comma-separated instance sizes")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; keep the contract.
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
