"""The dagzip command line: every subsystem behind one executable.

Exit codes: 0 success, 2 input or usage error, 3 contract violation
(a forest that mst --check does not certify minimum, a weight or forest size
mismatch under --baseline --check, validation failure of a produced artifact).
The library makes its own refusals: any ValueError prints as one line "error: <message>", exit 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import generators, heuristics, normalize, oracle, reductions
from .compression import decompress, read_compression, validate, write_compression
from .graphs import read_graph, read_shores, twins, write_graph
from .mst import certify_forest, kruskal_baseline, kruskal_compressed, write_mst
from .reductions import read_setcover

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


def _parse(path: str, reader, what: str):
    """reader applied to the file's text; a text it refuses is a bad `what` file."""
    try:
        return reader(_read_text(path))
    except ValueError as exc:
        raise CliError(f"bad {what} file: {exc}") from exc


def _write_produced(path: str | None, d) -> None:
    """Write a compression the command made; one that fails validation is a contract violation."""
    if validate(d):
        raise CliError("produced compression failed validation", CONTRACT_ERROR)
    _write_text(path, write_compression(d))


def _default_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DAGZIP_SEED")
    return int(env) if env else 0


def cmd_validate(args) -> int:
    d = _parse(args.file, read_compression, "compression")
    violations = validate(d)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return USAGE_ERROR
    print(f"ok: {d.n_sinks} sinks, {d.n_clusters} clusters, size {d.size()}")
    return 0


def cmd_decompress(args) -> int:
    _write_text(args.output, write_graph(decompress(_parse(args.file, read_compression, "compression"))))
    return 0


def cmd_mst(args) -> int:
    d = _parse(args.file, read_compression, "compression")
    d._index.check()  # an invalid file is reported as invalid, ahead of the weight check
    if not d.weighted:
        raise CliError("mst needs a weighted undirected compression")
    base = kruskal_baseline(decompress(d)) if args.baseline else None
    result = base if args.baseline and not args.check else kruskal_compressed(d)
    if args.check:
        if (why := certify_forest(d, result)) is not None:
            raise CliError(f"forest not certified minimum: {why}", CONTRACT_ERROR)
        if base is not None:  # both are spanning forests of one graph: same weight, same size
            for what, mine, theirs in (("weight", result.total_weight, base.total_weight),
                                       ("forest size", len(result.edges), len(base.edges))):
                if mine != theirs:
                    raise CliError(f"{what} mismatch: compressed {mine}, baseline {theirs}", CONTRACT_ERROR)
    _write_text(args.output, write_mst(result, d.n_sinks))
    return 0


def cmd_generate(args) -> int:
    if args.family == "rook":
        spec = generators.RookSpec(g=args.g, d=args.d, include_loops=not args.no_loops)
        if args.compress:
            _write_text(args.output, write_compression(generators.rook_canonical_compression(spec)))
        else:
            _write_text(args.output, write_graph(generators.rook_graph(spec)))
    elif args.family == "random":
        g = generators.random_graph(args.n, args.p, _default_seed(args), directed=args.directed)
        _write_text(args.output, write_graph(g))
    else:
        d = generators.random_compression(
            n_sinks=args.sinks,
            n_clusters=args.clusters,
            arc_density=args.arc_density,
            edge_count=args.edges,
            max_weight=args.max_weight,
            seed=_default_seed(args),
        )
        _write_text(args.output, write_compression(d))
    return 0


def cmd_reduce(args) -> int:
    inst = _parse(args.file, read_setcover, "set-cover")
    if args.problem == "mindag":
        out = reductions.reduce_mindag(inst)
        extra = {"k_prime": out.k_prime}
    elif args.problem == "add":
        out = reductions.reduce_add(inst)
        extra = {"k_new": out.k_new, "new_edge": list(out.new_edge)}
    else:
        out = reductions.reduce_delete(inst)
        extra = {"k_new": out.k_new, "removed_edge": list(out.removed_edge)}
    files = {"graph": write_graph(out.graph)}
    if hasattr(out, "compression"):
        files["dagc"] = write_compression(out.compression)
    meta = dict(out.meta, **extra)
    files["meta"] = "".join(f"{key} {meta[key]}\n" for key in sorted(meta))
    paths = [f"{args.out_prefix}.{ext}" for ext in files]
    for path, text in zip(paths, files.values()):
        _write_text(path, text)
    print("wrote " + ", ".join(paths))
    return 0


def cmd_normalize(args) -> int:
    d = _parse(args.file, read_compression, "compression")
    shores = _parse(args.shores, read_shores, "shore")
    if args.pass_name == "shore":
        out = normalize.shore_normalize(d, shores)
    else:
        pairs = [p for p in twins(decompress(d)) if p <= shores.shore1]
        twin_pass = normalize.twin_normalize if args.pass_name == "twins" else normalize.twin_single_edge
        out = twin_pass(d, pairs)
    _write_produced(args.output, out)
    return 0


def cmd_oracle(args) -> int:
    g = _parse(args.file, read_graph, "graph")
    budget = oracle.OracleBudget(max_sinks=args.max_sinks)
    if args.k is not None:
        yes, witness = oracle.decide_mindag(g, args.k, budget)
        print(f"size <= {args.k}: {'yes' if yes else 'no'}")
    else:
        best, witness = oracle.min_dag_size(g, budget)
        print(f"minimum compression size: {best}")
    if args.witness and witness is not None:  # decide_mindag's witness is None on "no"
        _write_text(args.witness, write_compression(witness))
    return 0


def cmd_compress(args) -> int:
    g = _parse(args.file, read_graph, "graph")
    if args.strategy == "tree":
        d = heuristics.tree_compress(g, merge_policy=args.policy)
    else:
        d = heuristics.dag_compress_greedy(g)
    _write_produced(args.output, d)
    return 0


def cmd_gap(args) -> int:
    try:
        g_values = [int(x) for x in args.g.split(",") if x]
    except ValueError as exc:
        raise CliError(f"bad --g list {args.g!r}") from exc
    records = heuristics.gap_experiment(g_values, merge_policy=args.policy)
    _write_text(args.out, heuristics.gap_report_csv(records))
    return 0


@functools.cache  # built once per process: parsing leaves no state in the parser
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
    p.add_argument("--check", action="store_true",
                   help="certify the compressed forest minimum without expanding; "
                   "with --baseline, also require the baseline's weight and size")
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
