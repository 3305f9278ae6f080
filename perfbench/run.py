"""dagzip benchmark: one workload, closed loop, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dagzip source tree. See perfbench/README.md for the
workloads and metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import os
import sys

# Pin BLAS threads before anything imports numpy; tree_compress runs a
# float32 matmul that would otherwise pick its own thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_ROUNDS = 3
CALIBRATE_EVERY_S = 0.5  # of op time; the host's speed phases last 10 to 20 s
CALIBRATION_REF_S = 0.040  # kernel time that defines the reference host speed for setup_s
SETUP_TIMEOUT_S = 50
MAX_PROBLEMS_SHOWN = 5

# End-to-end metrics in the JSON line; every workload has them.
END_TO_END = ("iter_rel_p50", "setup_s", "peak_rss_mb")


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def set_up(workload: str, seed: int, work: Path, calibrate):
    """Run the set-up SETUP_ROUNDS times in fresh processes.

    Returns (data dir, seconds per round, seconds per round at the reference
    host speed: scaled by CALIBRATION_REF_S over the kernel time around it).
    """
    times, scaled, digests = [], [], set()
    before = calibrate()
    for i in range(SETUP_ROUNDS):
        out = work / f"round{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--seed", str(seed),
             "--out", str(out), "--src", str(SRC)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        after = calibrate()
        times.append(info["setup_s"])
        scaled.append(info["setup_s"] * CALIBRATION_REF_S / ((before + after) / 2))
        before = after
        digests.add(info["digest"])
        if i:
            shutil.rmtree(out)
    if len(digests) != 1:
        raise RuntimeError("the same seed produced different input bytes")
    return work / "round0", times, scaled


def p50(values):
    return statistics.median(values) if values else float("nan")


def p90(values):
    """The 90th percentile, only where at least ten samples lie beyond it."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 100 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dagzip" / "__init__.py").is_file():
        return fail(f"no dagzip sources under {SRC}; run from a dagzip source tree")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        calibrate = Calibration()
        data, setup_raw, setup_scaled = set_up(args.workload, args.seed, work, calibrate)
        refs = json.loads((data / "refs.json").read_text())
        sys.path.insert(0, str(SRC))
        import dagzip
        from dagzip import cli
        if Path(dagzip.__file__).resolve().parent != SRC / "dagzip":
            return fail(f"imported dagzip from {dagzip.__file__}, not from {SRC}")
        tracer = tracing.Tracer()
        runner = workloads.Runner(dagzip, cli, tracer)
        ops = workloads.build(args.workload, data, refs, runner)
        result = measure(args, ops, tracer, runner, calibrate)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["setup_s"], result["setup_raw_s"] = p50(setup_scaled), p50(setup_raw)
    result["setup_samples"] = len(setup_raw)
    report(args, result, runner, tracer)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, print each report, and end with
    one JSON line whose metrics are prefixed by workload name."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return fail(f"{name}: exit {proc.returncode}\n{proc.stderr.strip()}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


class Calibration:
    """A fixed kernel of the benchmark's own, timed between ops and set-ups.

    The host's speed drifts by tens of percent over tens of seconds (other
    tenants share caches and memory bandwidth). The kernel runs around each
    set-up and between ops after every CALIBRATE_EVERY_S of op time;
    dividing each stretch of op or set-up time by the mean kernel time
    around it gives a figure that moves with the program, not with the host. The kernel mixes a random gather over a
    few MB, a sort and an interpreter loop, like the program's own work.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.data = rng.integers(0, 1 << 30, size=1 << 20, dtype=np.int32)
        self.index = rng.integers(0, 1 << 20, size=1 << 20, dtype=np.int32)

    def __call__(self) -> float:
        start = time.perf_counter()
        self.data[self.index].sum()
        np.sort(self.data[: 1 << 18])
        acc = 0
        for i in range(300_000):
            acc += i * i
        return time.perf_counter() - start


def measure(args, ops, tracer, runner, calibrate) -> dict:
    """Pass over the op list until --seconds have elapsed (at least one pass,
    two with tracing, which alternates traced and untraced passes)."""
    timings = {op.kind: [] for op in ops}
    iters = {False: [], True: []}
    rel = {False: [], True: []}  # sum over stretches of op time / calibration time around it
    cal = [calibrate()]
    layer_samples, calls_per_op, problems = [], None, []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    n = 0
    while n < (2 if args.trace else 1) or time.perf_counter() < deadline:
        traced = bool(args.trace) and n % 2 == 0
        # Untraced passes keep one counter-only wrapper for the work-bound guard.
        tracer.install(tracing.FUNCTIONS if traced else ["mst.kruskal_compressed"], timed=traced)
        runner.traced = traced
        tracer.counters.clear()
        first_span = len(tracer.spans)
        total = stretch = pass_rel = 0.0
        for index, op in enumerate(ops):
            for path in op.outputs:
                path.unlink(missing_ok=True)
            gc.collect()
            tracer.op, tracer.mst_work = index, []
            start = time.perf_counter()
            try:
                with tracer.span(f"op:{op.kind}") if traced else nullcontext():
                    out = op.run()
                error = None
            except (Exception, SystemExit) as exc:  # a crash is a failed op, not a failed benchmark
                out, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            total += elapsed
            stretch += elapsed
            if not traced:
                timings[op.kind].append(elapsed)
            attempted += 1
            problem = error
            if not problem:
                try:
                    problem = op.check(out)
                except Exception as exc:  # e.g. an output file the command never wrote
                    problem = f"{op.kind}: output check raised {type(exc).__name__}: {exc}"
            if not problem and op.work_bound is not None and any(c > op.work_bound for c in tracer.mst_work):
                problem = f"{op.kind}: add_edge calls {tracer.mst_work} exceed |A|+|E| = {op.work_bound}"
            if problem:
                failed += 1
                problems.append(problem)
            if stretch >= CALIBRATE_EVERY_S or index == len(ops) - 1:
                cal.append(calibrate())
                pass_rel += stretch / ((cal[-2] + cal[-1]) / 2)
                stretch = 0.0
        tracer.uninstall()
        iters[traced].append(total)
        rel[traced].append(pass_rel)
        if traced:
            spans = tracer.spans[first_span:]
            layer_samples.append(layer_metrics(spans, tracer.counters))
            if calls_per_op is None:
                calls_per_op = per_op_calls(spans, ops)
        n += 1
    return {"timings": timings, "iters": iters, "rel": rel, "cal": cal, "layer_samples": layer_samples,
            "calls_per_op": calls_per_op, "problems": problems,
            "attempted": attempted, "failed": failed, "missing": sorted(tracer.missing)}


def layer_metrics(spans, counters) -> dict:
    st = tracing.self_times(spans)
    m = {}
    for q in tracing.FUNCTIONS:
        m[f"{q}.self_s"], m[f"{q}.calls"] = st.get(q, (0.0, 0))
    for name in tracing.COUNTERS:
        m[name] = counters.get(name, 0)
    m["mst.union_ratio"] = m["mst.forest_edges"] / m["mst.add_edge_calls"] if m["mst.add_edge_calls"] else 0.0
    m["cli.self_s"] = st.get("cli", (0.0, 0))[0]
    return m


def per_op_calls(spans, ops) -> dict:
    """{op kind: {function: calls per op}} for one traced pass."""
    counts, n_ops = {}, {}
    for op in ops:
        n_ops[op.kind] = n_ops.get(op.kind, 0) + 1
    for _, _, name, op_index, _, _ in spans:
        if name in tracing.FUNCTIONS:
            kind = ops[op_index].kind
            counts.setdefault(kind, {}).setdefault(name, 0)
            counts[kind][name] += 1
    return {k: {f: c / n_ops[k] for f, c in sorted(v.items())} for k, v in counts.items()}


def report(args, r, runner, tracer) -> None:
    rows = []  # (name, value, unit, samples)
    timed_iters = r["iters"][False]
    rows.append(("setup_s", r["setup_s"], "s", r["setup_samples"]))
    rows.append(("setup_raw_s", r["setup_raw_s"], "s", r["setup_samples"]))
    rows.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1))
    rows.append(("failed_frac", r["failed"] / r["attempted"], "ratio", r["attempted"]))
    rows.append(("iter_s_p50", p50(timed_iters), "s", len(timed_iters)))
    rows.append(("iter_rel_p50", p50(r["rel"][False]), "ratio", len(r["rel"][False])))
    rows.append(("calibration_s_p50", p50(r["cal"]), "s", len(r["cal"])))
    for kind, values in r["timings"].items():
        rows.append((f"{kind}_s_p50", p50(values), "s", len(values)))
        if p90(values) is not None:
            rows.append((f"{kind}_s_p90", p90(values), "s", len(values)))
    if "compressed_size" in runner.facts:
        rows.append(("compressed_size", runner.facts["compressed_size"], "count", 1))

    print(f"dagzip benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={BLAS_THREADS} closed loop, 1 client")
    for name, value, unit, samples in rows:
        print(f"  {name:<22} {value:>14.6g} {unit:<6} n={samples}")
    for problem in r["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"  FAILED {problem}")
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in END_TO_END}

    if args.trace:
        samples = r["layer_samples"]
        layer = {name: {"value": p50([s[name] for s in samples]), "unit": unit}
                 for name, unit, _ in tracing.METRICS if name != "trace.overhead_frac"}
        layer["trace.overhead_frac"] = {
            "value": p50(r["rel"][True]) / p50(r["rel"][False]) - 1, "unit": "ratio"}
        print(f"  per-layer medians over {len(samples)} traced passes; "
              f"{len(timed_iters)} untraced passes for trace.overhead_frac")
        for name, m in layer.items():
            if m["value"]:
                print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
        for kind, calls in (r["calls_per_op"] or {}).items():
            print(f"  calls per {kind} op: " + " ".join(f"{f}={c:g}" for f, c in calls.items()))
        if r["missing"]:
            print(f"  not found (reported as 0): {', '.join(r['missing'])}")
        metrics = layer

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "blas_threads": BLAS_THREADS, "rows": rows, "timings": r["timings"],
              "iters": {str(k): v for k, v in r["iters"].items()}, "cal": r["cal"], "problems": r["problems"],
              "metrics": metrics, "spans": tracer.spans if args.trace else []}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
