"""Outside-in layer tracing for dagzip.

The tracer replaces, by name, the public functions each dagzip module calls
across module boundaries with wrappers that record spans (id, parent id,
name, op, start, end) and counters. It patches every dagzip module that
holds a reference to the function, so calls made through `from . import`
names are seen too, and it restores the originals on uninstall. A name that
no longer exists is skipped, so refactors inside the program do not break
the benchmark; its metrics then read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = {
    "compression": ["read_compression", "validate", "topological_order", "out_arcs",
                    "sink_representatives", "clusters", "decompress", "write_compression"],
    "mst": ["kruskal_compressed", "kruskal_baseline", "write_mst"],
    "graphs": ["read_graph", "write_graph", "twins"],
    "generators": ["rook_graph", "rook_hyperplanes"],
    "heuristics": ["tree_compress"],
    "oracle": ["min_bipartite_size", "min_dag_size"],
    "reductions": ["reduce_mindag", "reduce_add", "reduce_delete", "setcover_exhaustive"],
    "normalize": ["twin_normalize", "shore_normalize", "twin_single_edge"],
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
COUNTERS = ["compression.decompressed_edges", "mst.add_edge_calls", "mst.arcs_traversed",
            "mst.forest_edges", "heuristics.tree_cedges", "cli.bytes_in", "cli.bytes_out"]

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [(f"{q}.self_s", "s", "lower") for q in FUNCTIONS]
    + [(f"{q}.calls", "count", "lower") for q in FUNCTIONS]
    + [("compression.decompressed_edges", "count", "lower"),
       ("mst.add_edge_calls", "count", "lower"),
       ("mst.arcs_traversed", "count", "lower"),
       ("mst.union_ratio", "ratio", "higher"),
       ("heuristics.tree_cedges", "count", "lower"),
       ("cli.self_s", "s", "lower"),
       ("cli.bytes_in", "B", "lower"),
       ("cli.bytes_out", "B", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


def _attr(obj, *path):
    for name in path:
        obj = getattr(obj, name, None)
    return obj


class Tracer:
    """Spans and counters for one benchmark process; patches are opt-in per pass."""

    def __init__(self):
        self.spans = []  # [id, parent, name, op, start, end]
        self.stack = []
        self.counters = defaultdict(int)
        self.mst_work = []  # add_edge_calls of each compressed Kruskal run in the current op
        self.op = None
        self._undo = []
        self.missing = set()

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        rec = [len(self.spans), self.stack[-1] if self.stack else None, name, self.op,
               time.perf_counter(), 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[5] = time.perf_counter()
        self.stack.pop()

    def _after(self, qual, args, result):
        if qual == "mst.kruskal_compressed":
            calls = _attr(result, "stats", "add_edge_calls")
            if calls is not None:
                self.mst_work.append(calls)
                self.counters["mst.add_edge_calls"] += calls
                self.counters["mst.arcs_traversed"] += _attr(result, "stats", "arcs_traversed") or 0
                self.counters["mst.forest_edges"] += len(_attr(result, "edges") or ())
        elif qual == "compression.decompress":
            self.counters["compression.decompressed_edges"] += len(_attr(result, "edges") or ())
        elif qual == "heuristics.tree_compress":
            self.counters["heuristics.tree_cedges"] += len(_attr(result, "cedges") or ())

    def _wrap(self, qual, orig, timed):
        if timed:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                rec = self._open(qual)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self._close(rec)
                self._after(qual, args, result)
                return result
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                self._after(qual, args, result)
                return result
        return wrapper

    def install(self, names, timed: bool) -> None:
        """Wrap each `module.function` in names wherever a dagzip module refers to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "dagzip" or k.startswith("dagzip."))]
        for qual in names:
            mod, fn = qual.split(".")
            orig = getattr(sys.modules.get(f"dagzip.{mod}"), fn, None)
            if not callable(orig):
                self.missing.add(qual)
                continue
            wrapper = self._wrap(qual, orig, timed)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo = []


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


def self_times(spans) -> dict:
    """{name: (self seconds, calls)}: span time minus the time of its direct children."""
    child = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for sid, _, name, _, start, end in spans:
        out[name][0] += end - start - child[sid]
        out[name][1] += 1
    return {k: tuple(v) for k, v in out.items()}
