#!/usr/bin/env python3
"""Kruskal directly on a weighted compression, never expanding the products.

The compressed run processes compression edges in weight order and keeps
every cluster "clean" (entirely inside one union-find set) by walking each
arc of the cluster DAG at most once. On a rook graph with 10,000 vertices
the compressed run touches ~20k arcs and edges while the explicit graph
has a million edges. The certificate that `dagzip mst --check` runs proves
the compressed forest minimum on the compressed form too, by the cycle
property; the baseline expands every product and runs Borůvka instead.
"""

import time

from dagzip import (
    DagCompression,
    certify_forest,
    decompress,
    kruskal_baseline,
    kruskal_compressed,
    rook_mst_compression,
    write_mst,
)

# A 7-vertex graph held by two compression edges: {8,9} at weight 1 encodes
# the biclique {1,2,3}x{4,5,6}; {8,10} at weight 2 adds {1,2,3}x{7} and a
# cheaper-elsewhere copy of the biclique (minimum weight wins per edge).
d = DagCompression(
    directed=False,
    n_sinks=7,
    n_clusters=3,
    arcs=frozenset({(8, 1), (8, 2), (8, 3), (9, 4), (9, 5), (9, 6), (10, 7), (10, 9)}),
    cedges=frozenset({(8, 9), (8, 10)}),
    weights={(8, 9): 1, (8, 10): 2},
)

result = kruskal_compressed(d)
print(write_mst(result, d.n_sinks))
print("add_edge calls:", result.stats.add_edge_calls, " (bound |A|+|E| =", d.size(), ")")
print("arcs traversed:", result.stats.arcs_traversed, " (bound |A| =", len(d.arcs), ")")

baseline = kruskal_baseline(decompress(d))
assert baseline.total_weight == result.total_weight == 7
assert certify_forest(d, result) is None

# Scale: the canonical rook compression at g = 100.
big = rook_mst_compression(100)
t0 = time.monotonic()
compressed = kruskal_compressed(big)
t_compressed = time.monotonic() - t0
t0 = time.monotonic()
verdict = certify_forest(big, compressed)
t_certify = time.monotonic() - t0
assert verdict is None, verdict

t0 = time.monotonic()
explicit = decompress(big)
t_decompress = time.monotonic() - t0
t0 = time.monotonic()
base = kruskal_baseline(explicit)
t_base = time.monotonic() - t0

print(f"\nrook 100x100: compression size {big.size()}, explicit edges {explicit.m}")
print(f"compressed run:  {t_compressed * 1000:7.1f} ms  weight {compressed.total_weight}")
print(f"certificate:     {t_certify * 1000:7.1f} ms  (cycle property on the compressed form)")
print(f"baseline run:    {(t_decompress + t_base) * 1000:7.1f} ms  weight {base.total_weight}"
      f"  (decompress {t_decompress * 1000:.0f} ms + kruskal {t_base * 1000:.0f} ms)")
