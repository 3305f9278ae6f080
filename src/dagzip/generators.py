"""Graph families with known canonical compressions, plus seeded fuzz inputs."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import graphs
from .compression import DagCompression
from .graphs import INT64_MAX, Graph, canonical_edge


@dataclass(frozen=True)
class RookSpec:
    """A d-dimensional rook graph on the g x ... x g grid.

    Vertices are grid points; two points are adjacent iff they agree in at
    least one coordinate, which by the literal definition includes every
    self-pair, so loops are on by default.
    """

    g: int
    d: int = 2
    include_loops: bool = True

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("side length must be >= 1")
        if self.d < 2:
            raise ValueError("dimension must be >= 2")

    @property
    def n(self) -> int:
        return self.g ** self.d


# rook_graph peaks at about 65 bytes per pair it expands (tracemalloc: 2M
# pairs at g=100, d=2; 9.6M at g=20, d=3) and rook_canonical_compression at
# about 73 bytes per arc, so 30M pairs or arcs is about 2 GB. Larger specs,
# and specs above graphs.MAX_VERTICES vertices, are refused before any array
# is built.
MAX_ROOK_PAIRS = 30_000_000


def _check_rook_size(spec: RookSpec, exponent: int, what: str) -> None:
    """Refuse spec when g^d exceeds graphs.MAX_VERTICES or d*g^exponent `what` exceed MAX_ROOK_PAIRS."""
    # g^64 is above the vertex limit for every g >= 2, so capping the exponent
    # decides the same without expanding g^d for a huge d
    if spec.g ** min(spec.d, 64) > graphs.MAX_VERTICES:
        raise ValueError(f"rook g={spec.g}, d={spec.d} has {spec.g}^{spec.d} vertices, "
                         f"above the limit of {graphs.MAX_VERTICES}")
    count = spec.d * spec.g ** exponent
    if count > MAX_ROOK_PAIRS:
        raise ValueError(f"rook g={spec.g}, d={spec.d} needs {count} {what}, "
                         f"above the limit of {MAX_ROOK_PAIRS}")


def rook_hyperplanes(spec: RookSpec) -> list[list[int]]:
    """Vertex lists of the d*g axis-aligned hyperplanes, dimension-major order.
    Raises ValueError before building when their d*g^d entries exceed
    MAX_ROOK_PAIRS or the vertices graphs.MAX_VERTICES."""
    _check_rook_size(spec, spec.d, "hyperplane entries")
    g, d, n = spec.g, spec.d, spec.n
    ids = np.arange(n)
    planes = []
    for k in range(d):
        # Coordinate k of v is ((v - 1) // g^k) % g + 1; a stable sort by it
        # lists each plane's vertices in ascending order, n // g per plane.
        by_coord = np.argsort(ids // g ** k % g, kind="stable") + 1
        planes.extend(by_coord.reshape(g, n // g).tolist())
    return planes


def rook_graph(spec: RookSpec) -> Graph:
    """The directed rook graph: (u, v) present iff some coordinate agrees.

    Built as the union of the full products of the axis-aligned hyperplanes,
    which is the same set of pairs but avoids the quadratic all-pairs test.
    One numpy product covers every plane at once: d*g planes of g^(d-1)
    vertices each, d*g^(2d-1) pairs. Raises ValueError before building when
    those pairs exceed MAX_ROOK_PAIRS or the vertices graphs.MAX_VERTICES.
    """
    _check_rook_size(spec, 2 * spec.d - 1, "pairs")
    planes = np.array(rook_hyperplanes(spec))
    k = planes.shape[1]
    pairs = np.column_stack((np.repeat(planes, k, axis=1).ravel(), np.tile(planes, k).ravel()))
    if not spec.include_loops:
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return Graph(directed=True, n=spec.n, edges=pairs)


def rook_canonical_compression(spec: RookSpec) -> DagCompression:
    """One cluster per axis-aligned hyperplane plus a compression loop on each.

    For d = 2 these are the g row clusters and g column clusters, each with g
    arcs into its grid line, giving size 2g^2 + 2g; in general d*g clusters,
    d*g^d arcs and d*g loops. Decompresses to the rook graph with loops on,
    so a spec without loops raises ValueError. So does a spec whose arcs
    exceed MAX_ROOK_PAIRS or whose vertices exceed graphs.MAX_VERTICES,
    before anything is built.
    """
    if not spec.include_loops:
        raise ValueError("the canonical rook compression exists only with loops on")
    _check_rook_size(spec, spec.d, "arcs")
    planes = np.array(rook_hyperplanes(spec))
    cids = np.arange(spec.n + 1, spec.n + 1 + len(planes))
    return DagCompression(
        directed=True,
        n_sinks=spec.n,
        n_clusters=spec.d * spec.g,
        arcs=np.column_stack((cids.repeat(planes.shape[1]), planes.ravel())),
        cedges=np.column_stack((cids, cids)),
    )


def rook_mst_compression(g: int, max_weight: int = 1, seed: int = 0) -> DagCompression:
    """Weighted undirected variant of the canonical 2-d rook compression.

    Same cluster layout; the compression loops carry weights (all 1 when
    max_weight is 1, otherwise seeded uniform draws) so the result is a valid
    input for the compressed MST run. Refuses the sizes that
    rook_canonical_compression refuses, before building.
    """
    if max_weight > INT64_MAX:
        raise ValueError("max_weight does not fit in int64")
    base = rook_canonical_compression(RookSpec(g=g, d=2))
    rng = random.Random(seed)
    # The loops (c, c) come in cluster order, canonical when undirected too.
    w = np.array([1 if max_weight <= 1 else rng.randint(1, max_weight) for _ in base.cedge_u], np.int64)
    return DagCompression._from_arrays(False, base.n_sinks, base.n_clusters, base.arc_u, base.arc_v,
                                       base.cedge_u, base.cedge_v, w)


# random_graph holds about 170 bytes per edge at its peak (tracemalloc, 1M
# edges at p = 1), so 12M candidate pairs is about 2 GB even when every draw
# keeps its pair. More draws are refused before they start.
MAX_RANDOM_PAIRS = 12_000_000


def random_graph(n: int, p: float, seed: int, directed: bool = True) -> Graph:
    """Each candidate pair independently with probability p, reproducible per seed.

    Directed graphs draw over all n^2 ordered pairs including loops; undirected
    graphs draw over the n (n - 1) / 2 proper unordered pairs. Above
    MAX_RANDOM_PAIRS draws it raises ValueError before drawing.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    draws = n * n if directed else n * (n - 1) // 2
    if draws > MAX_RANDOM_PAIRS:
        raise ValueError(f"a random graph on {n} vertices draws {draws} candidate pairs, "
                         f"above the limit of {MAX_RANDOM_PAIRS}")
    rng = random.Random(seed)
    edges = frozenset((u, v) for u in range(1, n + 1)
                      for v in range(1 if directed else u + 1, n + 1) if rng.random() < p)
    return Graph(directed=directed, n=n, edges=edges)


# random_compression holds about 240 bytes per arc at its peak (tracemalloc,
# 338k arcs), so 8M expected arcs is about 2 GB. Larger draws are refused
# before they start.
MAX_RANDOM_ARCS = 8_000_000


def random_compression(
    n_sinks: int,
    n_clusters: int,
    arc_density: float,
    edge_count: int,
    max_weight: int,
    seed: int,
) -> DagCompression:
    """A random valid weighted undirected compression for fuzzing.

    Arcs only go from a cluster vertex to lower-numbered vertices, so the
    cluster DAG is acyclic by construction, and every cluster vertex gets at
    least one out-arc. Weights are uniform in 1..max_weight. Cluster vertex
    n_sinks + i draws over n_sinks + i - 1 lower vertices, so the expected arc
    count is n_clusters (n_sinks + (n_clusters - 1) / 2) arc_density; above
    MAX_RANDOM_ARCS it raises ValueError before drawing.
    """
    if n_sinks < 1 or n_clusters < 0 or edge_count < 0 or max_weight < 1:
        raise ValueError("parameters must be positive")
    if not 0.0 < arc_density <= 1.0:
        raise ValueError("arc density must lie in (0, 1]")
    expected = n_clusters * (n_sinks + (n_clusters - 1) / 2) * arc_density
    if expected > MAX_RANDOM_ARCS:
        raise ValueError(f"a random compression of {n_clusters} clusters over {n_sinks} sinks "
                         f"expects {expected:.0f} arcs, above the limit of {MAX_RANDOM_ARCS}")
    rng = random.Random(seed)
    total = n_sinks + n_clusters
    arcs: set[tuple[int, int]] = set()
    for v in range(n_sinks + 1, total + 1):
        targets = [u for u in range(1, v) if rng.random() < arc_density]
        if not targets:
            targets = [rng.randint(1, v - 1)]
        for u in targets:
            arcs.add((v, u))
    cedges: set[tuple[int, int]] = set()
    attempts = 0
    while len(cedges) < edge_count and attempts < 50 * (edge_count + 1):
        attempts += 1
        u = rng.randint(1, total)
        v = rng.randint(1, total)
        cedges.add(canonical_edge(False, u, v))
    weights = {e: rng.randint(1, max_weight) for e in sorted(cedges)}
    return DagCompression(
        directed=False,
        n_sinks=n_sinks,
        n_clusters=n_clusters,
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
        weights=weights,
    )
