"""Graph families with known canonical compressions, plus seeded fuzz inputs."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .compression import DagCompression
from .graphs import Graph, canonical_edge


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


def rook_index(spec: RookSpec, coords: tuple[int, ...]) -> int:
    """Row-major vertex id: 1 + sum (i_k - 1) * g^(k-1)."""
    idx = 0
    for k, c in enumerate(coords):
        idx += (c - 1) * spec.g ** k
    return idx + 1


def rook_coords(spec: RookSpec, v: int) -> tuple[int, ...]:
    x = v - 1
    out = []
    for _ in range(spec.d):
        out.append(x % spec.g + 1)
        x //= spec.g
    return tuple(out)


def rook_hyperplanes(spec: RookSpec) -> list[list[int]]:
    """Vertex lists of the d*g axis-aligned hyperplanes, dimension-major order."""
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
    """
    edges: set[tuple[int, int]] = set()
    for plane in rook_hyperplanes(spec):
        for u in plane:
            for v in plane:
                edges.add((u, v))
    if not spec.include_loops:
        edges -= {(v, v) for v in range(1, spec.n + 1)}
    return Graph(directed=True, n=spec.n, edges=frozenset(edges))


def rook_canonical_compression(spec: RookSpec) -> DagCompression:
    """One cluster per axis-aligned hyperplane plus a compression loop on each.

    For d = 2 these are the g row clusters and g column clusters, each with g
    arcs into its grid line, giving size 2g^2 + 2g; in general d*g clusters,
    d*g^d arcs and d*g loops. Decompresses to the rook graph with loops on.
    """
    g, d, n = spec.g, spec.d, spec.n
    arcs: set[tuple[int, int]] = set()
    cedges: set[tuple[int, int]] = set()
    cid = n
    for plane in rook_hyperplanes(spec):
        cid += 1
        for v in plane:
            arcs.add((cid, v))
        cedges.add((cid, cid))
    return DagCompression(
        directed=True,
        n_sinks=n,
        n_clusters=d * g,
        arcs=frozenset(arcs),
        cedges=frozenset(cedges),
    )


def rook_mst_compression(g: int, max_weight: int = 1, seed: int = 0) -> DagCompression:
    """Weighted undirected variant of the canonical 2-d rook compression.

    Same cluster layout; the compression loops carry weights (all 1 when
    max_weight is 1, otherwise seeded uniform draws) so the result is a valid
    input for the compressed MST run.
    """
    spec = RookSpec(g=g, d=2)
    base = rook_canonical_compression(spec)
    rng = random.Random(seed)
    weights = {
        e: 1 if max_weight <= 1 else rng.randint(1, max_weight)
        for e in sorted(base.cedges)
    }
    return DagCompression(
        directed=False,
        n_sinks=base.n_sinks,
        n_clusters=base.n_clusters,
        arcs=base.arcs,
        cedges=base.cedges,
        weights=weights,
    )


def random_graph(n: int, p: float, seed: int, directed: bool = True) -> Graph:
    """Each candidate pair independently with probability p, reproducible per seed.

    Directed graphs draw over all n^2 ordered pairs including loops; undirected
    graphs draw over the proper unordered pairs.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    if directed:
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if rng.random() < p:
                    edges.add((u, v))
    else:
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < p:
                    edges.add((u, v))
    return Graph(directed=directed, n=n, edges=frozenset(edges))


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
    least one out-arc. Weights are uniform in 1..max_weight.
    """
    if n_sinks < 1 or n_clusters < 0 or edge_count < 0 or max_weight < 1:
        raise ValueError("parameters must be positive")
    if not 0.0 < arc_density <= 1.0:
        arc_density = max(min(arc_density, 1.0), 0.05)
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
