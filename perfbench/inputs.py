"""Seeded benchmark inputs, written as canonical dagzip text with numpy only.

Nothing here imports dagzip, so a change to the program's own generators
cannot move the benchmark's inputs. The same seed gives the same bytes.
"""

from __future__ import annotations

import itertools

import numpy as np

# mst-compressed
ROOK_MST_G = 200
DEEP_SINKS = 20000
DEEP_CHAINS = 20
DEEP_CHAIN_LEN = 400
DEEP_POOL = 96
DEEP_CEDGES = 30000
# compress-expand
ROOK_GRAPH_G = 48
ROOK_CHECK_G = 60
# exact-small, per pass over the op list
SETCOVER_U3 = 40
SETCOVER_U4 = 80
ORACLE_GRAPHS = 30
NORMALIZE_CASES = 30

MAX_WEIGHT = 1000
# exact-small draws its instance shapes from this fixed seed and only their
# labels from --seed: the exact searches' cost depends on the shape, so every
# seed then carries the same work.
EXACT_SHAPES_SEED = 20260


def _dagc_text(directed, n_sinks, n_clusters, arcs, cedges, weights=None) -> str:
    """Canonical compression text; arcs and cedges are (k, 2) arrays, sorted here."""
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    cedges = np.asarray(cedges, dtype=np.int64).reshape(-1, 2)
    a_order = np.lexsort((arcs[:, 1], arcs[:, 0]))
    c_order = np.lexsort((cedges[:, 1], cedges[:, 0]))
    head = "dagc " + ("directed" if directed else "undirected")
    if weights is not None:
        head += " weighted"
    out = [head, f"sinks {n_sinks}", f"clusters {n_clusters}", f"arcs {len(arcs)}"]
    out += [f"a {u} {v}" for u, v in arcs[a_order].tolist()]
    out.append(f"cedges {len(cedges)}")
    if weights is None:
        out += [f"c {u} {v}" for u, v in cedges[c_order].tolist()]
    else:
        w = np.asarray(weights, dtype=np.int64)[c_order]
        out += [f"c {u} {v} {x}" for (u, v), x in zip(cedges[c_order].tolist(), w.tolist())]
    return "\n".join(out) + "\n"


def rook_adjacency(g: int) -> np.ndarray:
    """(n+1) x (n+1) bool matrix of the 2-d rook graph with loops; row/col 0 unused.

    Sink v has coordinates ((v-1) % g, (v-1) // g); two sinks are adjacent
    iff they agree in a coordinate.
    """
    n = g * g
    v = np.arange(n)
    row, col = v % g, v // g
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    adj[1:, 1:] = (row[:, None] == row[None, :]) | (col[:, None] == col[None, :])
    return adj


def rook_graph_text(g: int) -> str:
    """The directed rook graph with loops, canonical graph text."""
    edges = np.argwhere(rook_adjacency(g))
    out = [f"graph directed {g * g} {len(edges)}"]
    out += [f"e {u} {v}" for u, v in edges.tolist()]
    return "\n".join(out) + "\n"


def rook_mst_text(g: int, rng: np.random.Generator) -> str:
    """Weighted undirected rook compression: one cluster per row and per column,
    each with a weighted loop compression edge."""
    n = g * g
    v = np.arange(1, n + 1)
    row_cluster = n + 1 + (v - 1) % g
    col_cluster = n + 1 + g + (v - 1) // g
    arcs = np.concatenate([np.stack([row_cluster, v], 1), np.stack([col_cluster, v], 1)])
    clusters = np.arange(n + 1, n + 2 * g + 1)
    weights = rng.integers(1, MAX_WEIGHT + 1, size=2 * g)
    return _dagc_text(False, n, 2 * g, arcs, np.stack([clusters, clusters], 1), weights)


def deep_mst_text(rng: np.random.Generator) -> str:
    """Weighted undirected compression with a deep cluster DAG.

    Clusters form DEEP_CHAINS chains. Each cluster has an arc to a sink of
    its chain's pool and to one of the previous three clusters of its chain,
    and sometimes to a random earlier cluster of the chain, so the DAG is
    hundreds of levels deep while clusters stay within their pool. About
    half of the compression-edge endpoints are clusters.
    """
    n = DEEP_SINKS
    length = DEEP_CHAIN_LEN
    n_clusters = DEEP_CHAINS * length
    pools = (rng.permutation(n)[: DEEP_CHAINS * DEEP_POOL] + 1).reshape(DEEP_CHAINS, DEEP_POOL)
    arcs = set()
    for c in range(DEEP_CHAINS):
        base = n + 1 + c * length
        sinks = pools[c][rng.integers(0, DEEP_POOL, size=length)]
        back = rng.integers(0, 3, size=length)
        extra = rng.random(length) < 0.1
        for t in range(length):
            v = base + t
            arcs.add((v, int(sinks[t])))
            if t > 0:
                arcs.add((v, base + t - 1 - min(int(back[t]), t - 1)))
                if t > 1 and extra[t]:
                    arcs.add((v, base + int(rng.integers(0, t))))
    top = n + n_clusters

    def endpoints(k):
        pick_cluster = rng.random(k) < 0.5
        return np.where(pick_cluster, rng.integers(n + 1, top + 1, size=k), rng.integers(1, n + 1, size=k))

    k = 2 * DEEP_CEDGES
    u, v = endpoints(k), endpoints(k)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = (lo != hi) | (lo > n)
    pairs = np.stack([lo[keep], hi[keep]], 1)
    _, first = np.unique(pairs, axis=0, return_index=True)
    pairs = pairs[np.sort(first)[:DEEP_CEDGES]]
    weights = rng.integers(1, MAX_WEIGHT + 1, size=len(pairs))
    return _dagc_text(False, n, n_clusters, np.array(sorted(arcs)), pairs, weights)


def setcover_text(n: int, sets, k: int) -> str:
    out = [f"setcover {n} {len(sets)} {k}"]
    out += ["s " + " ".join(str(x) for x in [i, *sorted(s)]) for i, s in enumerate(sets, 1)]
    return "\n".join(out) + "\n"


def _covering_families(n: int):
    """Every family of 2 to 4 proper subsets of 1..n whose union is 1..n."""
    universe = frozenset(range(1, n + 1))
    proper = [frozenset(c) for r in range(1, n) for c in itertools.combinations(range(1, n + 1), r)]
    return [
        combo
        for size in range(2, 5)
        for combo in itertools.combinations(proper, size)
        if frozenset().union(*combo) == universe
    ]


def setcover_instances(shape: np.random.Generator, label: np.random.Generator):
    """(n, sets, k) triples, distinct, with k in 0..3: SETCOVER_U3 of them on
    universe 3 and SETCOVER_U4 on universe 4. label permutes the elements
    and the order of the sets."""
    out = []
    for n, count in ((3, SETCOVER_U3), (4, SETCOVER_U4)):
        families = _covering_families(n)
        for i in shape.choice(4 * len(families), size=count, replace=False):
            rename = dict(zip(range(1, n + 1), (int(x) + 1 for x in label.permutation(n))))
            sets = [frozenset(rename[e] for e in s) for s in families[int(i) // 4]]
            out.append((n, [sets[j] for j in label.permutation(len(sets))], int(i) % 4))
    return out


def graph_text(directed: bool, n: int, edges) -> str:
    edges = sorted(edges)
    out = [f"graph {'directed' if directed else 'undirected'} {n} {len(edges)}"]
    out += [f"e {u} {v}" for u, v in edges]
    return "\n".join(out) + "\n"


def planted_digraph(rng: np.random.Generator, label: np.random.Generator):
    """A 4-sink digraph built from one to three products plus stray edges,
    its vertices then permuted by label.

    Returns (edges, planted_size): planted_size is the size of the
    compression the construction itself gives, so the minimum is at most it.
    """
    subsets = [frozenset(c) for r in range(1, 5) for c in itertools.combinations(range(1, 5), r)]
    products = {
        (subsets[int(rng.integers(len(subsets)))], subsets[int(rng.integers(len(subsets)))])
        for _ in range(int(rng.integers(1, 4)))
    }
    edges = {(x, y) for a, b in products for x in a for y in b}
    size = len(products) + sum(len(s) for s in {s for p in products for s in p if len(s) > 1})
    for _ in range(int(rng.integers(0, 3))):
        e = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        if e not in edges:
            edges.add(e)
            size += 1
    rename = [0, *(int(x) + 1 for x in label.permutation(4))]
    return {(rename[x], rename[y]) for x, y in edges}, size


def messy_twinned(rng: np.random.Generator, label: np.random.Generator):
    """A valid, usually redundant compression of a twinned incidence graph.

    A random family of 1 to 4 distinct sets over 2 to 5 elements; set i gets
    twin sources n+2i+1 and n+2i+2 with edges to its elements. Each twin
    either points at its elements directly or at clusters over blocks of
    them; sometimes both twins hide behind a shared source-side cluster.
    label then permutes the elements and the twin pairs.
    Returns (dagc_text, shores_text, edges).
    """
    n = int(rng.integers(2, 6))
    family = set()
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, n + 1))
        family.add(frozenset(int(x) for x in rng.choice(np.arange(1, n + 1), size=size, replace=False)))
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    n_sinks = n + 2 * len(sets)
    arcs, cedges = set(), set()
    next_id = n_sinks

    def new_cluster(children):
        nonlocal next_id
        next_id += 1
        arcs.update((next_id, c) for c in children)
        return next_id

    def blocks(members):
        if len(members) >= 2 and rng.random() < 0.6:
            cut = int(rng.integers(1, len(members)))
            return [members[:cut], members[cut:]]
        return [[m] for m in members]

    def target(block):
        return block[0] if len(block) == 1 else new_cluster(block)

    edges = set()
    for i, s in enumerate(sets):
        members = sorted(s)
        t1, t2 = n + 2 * i + 1, n + 2 * i + 2
        edges.update((t, e) for t in (t1, t2) for e in members)
        if rng.random() < 0.3:
            parts = blocks(members)
            cedges.add((new_cluster([t1, t2]), target(parts[0])))
            for part in parts[1:]:
                tt = target(part)
                cedges.update({(t1, tt), (t2, tt)})
        else:
            for t in (t1, t2):
                cedges.update((t, target(part)) for part in blocks(members))
    element = label.permutation(n)
    pair = label.permutation(len(sets))

    def rename(v):
        if v <= n:
            return int(element[v - 1]) + 1
        if v <= n_sinks:
            i, j = divmod(v - n - 1, 2)
            return n + 2 * int(pair[i]) + j + 1
        return v

    arcs, cedges, edges = ({(rename(u), rename(v)) for u, v in e} for e in (arcs, cedges, edges))
    dagc = _dagc_text(True, n_sinks, next_id - n_sinks, sorted(arcs), sorted(cedges))
    sources = list(range(n + 1, n_sinks + 1))
    shores = (
        " ".join(map(str, ["shore1", len(sources), *sources])) + "\n"
        + " ".join(map(str, ["shore2", n, *range(1, n + 1)])) + "\n"
    )
    return dagc, shores, edges


def write_inputs(workload: str, seed: int, out_dir) -> tuple[dict, dict]:
    """Write the workload's input files into out_dir.

    Returns ({file name: text}, {file name: generator facts}); the facts are
    what the construction knows about an input (set-cover families, planted
    sizes, encoded edges) and feed the references.
    """
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    files, facts = {}, {}
    if workload == "mst-compressed":
        files["rook.dagc"] = rook_mst_text(ROOK_MST_G, rng)
        files["deep.dagc"] = deep_mst_text(rng)
    elif workload == "compress-expand":
        files["rook48.graph"] = rook_graph_text(ROOK_GRAPH_G)
        files["rook60.dagc"] = rook_mst_text(ROOK_CHECK_G, rng)
    elif workload == "exact-small":
        shape = np.random.default_rng(EXACT_SHAPES_SEED)
        for i, (n, sets, k) in enumerate(setcover_instances(shape, rng)):
            name = f"sc{i:03d}.setcover"
            files[name] = setcover_text(n, sets, k)
            facts[name] = {"n": n, "sets": [sorted(s) for s in sets], "k": k}
        for i in range(ORACLE_GRAPHS):
            edges, planted = planted_digraph(shape, rng)
            name = f"or{i:03d}.graph"
            files[name] = graph_text(True, 4, edges)
            facts[name] = {"planted": planted, "k": max(0, planted - int(shape.integers(0, 3)))}
        for i in range(NORMALIZE_CASES):
            dagc, shores, edges = messy_twinned(shape, rng)
            name = f"nm{i:03d}.dagc"
            files[name] = dagc
            files[f"nm{i:03d}.shores"] = shores
            facts[name] = {"edges": sorted(edges)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="ascii")
    return files, facts
