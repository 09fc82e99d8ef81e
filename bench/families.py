"""Seeded input families for the benchmark.

Every builder takes a `random.Random` and returns plain data that does
not depend on the package: an instance is `(n, edges, thresholds)` with
`edges` a sorted list of `(u, v)` pairs, `u < v`, and `thresholds` a
list indexed by vertex id minus one.  The benchmark's checks and the
reference solver work on this data, never on the package's own types.
"""

from __future__ import annotations

import random


def majority(n: int, edges) -> list[int]:
    degree = [0] * n
    for u, v in edges:
        degree[u - 1] += 1
        degree[v - 1] += 1
    return [max(1, (d + 1) // 2) for d in degree]


def sparse_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random spanning tree plus random extra edges up to m edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def disjoint_union(parts):
    """Glue instances side by side; ids of part i follow those of part i-1."""
    n, edges, thresholds = 0, [], []
    for pn, pedges, pthr in parts:
        edges += [(u + n, v + n) for u, v in pedges]
        thresholds += pthr
        n += pn
    return n, sorted(edges), thresholds


def relabel(rng: random.Random, instance):
    """The same instance under a random permutation of its ids.

    Returns the relabelled instance and the map old id -> new id.
    """
    n, edges, thresholds = instance
    new = list(range(1, n + 1))
    rng.shuffle(new)
    perm = {old: new[old - 1] for old in range(1, n + 1)}
    out_edges = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    )
    out_thr = [0] * n
    for old in range(1, n + 1):
        out_thr[perm[old] - 1] = thresholds[old - 1]
    return (n, out_edges, out_thr), perm


def path(n: int, t: int):
    return n, [(i, i + 1) for i in range(1, n)], [t] * n


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    def vid(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return sorted(edges)


def domino_path(rng: random.Random, islands: int, gap_lo: int, gap_hi: int):
    """Path of threshold-1 pairs between threshold-3 vertices, with
    `islands` runs of three threshold-3 vertices.

    Everything is red but the middle of each run, so the deletion rule
    removes all but the few vertices around each run; only the run
    middles can enter a harmless set.
    """
    thresholds = []
    for _ in range(islands):
        thresholds += [1, 1, 3] * rng.randint(gap_lo, gap_hi) + [3, 3]
    thresholds += [1, 1]
    n = len(thresholds)
    return n, [(i, i + 1) for i in range(1, n)], thresholds


def degree_thresholds(rng: random.Random, n: int, edges, low: float) -> list[int]:
    """Per vertex a threshold drawn from [low * d(v), d(v)], at least 1."""
    degree = [0] * n
    for u, v in edges:
        degree[u - 1] += 1
        degree[v - 1] += 1
    return [max(1, int(d * rng.uniform(low, 1.0))) for d in degree]


def blowup(rng: random.Random, classes: int, size_lo: int, size_hi: int, low: float):
    """A type graph on `classes` types, each blown up into a clique or an
    independent set; thresholds from `degree_thresholds`."""
    sizes = [rng.randint(size_lo, size_hi) for _ in range(classes)]
    kinds = [rng.random() < 0.5 for _ in range(classes)]  # True: clique
    type_edges = [
        (i, j) for i in range(classes) for j in range(i + 1, classes) if rng.random() < 0.4
    ]
    members, start = [], 1
    for s in sizes:
        members.append(list(range(start, start + s)))
        start += s
    edges = []
    for i, group in enumerate(members):
        if kinds[i]:
            edges += [(a, b) for x, a in enumerate(group) for b in group[x + 1:]]
    for i, j in type_edges:
        edges += [(a, b) for a in members[i] for b in members[j]]
    n = start - 1
    return n, sorted(edges), degree_thresholds(rng, n, edges, low)


def planted_twin_cover(
    rng: random.Random, cover: int, cliques: int, shapes: int, size_hi: int, low: float
):
    """Cover vertices 1..cover, then cliques whose neighbourhood in the
    cover is one of `shapes` random subsets; the cover is a twin cover.
    Thresholds from `degree_thresholds`."""
    nbhds = [
        [x for x in range(1, cover + 1) if rng.random() < 0.5] or [rng.randint(1, cover)]
        for _ in range(shapes)
    ]
    edges = [
        (a, b) for a in range(1, cover + 1) for b in range(a + 1, cover + 1) if rng.random() < 0.3
    ]
    nxt = cover + 1
    for _ in range(cliques):
        size = rng.randint(1, size_hi)
        group = list(range(nxt, nxt + size))
        nxt += size
        edges += [(a, b) for x, a in enumerate(group) for b in group[x + 1:]]
        edges += [(x, a) for x in rng.choice(nbhds) for a in group]
    n = nxt - 1
    return n, sorted(edges), degree_thresholds(rng, n, edges, low)


# Clique-width expressions are nested tuples: ("v", id, label),
# ("union", a, b), ("eta", i, j, e) and ("rho", i, j, e).

def path_cexpr(n: int):
    """Expression with 3 labels for the path 1-2-...-n (n >= 3)."""
    node = ("eta", 2, 1, ("union", ("v", 2, 2), ("v", 1, 1)))
    for k in range(3, n + 1):
        node = ("rho", 3, 2, ("rho", 2, 1, ("eta", 3, 2, ("union", ("v", k, 3), node))))
    return 3, node


def cograph_cexpr(rng: random.Random, n: int):
    """Random cograph by join/union recursion, with its 2-label expression."""
    edges = []

    def build(ids):
        if len(ids) == 1:
            return ("v", ids[0], 1)
        cut = rng.randrange(1, len(ids))
        a, b = build(ids[:cut]), build(ids[cut:])
        if rng.random() < 0.5:
            return ("union", a, b)
        edges.extend((min(u, v), max(u, v)) for u in ids[:cut] for v in ids[cut:])
        return ("rho", 2, 1, ("eta", 1, 2, ("union", a, ("rho", 1, 2, b))))

    return (2, build(list(range(1, n + 1)))), sorted(edges)


def relabel_cexpr(expr, perm):
    labels, root = expr

    def walk(node):
        if node[0] == "v":
            return ("v", perm[node[1]], node[2])
        if node[0] == "union":
            return ("union", walk(node[1]), walk(node[2]))
        return (node[0], node[1], node[2], walk(node[3]))

    return labels, walk(root)


def render_cexpr(expr) -> str:
    labels, root = expr
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node[0] == "v":
            out.append(f"(v {node[1]} {node[2]})")
        elif node[0] == "union":
            out.append("(union ")
            stack += [")", node[2], " ", node[1]]
        else:
            out.append(f"({node[0]} {node[1]} {node[2]} ")
            stack += [")", node[3]]
    return f"(cexpr {labels} " + "".join(out) + ")\n"


def render_instance(instance) -> str:
    n, edges, thresholds = instance
    lines = [f"p hs {n} {len(edges)}"]
    lines += [f"t {v} {t}" for v, t in enumerate(thresholds, start=1)]
    lines += [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"
