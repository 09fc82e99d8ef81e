"""Shared builders for test instances and c-expressions.

Every builder returns (expression, graph) pairs whose edge sets match,
so tests can pair arbitrary thresholds with a known-good expression.
"""

import random

from harmless import CExpression, Eta, Graph, Instance, Leaf, Rho, Union, majority_thresholds


def path_expr(n: int):
    # 3 labels: active end, interior, fresh vertex
    if n == 1:
        return CExpression(2, Leaf("1", 1)), Graph(1, [])
    node = Eta(2, 1, Union(Leaf("2", 2), Leaf("1", 1)))
    for k in range(3, n + 1):
        node = Rho(3, 2, Rho(2, 1, Eta(3, 2, Union(Leaf(str(k), 3), node))))
    c = 3 if n >= 3 else 2
    return CExpression(c, node), Graph(n, [(i, i + 1) for i in range(1, n)])


def clique_expr(n: int):
    node = Leaf("1", 1)
    for k in range(2, n + 1):
        node = Rho(2, 1, Eta(1, 2, Union(node, Leaf(str(k), 2))))
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return CExpression(2 if n >= 2 else 1, node), Graph(n, edges)


def _chain(leaves):
    node = leaves[0]
    for leaf in leaves[1:]:
        node = Union(node, leaf)
    return node


def biclique_expr(a: int, b: int):
    left = _chain([Leaf(str(i), 1) for i in range(1, a + 1)])
    right = _chain([Leaf(str(a + i), 2) for i in range(1, b + 1)])
    node = Eta(1, 2, Union(left, right))
    edges = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    return CExpression(2, node), Graph(a + b, edges)


def cograph_expr(n: int, rng: random.Random):
    """Random cograph via join/union recursion, 2 labels."""
    edges = []

    def build(idlist):
        if len(idlist) == 1:
            return Leaf(str(idlist[0]), 1)
        cut = rng.randrange(1, len(idlist))
        a, b = build(idlist[:cut]), build(idlist[cut:])
        if rng.random() < 0.5:
            return Union(a, b)
        for u in idlist[:cut]:
            for v in idlist[cut:]:
                edges.append((u, v))
        return Rho(2, 1, Eta(1, 2, Union(a, Rho(1, 2, b))))

    node = build(list(range(1, n + 1)))
    return CExpression(2, node), Graph(n, edges)


def expression_corpus(rng: random.Random):
    pairs = []
    for n in range(2, 11):
        pairs.append(path_expr(n))
    for n in range(2, 8):
        pairs.append(clique_expr(n))
    for a in range(1, 5):
        for b in range(a, 5):
            if a + b <= 9:
                pairs.append(biclique_expr(a, b))
    for n in (4, 5, 6, 7, 8, 9, 10):
        for _ in range(3):
            pairs.append(cograph_expr(n, rng))
    return pairs


def random_instance(rng: random.Random, n_lo=1, n_hi=9, p=0.4, t_hi=None) -> Instance:
    n = rng.randint(n_lo, n_hi)
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [e for e in pool if rng.random() < p]
    hi = t_hi if t_hi is not None else max(1, n // 2)
    thr = tuple(rng.randint(1, hi) for _ in range(n))
    return Instance(Graph(n, edges), thr)


def random_connected_instance(rng: random.Random, n_lo=4, n_hi=12) -> Instance:
    """Random spanning tree plus extra edges; thresholds within [1, d(v)]."""
    n = rng.randint(n_lo, n_hi)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        edges.add((min(u, v), max(u, v)))
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for e in pool:
        if rng.random() < 0.15:
            edges.add(e)
    graph = Graph(n, sorted(edges))
    thr = tuple(rng.randint(1, max(1, graph.degree(v))) for v in graph.vertices())
    return Instance(graph, thr)


def sparse_majority(rng, n):
    """Connected, n vertices and 2n edges (a random spanning tree plus
    random extra edges), majority thresholds."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < 2 * n:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return majority_thresholds(Graph(n, sorted(edges)))


def planted_twin_cover(rng, cover, cliques, shapes, size_hi, low) -> Instance:
    """Cover vertices 1..cover, then cliques of 1..size_hi vertices whose
    neighbourhood in the cover is one of `shapes` random subsets, so
    1..cover is a twin cover; each threshold is drawn from
    [low * d(v), d(v)], at least 1.  The same draws as the benchmark's
    generator of the same name."""
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
    graph = Graph(nxt - 1, edges)
    return Instance(
        graph, [max(1, int(d * rng.uniform(low, 1.0))) for d in map(len, graph.neighbors)]
    )
