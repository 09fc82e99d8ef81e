"""The structural layer against reference copies of its quadratic forms.

`nd_partition`, `_diameter_scan`, `apply_reduction1` and
`find_twin_cover` were rewritten to run in near-linear time with the
same outputs.  The straightforward versions they replaced are kept here
as references, and Hypothesis compares the two on random graphs, twin
blow-ups, disjoint unions, isolated vertices and paths.  The references
test twinhood straight from its definition, so they share no code with
the package's `are_twins`, which is checked against that definition
too, as is `slack`.  Work tests count calls instead of timing them.
"""

import random

from hypothesis import given, settings, strategies as st

import harmless.nd as nd
import harmless.planar as planar
import harmless.twincover as twincover
from harmless import Graph, Instance, apply_reduction1, find_twin_cover, nd_partition
from harmless.planar import _diameter_scan, color_vertices
from harmless.core import is_harmless, slack
from harmless.nd import are_twins

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- reference copies -------------------------------------------------------


def reference_twins(graph, u, v):
    """Every third vertex w sees both u and v or neither."""
    return all(
        graph.has_edge(u, w) == graph.has_edge(v, w)
        for w in graph.vertices()
        if w not in (u, v)
    )


def reference_nd_partition(graph):
    classes = []
    for v in graph.vertices():
        for cls in classes:
            if reference_twins(graph, cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    kinds = tuple(
        "clique" if len(cls) >= 2 and graph.has_edge(cls[0], cls[1]) else "independent"
        for cls in classes
    )
    nbrs = tuple(
        tuple(j for j, cj in enumerate(classes) if j != i and graph.has_edge(ci[0], cj[0]))
        for i, ci in enumerate(classes)
    )
    return tuple(tuple(c) for c in classes), kinds, nbrs


def reference_bfs(graph, source):
    dist = {source: 0}
    queue = [source]
    while queue:
        v = queue.pop(0)
        for u in sorted(graph.neighbors[v - 1]):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def reference_diameter_scan(instance, k):
    graph = instance.graph
    red = color_vertices(instance)
    diameter_seen = 0
    for source in graph.vertices():
        dist = reference_bfs(graph, source)
        ecc = max(dist.values())
        diameter_seen = max(diameter_seen, ecc)
        if ecc < 6 * k:
            continue
        target = min(v for v, d in dist.items() if d == 6 * k)
        path = [target]
        while path[-1] != source:
            w = path[-1]
            path.append(min(u for u in graph.neighbors[w - 1] if dist.get(u) == dist[w] - 1))
        path.reverse()
        picks = []
        for i in range(k + 1):
            v = path[6 * i]
            if v not in red:
                picks.append(v)
                continue
            green = [u for u in sorted(graph.neighbors[v - 1]) if u not in red]
            if not green:
                return None, None, diameter_seen
            picks.append(green[0])
        witness = tuple(sorted(set(picks)))
        if len(witness) < k or not is_harmless(instance, witness):
            return None, None, diameter_seen
        return witness, tuple(path), diameter_seen
    return None, None, diameter_seen


def reference_reduction1(instance):
    graph = instance.graph
    alive = set(graph.vertices())
    log = []
    while True:
        red = {
            v
            for v in alive
            if any(u in alive and instance.threshold(u) == 1 for u in graph.neighbors[v - 1])
        }
        candidates = {
            v for v in red if all(u in red for u in graph.neighbors[v - 1] if u in alive)
        }
        chosen = set(candidates)
        while True:
            blocked = {
                v
                for v in chosen
                if instance.threshold(v)
                <= sum(1 for u in graph.neighbors[v - 1] if u in alive and u not in chosen)
            }
            if not blocked:
                break
            chosen -= blocked
        if not chosen:
            break
        log += sorted(chosen)
        alive -= chosen
    survivors = sorted(alive)
    rank = {v: i + 1 for i, v in enumerate(survivors)}
    edges = [(rank[u], rank[v]) for u, v in graph.edges if u in alive and v in alive]
    reduced = Instance(Graph(len(survivors), edges), [instance.threshold(v) for v in survivors])
    return reduced, tuple(log)


def reference_twin_cover(graph, k_max):
    hard = [e for e in graph.edges if not reference_twins(graph, *e)]

    def branch(chosen, budget):
        for u, v in hard:
            if u not in chosen and v not in chosen:
                if budget == 0:
                    return None
                for pick in (u, v):
                    chosen.add(pick)
                    found = branch(chosen, budget - 1)
                    if found is not None:
                        return found
                    chosen.remove(pick)
                return None
        return tuple(sorted(chosen))

    for k in range(k_max + 1):
        found = branch(set(), k)
        if found is not None:
            return found
    return None


# -- graph strategies -------------------------------------------------------


@st.composite
def random_graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@st.composite
def blowups(draw):
    """Each vertex of a small base graph becomes a clique or an
    independent set; base edges become complete bipartite joins."""
    b, base = draw(random_graphs(max_n=5))
    blocks, n = [], 0
    for _ in range(b):
        size = draw(st.integers(1, 3))
        blocks.append(list(range(n + 1, n + size + 1)))
        n += size
    edges = []
    for block in blocks:
        if draw(st.booleans()):
            edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
    for x, y in base:
        edges += [(u, v) for u in blocks[x - 1] for v in blocks[y - 1]]
    return n, edges


def path_part(length):
    return length, [(i, i + 1) for i in range(1, length)]


def union(parts):
    n, edges = 0, []
    for size, part in parts:
        edges += [(u + n, v + n) for u, v in part]
        n += size
    return n, edges


@st.composite
def relabelled(draw, parts):
    """Disjoint union of `parts` plus isolated vertices, ids shuffled."""
    isolated = draw(st.integers(0, 3))
    n, edges = union(parts + [(isolated, [])])
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


pieces = st.one_of(random_graphs(), blowups(), st.integers(1, 6).map(
    lambda n: (n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
))
structured_graphs = st.lists(pieces, min_size=1, max_size=3).flatmap(relabelled)


@st.composite
def trees(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    return n, [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]


sparse_pieces = st.one_of(random_graphs(max_n=7), trees(), st.integers(1, 40).map(path_part))
scan_graphs = st.lists(sparse_pieces, min_size=1, max_size=4).flatmap(relabelled)


@st.composite
def with_thresholds(draw, graphs, t_hi):
    graph = draw(graphs)
    thresholds = draw(st.lists(st.integers(1, t_hi), min_size=graph.n, max_size=graph.n))
    return Instance(graph, thresholds)


# -- equivalence with the references ----------------------------------------


@PROPERTY
@given(structured_graphs, st.data())
def test_are_twins_matches_definition(graph, data):
    if graph.n < 2:
        return
    for _ in range(2):
        u = data.draw(st.integers(1, graph.n))
        for v in graph.vertices():
            if v != u:
                assert are_twins(graph, u, v) == reference_twins(graph, u, v), (u, v)


@PROPERTY
@given(with_thresholds(structured_graphs, 4), st.data())
def test_slack_matches_count(inst, data):
    graph = inst.graph
    chosen = data.draw(st.sets(st.integers(1, graph.n))) if graph.n else set()
    want = tuple(
        inst.threshold(v) - sum(1 for u in chosen if graph.has_edge(v, u))
        for v in graph.vertices()
    )
    assert slack(inst, chosen) == want


@PROPERTY
@given(structured_graphs)
def test_nd_partition_matches_reference(graph):
    part = nd_partition(graph)
    assert (part.classes, part.kinds, part.type_neighbors) == reference_nd_partition(graph)


@PROPERTY
@given(with_thresholds(scan_graphs, 3), st.data())
def test_diameter_scan_matches_reference(inst, data):
    if inst.graph.n == 0:
        return
    k = data.draw(st.integers(1, (inst.graph.n - 1) // 6 + 2))
    witness, path, seen = _diameter_scan(inst, k)
    ref_witness, ref_path, ref_seen = reference_diameter_scan(inst, k)
    assert (witness, path) == (ref_witness, ref_path)
    assert seen <= ref_seen


@PROPERTY
@given(st.one_of(with_thresholds(structured_graphs, 3), with_thresholds(scan_graphs, 2)))
def test_reduction1_matches_reference(inst):
    assert apply_reduction1(inst) == reference_reduction1(inst)


@PROPERTY
@given(structured_graphs)
def test_find_twin_cover_matches_reference(graph):
    for k_max in range(9):
        assert find_twin_cover(graph, k_max) == reference_twin_cover(graph, k_max)


def test_scan_searches_on_when_the_first_source_sits_mid_path():
    """ecc(s) = 3k exactly does not rule a component out: the far ends
    of a path on 6k + 1 vertices, numbered from its middle, still fire."""
    for k in range(1, 5):
        n = 6 * k + 1
        by_depth = sorted(range(n), key=lambda i: abs(i - 3 * k))
        ids = {pos: rank + 1 for rank, pos in enumerate(by_depth)}
        graph = Graph(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])
        inst = Instance(graph, [3] * n)
        witness, path, _ = _diameter_scan(inst, k)
        assert witness is not None
        assert (witness, path) == reference_diameter_scan(inst, k)[:2]


# -- work counts ------------------------------------------------------------


def test_rule_miss_on_long_path_runs_one_bfs(monkeypatch):
    calls = []
    bfs = planar.bfs_distances
    monkeypatch.setattr(planar, "bfs_distances", lambda g, s: calls.append(s) or bfs(g, s))
    n = 2000
    inst = Instance(Graph(n, [(i, i + 1) for i in range(1, n)]), [3] * n)
    assert _diameter_scan(inst, (n - 1) // 6 + 1) == (None, None, n - 1)
    assert calls == [1]


def sparse_graph(n, seed):
    """n vertices and 2n distinct random edges."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 2 * n:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def count_pairwise_tests(monkeypatch):
    """Route every binding of `are_twins` through one call log."""
    calls = []
    spy = lambda g, u, v: calls.append((u, v)) or are_twins(g, u, v)  # noqa: E731
    monkeypatch.setattr(nd, "are_twins", spy)
    monkeypatch.setattr(twincover, "are_twins", spy)
    return calls


def test_nd_partition_on_sparse_graph_makes_no_pairwise_test(monkeypatch):
    calls = count_pairwise_tests(monkeypatch)
    part = nd_partition(sparse_graph(4000, 4000))
    assert sum(map(len, part.classes)) == 4000
    assert calls == []


def test_find_twin_cover_on_sparse_graph_makes_no_pairwise_test(monkeypatch):
    calls = count_pairwise_tests(monkeypatch)
    graph = sparse_graph(4000, 4000)
    assert find_twin_cover(graph, 8) is None
    assert find_twin_cover(graph, 8, nd_partition(graph)) is None
    assert calls == []


def test_type_graph_is_built_on_first_read():
    # the partition and the twin cover search leave it unbuilt; the
    # first read builds it once and it matches the reference
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(0, 12)
        graph = Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.random() < 0.4])
        part = nd_partition(graph)
        find_twin_cover(graph, 4, part)
        assert "type_neighbors" not in vars(part)
        assert (part.classes, part.kinds, part.type_neighbors) == reference_nd_partition(graph)
        assert vars(part)["type_neighbors"] is part.type_neighbors
