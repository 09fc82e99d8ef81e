"""Property tests for the branch and bound oracle, plus pinned work counts."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from harmless import Graph, Instance, is_harmless, majority_thresholds, max_harmless_bruteforce

from families import random_connected_instance, random_instance

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    thresholds = draw(st.lists(st.integers(1, max(1, n)), min_size=n, max_size=n))
    return Instance(Graph(n, [e for e, k in zip(pairs, keep) if k]), thresholds)


def relabel(instance, perm):
    """perm[v-1] is the new id of vertex v."""
    graph = instance.graph
    thresholds = [0] * graph.n
    for v in graph.vertices():
        thresholds[perm[v - 1] - 1] = instance.threshold(v)
    edges = [(perm[u - 1], perm[v - 1]) for u, v in graph.edges]
    return Instance(Graph(graph.n, edges), thresholds)


def disjoint_union(a, b):
    shift = a.graph.n
    edges = list(a.graph.edges) + [(u + shift, v + shift) for u, v in b.graph.edges]
    return Instance(Graph(shift + b.graph.n, edges), a.thresholds + b.thresholds)


@PROPERTY
@given(instances())
def test_witness_is_first_combination_of_maximum_size(inst):
    res = max_harmless_bruteforce(inst)
    n = inst.graph.n
    first = next(
        c for c in itertools.combinations(range(1, n + 1), res.size) if is_harmless(inst, c)
    )
    assert res.witness == first
    assert not any(
        is_harmless(inst, c) for c in itertools.combinations(range(1, n + 1), res.size + 1)
    )


@PROPERTY
@given(instances(), st.data())
def test_size_invariant_under_relabelling(inst, data):
    perm = data.draw(st.permutations(range(1, inst.graph.n + 1)))
    assert max_harmless_bruteforce(relabel(inst, perm)).size == max_harmless_bruteforce(inst).size


@PROPERTY
@given(instances(), st.integers(1, 5))
def test_isolated_vertex_adds_one(inst, t):
    grown = Instance(Graph(inst.graph.n + 1, inst.graph.edges), inst.thresholds + (t,))
    assert max_harmless_bruteforce(grown).size == max_harmless_bruteforce(inst).size + 1


@PROPERTY
@given(instances(), st.data())
def test_raising_a_threshold_never_lowers_size(inst, data):
    if inst.graph.n == 0:
        return
    v = data.draw(st.integers(1, inst.graph.n))
    raised = list(inst.thresholds)
    raised[v - 1] += data.draw(st.integers(1, 3))
    before = max_harmless_bruteforce(inst).size
    assert max_harmless_bruteforce(Instance(inst.graph, raised)).size >= before


@PROPERTY
@given(instances(max_n=6), instances(max_n=6))
def test_disjoint_union_adds_optima(a, b):
    total = max_harmless_bruteforce(a).size + max_harmless_bruteforce(b).size
    assert max_harmless_bruteforce(disjoint_union(a, b)).size == total


def pinned_instances():
    out = [
        ("empty", 0, Instance(Graph(0, []), ())),
        ("edgeless", 0, Instance(Graph(5, []), (1, 2, 1, 3, 1))),
        ("clique", 0, Instance(Graph(5, list(itertools.combinations(range(1, 6), 2))), (2, 3, 3, 2, 4))),
    ]
    for seed in range(10):
        out.append(("random", seed, random_instance(random.Random(seed), n_lo=6, n_hi=14, p=0.3)))
    for seed in range(10):
        out.append(("connected", seed, random_connected_instance(random.Random(seed), n_lo=8, n_hi=16)))
    for seed in range(6):
        rng = random.Random(seed)
        n = 18 + 2 * seed
        pool = list(itertools.combinations(range(1, n + 1), 2))
        out.append(("majority", seed, majority_thresholds(Graph(n, rng.sample(pool, 2 * n)))))
    return out


# (search nodes, witness) per instance; the node count is the work the
# oracle does and the point where --budget trips, so it is pinned too.
PINNED = {
    ("empty", 0): (1, ()),
    ("edgeless", 0): (26, (1, 2, 3, 4, 5)),
    ("clique", 0): (20, (1, 4)),
    ("random", 0): (268, (1, 2, 3, 10, 11)),
    ("random", 1): (70, (1, 2, 5, 7)),
    ("random", 2): (45, (3, 4, 6)),
    ("random", 3): (62, (2, 6, 9)),
    ("random", 4): (72, (1, 2, 3)),
    ("random", 5): (45, (4, 7)),
    ("random", 6): (44, (1, 2, 3, 6)),
    ("random", 7): (100, (1, 6, 8)),
    ("random", 8): (62, (1, 2, 3, 7, 8)),
    ("random", 9): (149, (1, 5, 7, 9, 12)),
    ("connected", 0): (21, (6,)),
    ("connected", 1): (79, (1, 4, 10)),
    ("connected", 2): (41, (1, 2, 3, 7)),
    ("connected", 3): (52, (2, 4, 7, 9)),
    ("connected", 4): (57, (1, 2, 5, 7)),
    ("connected", 5): (74, (2, 7, 8)),
    ("connected", 6): (60, (2, 5, 6)),
    ("connected", 7): (36, (5, 9)),
    ("connected", 8): (39, (1, 4)),
    ("connected", 9): (20, (1,)),
    ("majority", 0): (1150, (1, 3, 4, 5, 13, 15, 17)),
    ("majority", 1): (3016, (1, 5, 6, 12, 13, 14, 15, 19)),
    ("majority", 2): (2782, (1, 2, 3, 4, 10, 12, 14, 15, 19)),
    ("majority", 3): (2889, (2, 3, 6, 9, 10, 12, 19, 21)),
    ("majority", 4): (15172, (2, 3, 5, 16, 19, 20, 24, 25)),
    ("majority", 5): (68610, (2, 10, 11, 12, 15, 19, 21, 23, 24, 25, 27)),
}


def test_pinned_node_counts():
    got = {}
    for family, seed, inst in pinned_instances():
        res = max_harmless_bruteforce(inst)
        got[(family, seed)] = (res.stats["nodes"], res.witness)
    assert got == PINNED
