"""Property tests for the branch and bound oracle and its Lagrangian
bound, plus pinned work counts."""

import functools
import itertools
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from harmless import (
    Graph,
    Instance,
    is_harmless,
    majority_thresholds,
    max_harmless_bruteforce,
    maximize,
)
from harmless.ilp import DUAL_SCALE, DUAL_SWEEPS, packing_dual

from families import random_connected_instance, random_instance, sparse_majority
from oracle_reference import reference_bruteforce

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, max_n=10, ones=False):
    """Random graph and thresholds; with `ones`, about half the
    thresholds are 1, so many vertices can never be taken."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    threshold = st.integers(1, max(1, n))
    if ones:
        threshold = st.one_of(st.just(1), threshold)
    thresholds = draw(st.lists(threshold, min_size=n, max_size=n))
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


@st.composite
def relabelled_unions(draw):
    """Disjoint unions of 1-3 parts, at most 14 vertices in all, under a
    random relabelling, so that the components interleave in id order.
    A part has majority thresholds, thresholds about half of which are
    1, or is a path whose thresholds are all 2.  Majority thresholds give
    many optima, so phase two often moves off phase one's set.  A path
    splits into its odd and its even positions, two components of the
    engine's model, and one with an even number of vertices has several
    optima, so a component after the first needs phase two as well."""
    k = draw(st.integers(1, 3))
    parts = []
    for _ in range(k):
        kind = draw(st.sampled_from(("majority", "ones", "path")))
        if kind == "path":
            n = draw(st.integers(0, 14 // k))
            parts.append(Instance(Graph(n, [(i, i + 1) for i in range(1, n)]), [2] * n))
            continue
        part = draw(instances(max_n=14 // k, ones=True))
        parts.append(majority_thresholds(part.graph) if kind == "majority" else part)
    union = functools.reduce(disjoint_union, parts)
    return relabel(union, draw(st.permutations(range(1, union.graph.n + 1))))


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


@PROPERTY
@given(relabelled_unions())
def test_matches_reference_oracle(inst):
    got = max_harmless_bruteforce(inst)
    want = reference_bruteforce(inst)
    assert (got.size, got.witness) == (want.size, want.witness)


def packing_form(inst):
    """The harmless set program of the whole graph in the packing form:
    row v caps the neighbours of v at t(v) - 1, each vertex a 0/1
    variable (vertex v is variable v - 1)."""
    rows = [[u - 1 for u in nbrs] for nbrs in inst.graph.neighbors]
    return rows, [t - 1 for t in inst.thresholds], [1] * inst.graph.n


def reduced_costs(rows, p, nvars):
    spent = [0] * nvars
    for row, x in zip(rows, p):
        for i in row:
            spent[i] += x
    return [max(0, DUAL_SCALE - s) for s in spent]


def multipliers(count):
    return st.lists(st.integers(0, 2 * DUAL_SCALE), min_size=count, max_size=count)


def lagrangian(bounds, upper, p, c):
    return sum(x * b for x, b in zip(p, bounds)) + sum(u * x for u, x in zip(upper, c))


def sweep_cap(nvars):
    return min(max(1, nvars // 3, nvars * nvars // 100), DUAL_SWEEPS)


@PROPERTY
@given(instances())
def test_dual_bound_covers_optimum(inst):
    rows, bounds, upper = packing_form(inst)
    stats = {}
    p, c = packing_dual(rows, bounds, upper, stats)
    assert all(type(x) is int and x >= 0 for x in p)
    assert c == reduced_costs(rows, p, len(upper))
    # within the cap, and no sweep at all for the empty model
    assert stats["lp_iterations"] <= (sweep_cap(len(upper)) if upper else 0)
    assert lagrangian(bounds, upper, p, c) >= DUAL_SCALE * reference_bruteforce(inst).size


@PROPERTY
@given(instances(), st.data())
def test_any_multipliers_bound_optimum(inst, data):
    rows, bounds, upper = packing_form(inst)
    p = data.draw(multipliers(len(rows)))
    c = reduced_costs(rows, p, len(upper))
    assert lagrangian(bounds, upper, p, c) >= DUAL_SCALE * reference_bruteforce(inst).size


@PROPERTY
@given(relabelled_unions(), st.data())
def test_exact_under_any_multipliers(inst, data):
    # the bound holds for every p >= 0, so multipliers drawn at random
    # move only the order and the node count, never the answer
    def drawn(rows, bounds, upper, stats):
        p = data.draw(multipliers(len(rows)))
        return p, reduced_costs(rows, p, len(upper))

    with mock.patch("harmless.ilp.packing_dual", drawn):
        got = max_harmless_bruteforce(inst)
    want = reference_bruteforce(inst)
    assert (got.size, got.witness) == (want.size, want.witness)


@st.composite
def packing_models(draw, max_vars=6):
    """Packing programs over variables with upper bounds 0-3, each row
    listing distinct variables."""
    n = draw(st.integers(0, max_vars))
    upper = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    row = st.lists(st.integers(0, n - 1), unique=True) if n else st.just([])
    rows = draw(st.lists(row, max_size=6))
    bounds = draw(st.lists(st.integers(0, 6), min_size=len(rows), max_size=len(rows)))
    return rows, bounds, upper


@PROPERTY
@given(packing_models())
def test_dual_bound_covers_packing_optimum(model):
    rows, bounds, upper = model
    stats = {}
    p, c = packing_dual(rows, bounds, upper, stats)
    assert all(type(x) is int and x >= 0 for x in p)
    assert c == reduced_costs(rows, p, len(upper))
    assert stats["lp_iterations"] <= sweep_cap(len(upper))
    best = maximize(rows, bounds, [0] * len(upper), upper)
    assert lagrangian(bounds, upper, p, c) >= DUAL_SCALE * sum(best)


@PROPERTY
@given(packing_models(max_vars=12))
def test_dual_bound_never_rises(model):
    # capping the sweeps at 0, 1, 2, ... gives bounds that never rise,
    # starting from the bound at p = 0
    rows, bounds, upper = model
    values = []
    for cap in range(6):
        with mock.patch("harmless.ilp.DUAL_SWEEPS", cap):
            p, c = packing_dual(rows, bounds, upper)
        values.append(lagrangian(bounds, upper, p, c))
    assert values[0] == DUAL_SCALE * sum(upper)
    assert values == sorted(values, reverse=True)


@PROPERTY
@given(packing_models(max_vars=12))
def test_settled_dual_is_coordinatewise_minimal(model):
    # variables in no row only add a constant to L, but they lift the
    # sweep cap to DUAL_SWEEPS, so the descent runs until a sweep
    # changes nothing; then no single p[r] + 1 or p[r] - 1 lowers L
    rows, bounds, upper = model
    padded = upper + [1] * 80
    stats = {}
    p, c = packing_dual(rows, bounds, padded, stats)
    assert stats["lp_iterations"] < DUAL_SWEEPS

    def value(q):
        return lagrangian(bounds, padded, q, reduced_costs(rows, q, len(padded)))

    least = lagrangian(bounds, padded, p, c)
    for r, x in enumerate(p):
        for y in (x - 1, x + 1):
            if y >= 0:
                assert value(p[:r] + [y] + p[r + 1:]) >= least


def test_small_components_do_not_multiply():
    # four sparse majority graphs side by side, relabelled: searched as
    # one graph, their branches multiply to over 2,000,000 nodes
    rng = random.Random(12)
    parts = [sparse_majority(rng, n) for n in (10, 9, 10, 10)]
    union = functools.reduce(disjoint_union, parts)
    perm = list(range(1, union.graph.n + 1))
    rng.shuffle(perm)
    res = max_harmless_bruteforce(relabel(union, perm), node_budget=5_000)
    assert res.size == sum(max_harmless_bruteforce(p).size for p in parts) == 11
    assert res.witness == (1, 5, 7, 9, 10, 14, 19, 22, 23, 30, 33)


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


# (search nodes, dual sweeps, witness) per instance; the node count is
# the work the oracle does and the point where --budget trips, and the
# sweeps are the work of its Lagrangian bound, so both are pinned too.
PINNED = {
    ("empty", 0): (1, 0, ()),
    ("edgeless", 0): (1, 0, (1, 2, 3, 4, 5)),
    ("clique", 0): (4, 1, (1, 4)),
    ("random", 0): (6, 2, (1, 2, 3, 10, 11)),
    ("random", 1): (5, 1, (1, 2, 5, 7)),
    ("random", 2): (4, 1, (3, 4, 6)),
    ("random", 3): (3, 1, (2, 6, 9)),
    ("random", 4): (5, 3, (1, 2, 3)),
    ("random", 5): (4, 1, (4, 7)),
    ("random", 6): (5, 1, (1, 2, 3, 6)),
    ("random", 7): (4, 1, (1, 6, 8)),
    ("random", 8): (5, 1, (1, 2, 3, 7, 8)),
    ("random", 9): (4, 1, (1, 5, 7, 9, 12)),
    ("connected", 0): (1, 0, (6,)),
    ("connected", 1): (5, 2, (1, 4, 10)),
    ("connected", 2): (5, 1, (1, 2, 3, 7)),
    ("connected", 3): (1, 0, (2, 4, 7, 9)),
    ("connected", 4): (6, 1, (1, 2, 5, 7)),
    ("connected", 5): (5, 2, (2, 7, 8)),
    ("connected", 6): (5, 1, (2, 5, 6)),
    ("connected", 7): (1, 0, (5, 9)),
    ("connected", 8): (4, 1, (1, 4)),
    ("connected", 9): (3, 1, (1,)),
    ("majority", 0): (10, 5, (1, 3, 4, 5, 13, 15, 17)),
    ("majority", 1): (15, 5, (1, 5, 6, 12, 13, 14, 15, 19)),
    ("majority", 2): (38, 5, (1, 2, 3, 4, 10, 12, 14, 15, 19)),
    ("majority", 3): (13, 5, (2, 3, 6, 9, 10, 12, 19, 21)),
    ("majority", 4): (22, 7, (2, 3, 5, 16, 19, 20, 24, 25)),
    ("majority", 5): (95, 7, (2, 10, 11, 12, 15, 19, 21, 23, 24, 25, 27)),
}


def test_pinned_node_counts():
    got = {}
    for family, seed, inst in pinned_instances():
        res = max_harmless_bruteforce(inst)
        got[(family, seed)] = (res.stats["nodes"], res.stats["lp_iterations"], res.witness)
    assert got == PINNED
