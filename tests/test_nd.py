"""Neighbourhood-diversity solver: partition, per-guess ILP, full solve."""

import itertools
import random

import pytest

from harmless import Graph, Instance, is_harmless, max_harmless_bruteforce, nd_partition, solve_nd
from harmless.nd import _select_members, are_twins, build_nd_ilp, class_threshold_stats
from harmless.ilp import maximize

from families import random_instance

# 9 vertices: 5 is a hub, {6,7} a joined adjacent pair, {8,9} a joined
# non-adjacent pair, 1..4 pendant on the hub
HUB9 = Graph(
    9,
    [(1, 5), (2, 5), (3, 5), (4, 5), (5, 6), (5, 7), (5, 8), (5, 9),
     (6, 7), (6, 8), (6, 9), (7, 8), (7, 9)],
)


def test_are_twins():
    assert are_twins(HUB9, 1, 2)      # false twins via the hub
    assert are_twins(HUB9, 6, 7)      # true twins
    assert are_twins(HUB9, 8, 9)
    assert not are_twins(HUB9, 1, 6)
    assert not are_twins(HUB9, 5, 6)


def test_partition_four_classes():
    part = nd_partition(HUB9)
    assert part.classes == ((1, 2, 3, 4), (5,), (6, 7), (8, 9))
    assert part.kinds == ("independent", "independent", "clique", "independent")
    assert part.type_neighbors == ((1,), (0, 2, 3), (1, 3), (1, 2))
    assert part.width == 4


def test_partition_degenerate():
    k5 = Graph(5, [(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
    part = nd_partition(k5)
    assert part.width == 1 and part.kinds == ("clique",)
    empty = nd_partition(Graph(4, []))
    assert empty.width == 1 and empty.kinds == ("independent",)


def test_partition_matches_pairwise_twins():
    rng = random.Random(17)
    for _ in range(60):
        inst = random_instance(rng, 1, 10)
        part = nd_partition(inst.graph)
        index = {}
        for ci, members in enumerate(part.classes):
            for v in members:
                index[v] = ci
        for u in inst.graph.vertices():
            for v in inst.graph.vertices():
                if u < v:
                    assert (index[u] == index[v]) == are_twins(inst.graph, u, v)


def test_class_threshold_stats():
    inst = Instance(Graph(3, []), (2, 1, 1))
    assert class_threshold_stats(inst, (1, 2, 3)) == (1, 2)


def test_single_clique_class_guesses():
    # K4 with thresholds (2,3,3,3): saturating guess allows x = 2
    k4 = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    inst = Instance(k4, (2, 3, 3, 3))
    part = nd_partition(k4)
    assert part.kinds == ("clique",)
    sat = maximize(build_nd_ilp(inst, part, frozenset({0})))
    assert sat is not None and sat.value == 2
    lo = maximize(build_nd_ilp(inst, part, frozenset()))
    assert lo is not None and lo.value == 0  # below alpha means x <= alpha-1 = 0
    assert solve_nd(inst).size == 2


def test_guess_alpha_one_forces_zero():
    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
    inst = Instance(k3, (1, 2, 2))
    part = nd_partition(k3)
    low = maximize(build_nd_ilp(inst, part, frozenset()))
    assert low is not None and low.value == 0


def test_guess_rejects_independent_class():
    part = nd_partition(Graph(2, []))
    with pytest.raises(ValueError):
        build_nd_ilp(Instance(Graph(2, []), (1, 1)), part, frozenset({0}))


def test_feasible_points_reconstruct_harmless():
    # lattice soundness: every ILP-feasible point maps to a harmless set
    rng = random.Random(23)
    tried = 0
    while tried < 40:
        inst = random_instance(rng, 2, 6, p=0.5)
        part = nd_partition(inst.graph)
        if part.width > 3 or any(len(c) > 3 for c in part.classes):
            continue
        tried += 1
        clique_classes = [i for i in range(part.width) if part.kinds[i] == "clique"]
        for bits in range(1 << len(clique_classes)):
            guess = frozenset(c for j, c in enumerate(clique_classes) if bits >> j & 1)
            model = build_nd_ilp(inst, part, guess)
            ranges = [range(v.lower, v.upper + 1) for v in model.variables]
            for point in itertools.product(*ranges):
                if any(
                    sum(a * x for a, x in zip(con.coeffs, point)) > con.bound
                    for con in model.constraints
                ):
                    continue
                chosen = _select_members(inst, part, point)
                assert is_harmless(inst, chosen), (inst, guess, point)


def test_known_answers():
    k3 = Instance(Graph(3, [(1, 2), (1, 3), (2, 3)]), (1, 1, 1))
    assert solve_nd(k3).size == 0
    k23 = Instance(
        Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),
        (1, 1, 1, 1, 1),
    )
    assert solve_nd(k23).size == 0
    strict = Instance(HUB9, tuple(HUB9.degree(v) for v in HUB9.vertices()))
    assert solve_nd(strict).size == max_harmless_bruteforce(strict).size


def test_matches_oracle_on_randoms():
    rng = random.Random(29)
    for _ in range(120):
        inst = random_instance(rng, 1, 9, p=0.45, t_hi=4)
        got = solve_nd(inst)
        want = max_harmless_bruteforce(inst)
        assert got.size == want.size, inst
        assert is_harmless(inst, got.witness) and len(got.witness) == got.size
        assert got.stats["guesses"] >= 1
