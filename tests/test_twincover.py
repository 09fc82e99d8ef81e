"""Twin-cover solver: cover search, decomposition caps, full solve."""

import random

import pytest

from harmless import (
    Graph,
    Instance,
    find_twin_cover,
    is_harmless,
    is_twin_cover,
    max_harmless_bruteforce,
    nd_partition,
    solve_twincover,
)
from harmless.twincover import decompose, minimum_twin_cover_bruteforce

from families import planted_twin_cover, random_instance

K4 = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
P3 = Graph(3, [(1, 2), (2, 3)])
C5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def test_is_twin_cover():
    assert is_twin_cover(K4, [])          # all endpoints true twins
    assert not is_twin_cover(P3, [])
    assert is_twin_cover(P3, [2])
    assert not is_twin_cover(C5, [1, 3])  # edge (4,5) uncovered, not twins
    assert is_twin_cover(C5, [1, 3, 4])


def test_find_twin_cover():
    assert find_twin_cover(K4, 0) == ()
    assert find_twin_cover(P3, 4) == (2,)
    assert find_twin_cover(C5, 2) is None
    cover = find_twin_cover(C5, 5)
    assert cover is not None and len(cover) == 3
    assert find_twin_cover(Graph(1, []), 0) == ()


def test_minimum_cover_matches_branching():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_instance(rng, 1, 8, p=0.45)
        want = minimum_twin_cover_bruteforce(inst.graph)
        got = find_twin_cover(inst.graph, inst.graph.n)
        assert got is not None and len(got) == len(want)
        assert is_twin_cover(inst.graph, got)
    with pytest.raises(ValueError):
        minimum_twin_cover_bruteforce(Graph(13, []))


def test_decompose_caps():
    # 3-clique left over, cover vertex 4 unattached: t(C)=2, alpha=1
    g = Graph(4, [(1, 2), (1, 3), (2, 3)])
    inst = Instance(g, (2, 3, 3, 1))
    d = decompose(inst, (4,), nd_partition(g))
    assert d.cliques == ((1, 2, 3),)
    assert d.rows == ((),)  # cover vertex 4 sees no class
    assert d.caps(()) == (2,)
    # alpha(C) = 3 > m = 2: tight, one seat lost
    tight = decompose(Instance(g, (2, 2, 2, 1)), (4,), nd_partition(g))
    assert tight.caps(()) == (1,)


def test_decompose_dead_guess():
    # clique attached to two chosen cover vertices, m = 2 - 2 = 0 < alpha
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5)])
    inst = Instance(g, (2, 2, 2, 1, 1))
    d = decompose(inst, (4, 5), nd_partition(g))
    assert d.rows == ((0,), (0,))  # both cover vertices see the one class
    assert d.caps((4, 5)) is None
    assert d.caps(()) is not None


def test_known_answers():
    assert solve_twincover(Instance(K4, (3, 3, 3, 3)), ()).size == 2
    assert solve_twincover(Instance(P3, (1, 2, 1)), (2,)).size == 1
    k3 = Instance(Graph(3, [(1, 2), (1, 3), (2, 3)]), (1, 1, 1))
    assert solve_twincover(k3, ()).size == 0
    # star of one clique hanging off a cover vertex
    g = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    inst = Instance(g, (2, 2, 2, 2))
    res = solve_twincover(inst, (1,))
    assert res.size == max_harmless_bruteforce(inst).size == 1


# planted covers of 7 vertices with 40 cliques of 1-6 vertices, which the
# integer programs' row sum cut alone did not answer in minutes; seed 18
# has 153 vertices; tests/test_milp_crosscheck.py confirms the sizes
PLANTED = [(1, 88), (7, 83), (18, 85)]


@pytest.mark.parametrize("seed, size", PLANTED)
def test_planted_covers_of_seven_are_answered(seed, size):
    inst = planted_twin_cover(random.Random(seed), 7, 40, 7, 6, 0.5)
    res = solve_twincover(inst, range(1, 8))
    assert res.size == len(res.witness) == size
    assert is_harmless(inst, res.witness)


def test_rejects_non_cover():
    with pytest.raises(ValueError):
        solve_twincover(Instance(P3, (1, 2, 1)), ())


def test_matches_oracle_on_randoms():
    rng = random.Random(37)
    for _ in range(120):
        inst = random_instance(rng, 1, 8, p=0.5, t_hi=4)
        cover = find_twin_cover(inst.graph, inst.graph.n)
        got = solve_twincover(inst, cover)
        want = max_harmless_bruteforce(inst)
        assert got.size == want.size, (inst, cover)
        assert is_harmless(inst, got.witness) and len(got.witness) == got.size
    # a non-minimal cover must give the same answer
    inst = Instance(C5, (1, 2, 1, 2, 1))
    full = solve_twincover(inst, (1, 2, 3, 4, 5))
    slim = solve_twincover(inst, find_twin_cover(C5, 5))
    assert full.size == slim.size == max_harmless_bruteforce(inst).size
