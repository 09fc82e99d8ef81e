"""Brute-force reference solvers and the auxiliary problem formats."""

import itertools
import random

import pytest

from harmless import (
    FormatError,
    Graph,
    Instance,
    MrssInstance,
    OracleLimitError,
    WeightedGraph,
    is_harmless,
    max_harmless_bruteforce,
    mmo_feasible_bruteforce,
    mrss_feasible_bruteforce,
    parse_mmo,
    parse_mrss,
    serialize_mmo,
    serialize_mrss,
)

from families import random_instance


def brute_by_enumeration(inst):
    """Independent reference: scan all subsets, largest then lex-least."""
    n = inst.graph.n
    best = (0, ())
    for size in range(n, -1, -1):
        hits = [
            combo
            for combo in itertools.combinations(range(1, n + 1), size)
            if is_harmless(inst, combo)
        ]
        if hits:
            best = (size, min(hits))
            break
    return best


def test_known_maxima():
    k3 = Instance(Graph(3, [(1, 2), (1, 3), (2, 3)]), (1, 1, 1))
    res = max_harmless_bruteforce(k3)
    assert res.size == 0 and res.witness == ()
    p3 = Instance(Graph(3, [(1, 2), (2, 3)]), (1, 2, 1))
    res = max_harmless_bruteforce(p3)
    assert res.size == 1 and res.witness == (1,)
    star = Instance(Graph(4, [(1, 2), (1, 3), (1, 4)]), (2, 1, 1, 1))
    res = max_harmless_bruteforce(star)
    assert res.size == 1 and res.witness == (2,)  # center blocked by t=1 leaves
    k4 = Instance(Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]), (2, 3, 3, 3))
    res = max_harmless_bruteforce(k4)
    assert res.size == 2 and res.witness == (1, 2)


def test_empty_and_edgeless():
    one = max_harmless_bruteforce(Instance(Graph(1, []), (1,)))
    assert one.size == 1 and one.witness == (1,)
    free = max_harmless_bruteforce(Instance(Graph(4, []), (1, 1, 1, 1)))
    assert free.size == 4


def test_result_shape():
    res = max_harmless_bruteforce(Instance(Graph(2, [(1, 2)]), (2, 2)))
    assert res.solver == "brute"
    assert res.stats["nodes"] >= 1
    assert is_harmless(Instance(Graph(2, [(1, 2)]), (2, 2)), res.witness)


def test_agrees_with_subset_enumeration():
    rng = random.Random(3)
    for _ in range(120):
        inst = random_instance(rng, 1, 8)
        res = max_harmless_bruteforce(inst)
        size, witness = brute_by_enumeration(inst)
        assert (res.size, res.witness) == (size, witness), inst


def test_node_budget():
    k4 = Instance(Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]), (3, 3, 3, 3))
    with pytest.raises(OracleLimitError):
        max_harmless_bruteforce(k4, node_budget=1)


# weighted orientation oracle

def test_mmo_single_edge():
    g = Graph(2, [(1, 2)])
    ok, orientation = mmo_feasible_bruteforce(WeightedGraph(g, {(1, 2): 5}, 5))
    assert ok and orientation in (((1, 2),), ((2, 1),))
    ok, orientation = mmo_feasible_bruteforce(WeightedGraph(g, {(1, 2): 5}, 4))
    assert not ok and orientation is None


def test_mmo_triangle_cyclic():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    wg = WeightedGraph(g, {(1, 2): 2, (1, 3): 2, (2, 3): 2}, 2)
    ok, orientation = mmo_feasible_bruteforce(wg)
    assert ok
    out = {v: 0 for v in (1, 2, 3)}
    for tail, head in orientation:
        out[tail] += wg.weights[(min(tail, head), max(tail, head))]
    assert max(out.values()) <= 2


def test_mmo_edge_limit():
    edges = [(i, i + 1) for i in range(1, 25)]
    wg = WeightedGraph(Graph(25, edges), {e: 1 for e in edges}, 9)
    with pytest.raises(OracleLimitError):
        mmo_feasible_bruteforce(wg)


def test_weighted_graph_validation():
    g = Graph(2, [(1, 2)])
    with pytest.raises(ValueError):
        WeightedGraph(g, {}, 3)
    with pytest.raises(ValueError):
        WeightedGraph(g, {(1, 2): 0}, 3)
    with pytest.raises(ValueError):
        WeightedGraph(g, {(1, 2): 1, (1, 3): 1}, 3)
    wg = WeightedGraph(g, {(2, 1): 4}, 3)
    assert wg.weights == {(1, 2): 4}
    assert wg.weighted_degree(1) == 4


# vector selection oracle

def test_mrss_examples():
    three = MrssInstance(2, ((2, 1), (1, 1), (1, 2)), (3, 3), 2)
    ok, combo = mrss_feasible_bruteforce(three)
    assert ok and combo == (1, 3)
    zero = MrssInstance(2, ((1, 0),), (0, 0), 1)
    ok, combo = mrss_feasible_bruteforce(zero)
    assert ok and combo == ()
    bad = MrssInstance(2, ((1, 0),), (0, 1), 1)
    ok, combo = mrss_feasible_bruteforce(bad)
    assert not ok and combo is None


def test_mrss_budget_binds():
    # sum of all three vectors reaches (3,3) but only two may be chosen
    mi = MrssInstance(2, ((1, 1), (1, 1), (1, 1)), (3, 3), 2)
    ok, _ = mrss_feasible_bruteforce(mi)
    assert not ok
    ok, combo = mrss_feasible_bruteforce(
        MrssInstance(2, ((1, 1), (1, 1), (1, 1)), (3, 3), 3)
    )
    assert ok and combo == (1, 2, 3)


def test_mrss_vector_limit():
    vectors = tuple((1,) for _ in range(25))
    with pytest.raises(OracleLimitError):
        mrss_feasible_bruteforce(MrssInstance(1, vectors, (1,), 1))


def test_mrss_validation():
    with pytest.raises(ValueError):
        MrssInstance(0, (), (), 1)
    with pytest.raises(ValueError):
        MrssInstance(2, ((1,),), (1, 1), 1)
    with pytest.raises(ValueError):
        MrssInstance(1, ((-1,),), (1,), 1)
    with pytest.raises(ValueError):
        MrssInstance(1, ((1,),), (1, 2), 1)


# formats

def test_mmo_round_trip():
    wg = WeightedGraph(Graph(3, [(1, 2), (2, 3)]), {(1, 2): 4, (2, 3): 1}, 3)
    assert parse_mmo(serialize_mmo(wg)) == wg


def test_mrss_round_trip():
    mi = MrssInstance(2, ((2, 1), (0, 3)), (1, 2), 2)
    assert parse_mrss(serialize_mrss(mi)) == mi


MMO_ERRORS = [
    ("p hs 2 1\n", "line 1: expected `p mmo <n> <m> <r>`"),  # wrong kind
    ("p mmo 2 1\nw 1 2 3\n", "line 1: expected `p mmo <n> <m> <r>`"),  # missing r
    ("p mmo 2 1 3\ne 1 2 0\n", "edge (1,2): weight 0 < 1"),
    ("p mmo 2 2 3\ne 1 2 1\n", "expected 2 edge lines, found 1"),
    ("p mmo -1 0 3\n", "line 1: vertex count must be non-negative"),
    ("p mmo 3 2 3\n# c\ne 1 2 1\n\ne 1 5 2\n", "line 5: edge (1,5) has an endpoint outside 1..3"),
    ("p mmo 2 1 3\n\ne 1 1 2\n", "line 3: self-loop at vertex 1"),
]


@pytest.mark.parametrize("text, message", MMO_ERRORS, ids=[text for text, _ in MMO_ERRORS])
def test_parse_mmo_errors(text, message):
    with pytest.raises(FormatError) as info:
        parse_mmo(text)
    assert str(info.value) == message


MRSS_ERRORS = [
    ("p mmo 2 1 3\nw 1 2 1\n", "line 1: expected `p mrss <k> <n> <k'>`"),  # wrong kind
    ("p mrss 1 1 1\nt 1\n", "expected 1 vector lines, found 0"),  # missing vector
    ("p mrss 1 1 1\nt 1\ns 1\ns 1\n", "expected 1 vector lines, found 2"),  # too many
    ("p mrss 1 1 1\ns 1\n", "missing `t` target line"),
    (
        "p mrss 2 3 2\nt 3 3\ns 2 1\ns 1 1\ns 2 -1\n",
        "line 5: vector entries must be non-negative",
    ),
]


@pytest.mark.parametrize("text, message", MRSS_ERRORS, ids=[text for text, _ in MRSS_ERRORS])
def test_parse_mrss_errors(text, message):
    with pytest.raises(FormatError) as info:
        parse_mrss(text)
    assert str(info.value) == message
