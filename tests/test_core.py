"""Instance model, harmlessness predicate, and the file format."""

import random

import pytest

from harmless import (
    FormatError,
    Graph,
    Instance,
    as_vertex_set,
    clamp_thresholds,
    is_harmless,
    majority_thresholds,
    parse_instance,
    serialize_instance,
    slack,
    validate,
)

from families import random_instance

P3 = Instance(Graph(3, [(1, 2), (2, 3)]), (1, 2, 1))
K3 = Instance(Graph(3, [(1, 2), (1, 3), (2, 3)]), (1, 1, 1))


def test_graph_basics():
    g = Graph(4, [(2, 1), (1, 3)])
    assert g.edges == ((1, 2), (1, 3))  # canonical order
    assert g.degree(1) == 2 and g.degree(4) == 0
    assert g.neighbors[0] == frozenset({2, 3})
    assert list(g.vertices()) == [1, 2, 3, 4]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 2), (2, 1)])
    # the first offender in input order is reported, in sorted orientation
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,3\)$"):
        Graph(3, [(3, 1), (2, 3), (1, 3)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,2\)$"):
        Graph(3, [(2, 1), (1, 2), (1, 5)])
    with pytest.raises(ValueError, match=r"^edge \(1,5\) has an endpoint outside 1\.\.3$"):
        Graph(3, [(1, 5), (2, 1), (1, 2)])


def test_instance_rejects_bad_thresholds():
    g = Graph(2, [(1, 2)])
    with pytest.raises(ValueError):
        Instance(g, (1,))
    with pytest.raises(ValueError):
        Instance(g, (0, 1))


def test_as_vertex_set():
    assert as_vertex_set([3, 1], 4) == (1, 3)
    assert as_vertex_set([], 4) == ()
    assert as_vertex_set([1, 1, 2], 4) == (1, 2)
    with pytest.raises(ValueError):
        as_vertex_set([0], 4)
    with pytest.raises(ValueError):
        as_vertex_set([5], 4)


def test_is_harmless_examples():
    assert is_harmless(K3, [])
    assert not is_harmless(K3, [1])
    assert not is_harmless(P3, [1, 3])  # vertex 2 sees both
    assert is_harmless(P3, [1])


def test_is_harmless_matches_definition_on_randoms():
    rng = random.Random(11)
    for _ in range(200):
        inst = random_instance(rng, 1, 7)
        n = inst.graph.n
        pick = [v for v in range(1, n + 1) if rng.random() < 0.5]
        expect = all(
            sum(1 for u in inst.graph.neighbors[v - 1] if u in pick)
            <= inst.threshold(v) - 1
            for v in range(1, n + 1)
        )
        assert is_harmless(inst, pick) == expect


def test_slack():
    assert slack(P3, [1]) == (1, 1, 1)
    assert slack(P3, [1, 3]) == (1, 0, 1)
    assert slack(P3, [2]) == (0, 2, 0)


def test_majority_thresholds():
    c4 = majority_thresholds(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    assert c4.thresholds == (1, 1, 1, 1)
    star = majority_thresholds(Graph(6, [(1, v) for v in range(2, 7)]))
    assert star.thresholds == (3, 1, 1, 1, 1, 1)
    k8 = majority_thresholds(Graph(8, [(1, v) for v in range(2, 9)]))
    assert k8.threshold(1) == 4  # degree 7
    iso = majority_thresholds(Graph(1, []))
    assert iso.thresholds == (1,)


def test_clamp_thresholds():
    inst = Instance(Graph(3, []), (5, 1, 3))
    assert clamp_thresholds(inst, 2).thresholds == (3, 1, 3)
    assert clamp_thresholds(inst, 9) is inst or clamp_thresholds(inst, 9) == inst
    assert clamp_thresholds(P3, 1).thresholds == (1, 2, 1)


def test_validate():
    assert validate(Instance(Graph(2, [(1, 2)]), (1, 1))) == []
    iso = Instance(Graph(1, []), (1,))
    assert validate(iso) == ["vertex 1: threshold 1 exceeds degree 0"]


def test_parse_smallest_instance():
    inst = parse_instance("p hs 2 1\nt 1 1\nt 2 1\ne 1 2\n")
    assert inst.graph.n == 2 and inst.graph.edges == ((1, 2),)
    assert inst.thresholds == (1, 1)


def test_parse_majority_directive():
    inst = parse_instance("p hs 3 2\nt majority\ne 1 2\ne 2 3\n")
    assert inst.thresholds == (1, 1, 1)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\np hs 2 1\n# another\nt 1 2\nt 2 2\ne 1 2\n"
    inst = parse_instance(text)
    assert inst.thresholds == (2, 2)


@pytest.mark.parametrize(
    "text",
    [
        "t 1 1\n",  # no header
        "p hs 2 1\nt 1 1\nt 2 1\ne 1 1\n",  # self-loop
        "p hs 2 1\nt 1 1\ne 1 2\n",  # missing threshold
        "p hs 2 1\nt 1 1\nt 2 1\nt 3 1\ne 1 2\n",  # vertex out of range
        "p hs 2 2\nt 1 1\nt 2 1\ne 1 2\n",  # edge count mismatch
        "p hs 2 1\nt 1 1\nt 2 1\ne 1 2\ne 1 2\n",  # duplicate edge
        "p hs 2 1\nt 1 0\nt 2 1\ne 1 2\n",  # zero threshold
        "p hs 2 1\nt 1 1\nt 2 1\nq\n",  # unknown line
    ],
)
def test_parse_errors(text):
    with pytest.raises(FormatError):
        parse_instance(text)


def test_serialize_round_trip():
    rng = random.Random(12)
    for _ in range(50):
        inst = random_instance(rng, 1, 8)
        assert parse_instance(serialize_instance(inst)) == inst
