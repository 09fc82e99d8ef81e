"""Instance generators: orientation and vector-sum sources embedded as
harmless-set targets, with paired-oracle equivalence checks."""

import itertools

import pytest

from harmless.reductions import _audit_bipartite, _audit_forest_height

from harmless import (
    Graph,
    Instance,
    MrssInstance,
    WeightedGraph,
    is_harmless,
    max_harmless_bruteforce,
    mmo_feasible_bruteforce,
    mmo_proof_witness,
    mrss_feasible_bruteforce,
    mrss_proof_witness,
    parse_instance,
    reduce_mmo,
    reduce_mrss,
    render_mmo,
    render_mrss,
    validate,
)

THREE_VECTORS = MrssInstance(2, ((2, 1), (1, 1), (1, 2)), (3, 3), 2)


def test_mmo_single_edge_shape():
    # one edge of weight 2: two star vertices per side, 3*2-2 connectors
    wg = WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): 2}, 3)
    out = reduce_mmo(wg)
    assert len(out.trace["star_1_2"]) == 2
    assert len(out.trace["star_2_1"]) == 2
    assert len(out.trace["connectors_1_2"]) == 4
    assert out.trace["type3"] == (1, 2) and out.trace["type4"] == ()
    assert out.k == 2 + 2 + 4
    assert validate(out.instance) == []
    # original edge is replaced by the gadget, not kept
    assert (1, 2) not in out.instance.graph.edges


def test_mmo_no_edges():
    out = reduce_mmo(WeightedGraph(Graph(1, []), {}, 3))
    assert out.k == 1
    res = max_harmless_bruteforce(out.instance)
    assert res.size == 1 and res.witness == (1,)


def test_mmo_rejects_small_r():
    with pytest.raises(ValueError):
        reduce_mmo(WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): 1}, 2))


def test_mmo_proof_witness_reaches_target():
    wg = WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): 5}, 5)
    out = reduce_mmo(wg)
    ok, orientation = mmo_feasible_bruteforce(wg)
    assert ok
    witness = mmo_proof_witness(wg, out, orientation)
    assert len(witness) >= out.k
    assert is_harmless(out.instance, witness)
    res = max_harmless_bruteforce(out.instance)
    assert res.size == out.k


def test_mmo_proof_witness_rejects_bad_orientation():
    wg = WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): 5}, 5)
    out = reduce_mmo(wg)
    with pytest.raises(ValueError):
        mmo_proof_witness(wg, out, ())  # edge not oriented
    with pytest.raises(ValueError):
        mmo_proof_witness(wg, out, ((1, 2), (2, 1)))


def test_mmo_negative_case():
    # weight 5 cannot be oriented under r=4, so the target stays short of k
    wg = WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): 5}, 4)
    out = reduce_mmo(wg)
    ok, _ = mmo_feasible_bruteforce(wg)
    assert not ok
    res = max_harmless_bruteforce(out.instance)
    assert res.size < out.k


def mmo_sweep_cases():
    yield Graph(1, []), {}
    for w in (1, 2):
        yield Graph(2, [(1, 2)]), {(1, 2): w}
    for w1 in (1, 2):
        for w2 in (1, 2):
            yield Graph(3, [(1, 2), (2, 3)]), {(1, 2): w1, (2, 3): w2}


def test_mmo_paired_oracle_sweep():
    for graph, weights in mmo_sweep_cases():
        wg = WeightedGraph(graph, weights, 3)
        out = reduce_mmo(wg)
        ok, orientation = mmo_feasible_bruteforce(wg)
        res = max_harmless_bruteforce(out.instance)
        assert ok == (res.size >= out.k), (weights, ok, res.size, out.k)
        assert res.size <= out.k
        if ok:
            mmo_proof_witness(wg, out, orientation)


def test_mmo_render_round_trip():
    out = reduce_mmo(WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): 2}, 3))
    text = render_mmo(out)
    assert text.splitlines()[0] == f"# target k={out.k}"
    assert parse_instance(text) == out.instance


def test_mrss_three_vector_example():
    out = reduce_mrss(THREE_VECTORS)
    assert out.r == 12
    assert out.instance.graph.n == 29
    assert len(out.trace["U"]) == 2
    assert len(out.trace["C1"]) == 4  # three pendant 4-cycles close the build
    assert len(out.trace["C2"]) == len(out.trace["C3"]) == 4
    ok, combo = mrss_feasible_bruteforce(THREE_VECTORS)
    assert ok and combo == (1, 3)
    witness = mrss_proof_witness(THREE_VECTORS, out, combo)
    assert len(witness) == 12
    assert is_harmless(out.instance, witness)
    res = max_harmless_bruteforce(out.instance)
    assert res.size == out.r


def test_mrss_witness_pads_short_combos():
    # chosen set smaller than the budget: padding must fill the gap
    mi = MrssInstance(1, ((2,), (1,)), (2,), 2)
    out = reduce_mrss(mi)
    ok, combo = mrss_feasible_bruteforce(mi)
    assert ok and combo == (1,)
    witness = mrss_proof_witness(mi, out, combo)
    assert len(witness) == out.r
    assert is_harmless(out.instance, witness)


@pytest.mark.parametrize(
    "vectors, target, budget, fragment",
    [
        (((1, 0),), (1, 1), 1, "coordinate 2"),
        (((1, 1),), (1, 0), 1, "coordinate 2"),
        (((1, 1),), (1, 1), 2, "budget"),
        (((1, 1),), (1, 1), 0, "budget"),
    ],
)
def test_mrss_preconditions(vectors, target, budget, fragment):
    with pytest.raises(ValueError) as err:
        reduce_mrss(MrssInstance(2, vectors, target, budget))
    assert fragment in str(err.value)


def test_mrss_proof_witness_rejects_bad_combo():
    out = reduce_mrss(THREE_VECTORS)
    with pytest.raises(ValueError):
        mrss_proof_witness(THREE_VECTORS, out, (1, 2))  # sums miss the target
    with pytest.raises(ValueError):
        mrss_proof_witness(THREE_VECTORS, out, (1, 2, 3))  # over budget


def test_mrss_render_round_trip():
    out = reduce_mrss(THREE_VECTORS)
    text = render_mrss(out)
    assert text.splitlines()[0] == f"# target r={out.r}"
    assert parse_instance(text) == out.instance


def mrss_sweep_cases():
    for k in (1, 2):
        entry_space = list(itertools.product(range(3), repeat=k))
        for nvec in (1, 2):
            for vectors in itertools.combinations_with_replacement(entry_space, nvec):
                attainable = [sum(s[i] for s in vectors) for i in range(k)]
                if any(a < 1 for a in attainable):
                    continue
                targets = itertools.product(
                    *[range(1, attainable[i] + 1) for i in range(k)]
                )
                for target in targets:
                    for budget in range(1, nvec + 1):
                        yield MrssInstance(k, vectors, target, budget)


def test_mrss_paired_oracle_sweep():
    count = 0
    for mi in mrss_sweep_cases():
        out = reduce_mrss(mi)
        ok, combo = mrss_feasible_bruteforce(mi)
        res = max_harmless_bruteforce(out.instance)
        assert ok == (res.size >= out.r), (mi.vectors, mi.target, mi.budget)
        assert res.size <= out.r
        if ok:
            mrss_proof_witness(mi, out, combo)
        count += 1
    assert count > 300


def cycle(n):
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def test_audit_bipartite_rejects_odd_cycle():
    _audit_bipartite(cycle(6))
    odd = r"^construction audit failed: odd cycle through edge \(\d,\d\)$"
    with pytest.raises(RuntimeError, match=odd):
        _audit_bipartite(cycle(5))
    # an odd cycle in a later component, next to an isolated vertex
    with pytest.raises(RuntimeError, match="odd cycle"):
        _audit_bipartite(Graph(9, [(1, 2), (4, 5), (5, 6), (4, 6), (7, 8)]))


def test_audit_forest_height_rejects_cycle_and_height():
    # deleting vertex 6 leaves the path 1..5 and the triangle 7 8 9
    g = Graph(9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (7, 9)])
    _audit_forest_height(g, {6, 7}, 2)
    with pytest.raises(RuntimeError, match="^construction audit failed: component of 7 has a cycle"):
        _audit_forest_height(g, {6}, 3)
    # a path of 9 vertices has height 4 from its middle and more from anywhere else
    _audit_forest_height(path(9), set(), 4)
    with pytest.raises(
        RuntimeError, match="^construction audit failed: component of 1 has height 4 > 3$"
    ):
        _audit_forest_height(path(9), set(), 3)
    with pytest.raises(RuntimeError, match="component of 2 has height 4 > 3"):
        _audit_forest_height(Graph(10, [(i, i + 1) for i in range(2, 10)]), {1}, 3)
