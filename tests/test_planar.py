"""Decision pipeline for sparse instances: red-vertex deletion, the
long-path witness rule, and the kernel fallback."""

import random

import pytest

from harmless import (
    Graph,
    Instance,
    KernelTooLargeError,
    OracleLimitError,
    apply_reduction1,
    clamp_thresholds,
    color_vertices,
    diameter_witness,
    is_harmless,
    max_harmless_bruteforce,
    solve_planar,
)

from families import random_instance

P3 = Instance(Graph(3, [(1, 2), (2, 3)]), (1, 2, 1))
K2 = Instance(Graph(2, [(1, 2)]), (1, 1))


def path_instance(n, ends=1, inner=2):
    thr = tuple(ends if v in (1, n) else inner for v in range(1, n + 1))
    return Instance(Graph(n, [(i, i + 1) for i in range(1, n)]), thr)


def test_coloring():
    red = color_vertices(P3)
    assert red == frozenset({2})
    assert 1 not in red and 3 not in red
    allgreen = Instance(Graph(3, [(1, 2), (2, 3)]), (2, 2, 2))
    assert color_vertices(allgreen) == frozenset()
    assert color_vertices(K2) == frozenset({1, 2})


def test_reduction1_examples():
    reduced, log = apply_reduction1(K2)
    assert reduced.graph.n == 0 and log == (1, 2)
    reduced, log = apply_reduction1(P3)
    assert reduced == P3 and log == ()
    allgreen = Instance(Graph(3, [(1, 2), (2, 3)]), (2, 2, 2))
    assert apply_reduction1(allgreen) == (allgreen, ())


def test_reduction1_partial_deletion_renumbers():
    # doomed pair in front of a green triangle: the pair goes, the
    # triangle is renumbered down to 1..3
    g = Graph(5, [(1, 2), (3, 4), (3, 5), (4, 5)])
    inst = Instance(g, (1, 1, 2, 2, 2))
    reduced, log = apply_reduction1(inst)
    assert log == (1, 2)
    assert reduced.graph.n == 3 and reduced.thresholds == (2, 2, 2)
    assert reduced.graph.edges == ((1, 2), (1, 3), (2, 3))


def test_reduction1_keeps_mixed_neighbourhoods():
    # red vertices with a green neighbour survive even when another red
    # candidate sits next to them
    inst = Instance(
        Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]),
        (1, 2, 2, 2, 1),
    )
    reduced, log = apply_reduction1(inst)
    assert log == ()
    assert reduced == inst


def test_reduction1_requires_vacuous_constraints():
    # pendant path 3-4-5 with t(4)=t(5)=1: each candidate keeps one
    # neighbour outside the deletion set, so neither constraint is
    # provably vacuous and the guard refuses to delete
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    inst = Instance(g, (2, 2, 2, 1, 1))
    reduced, log = apply_reduction1(inst)
    assert log == ()
    assert reduced == inst


def test_reduction1_preserves_oracle_max():
    rng = random.Random(7)
    for _ in range(150):
        inst = random_instance(rng, 1, 9, p=0.4)
        reduced, log = apply_reduction1(inst)
        assert max_harmless_bruteforce(inst).size == max_harmless_bruteforce(reduced).size
        assert len(log) + reduced.graph.n == inst.graph.n


def test_diameter_witness_path():
    p13 = path_instance(13)
    w = diameter_witness(p13, 2)
    assert w == (1, 7, 13)
    assert is_harmless(p13, w)
    assert diameter_witness(p13, 3) is None  # needs diameter 18


def test_diameter_witness_not_applicable():
    k4 = Instance(Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]), (2, 2, 2, 2))
    assert diameter_witness(k4, 1) is None
    with pytest.raises(ValueError):
        diameter_witness(k4, 0)


def test_diameter_witness_per_component():
    edges = [(1, 2)] + [(i, i + 1) for i in range(3, 15)]
    inst = Instance(Graph(15, edges), tuple(2 for _ in range(15)))
    w = diameter_witness(inst, 2)
    assert w is not None and all(v >= 3 for v in w)
    assert is_harmless(inst, w)


def test_solve_planar_paths():
    dec = solve_planar(path_instance(13), 2)
    assert dec.answer and dec.witness == (1, 7, 13)
    assert dec.path_used == tuple(range(1, 14))
    assert dec.kernel_stats["diameter"] == 12
    assert "kernel_nodes" not in dec.kernel_stats

    dec = solve_planar(K2, 1)
    assert not dec.answer and dec.witness is None
    assert dec.kernel_stats["deleted"] == 2

    dec = solve_planar(P3, 1)
    assert dec.answer and len(dec.witness) >= 1 and dec.path_used is None
    assert dec.kernel_stats["kernel_size"] == 1


def test_solve_planar_witness_in_original_ids():
    # deletion renumbers the kernel; the witness must come back translated
    g = Graph(5, [(1, 2), (3, 4), (3, 5), (4, 5)])
    inst = Instance(g, (1, 1, 2, 2, 2))
    dec = solve_planar(inst, 1)
    assert dec.answer and is_harmless(inst, dec.witness)
    assert set(dec.witness) <= {3, 4, 5}
    assert dec.kernel_stats["deleted"] == 2


def test_solve_planar_agrees_with_oracle():
    rng = random.Random(43)
    for _ in range(80):
        inst = random_instance(rng, 1, 8, p=0.45, t_hi=3)
        best = max_harmless_bruteforce(inst).size
        for k in range(1, inst.graph.n + 1):
            dec = solve_planar(inst, k)
            assert dec.answer == (best >= k), (inst, k)
            if dec.answer:
                assert is_harmless(inst, dec.witness)
                assert len(dec.witness) >= k
            # clamping thresholds at k+1 must not change the decision
            assert solve_planar(clamp_thresholds(inst, k), k).answer == dec.answer


def test_solve_planar_diameter_rule_blocks_kernel():
    long_path = Instance(
        Graph(30, [(i, i + 1) for i in range(1, 30)]), tuple(2 for _ in range(30))
    )
    dec = solve_planar(long_path, 4)
    assert dec.answer and dec.path_used is not None
    assert is_harmless(long_path, dec.witness)


def test_solve_planar_budget():
    k12 = Graph(12, [(i, j) for i in range(1, 13) for j in range(i + 1, 13)])
    dense = Instance(k12, tuple(6 for _ in range(12)))
    with pytest.raises(KernelTooLargeError):
        solve_planar(dense, 2, node_budget=5)
    with pytest.raises(OracleLimitError):  # same error by its base class
        solve_planar(dense, 2, node_budget=5)
    with pytest.raises(ValueError):
        solve_planar(dense, 0)
