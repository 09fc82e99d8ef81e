"""The packing engine, cross-checked against full lattice enumeration
and against the general reference solver, with its floor, its split
into components and its node budget."""

import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmless import OracleLimitError, maximize
from ilp_reference import maximize as reference_maximize, packing_model


def test_simple_maximum():
    assert maximize([(0, 1)], [3], [0, 0], [2, 2]) == (2, 1)  # lex-greatest optimum


def test_infeasible():
    assert maximize([(0,)], [-1], [0], [5]) is None
    # lower bounds alone overfill the row
    assert maximize([(0, 1)], [2], [2, 1], [3, 3]) is None


def test_two_constraints():
    assert maximize([(0, 1), (0,)], [4, 2], [0, 0], [4, 4]) == (2, 2)


def test_no_constraints():
    assert maximize([], [], [1, 0], [3, 2]) == (3, 2)


def test_zero_variables():
    assert maximize([()], [0], [], []) == ()
    assert maximize([()], [-1], [], []) is None


def test_shape_validation():
    with pytest.raises(ValueError):
        maximize([], [], [2], [1])
    with pytest.raises(ValueError):
        maximize([], [], [-1], [1])


def test_stats_accumulate():
    stats = {}
    maximize([(0, 1)], [1], [0, 0], [1, 1], stats)
    first = stats["ilp_nodes"]
    maximize([(0, 1)], [1], [0, 0], [1, 1], stats)
    assert first >= 1 and stats["ilp_nodes"] == 2 * first


def test_deep_model_needs_no_recursion():
    # one variable per level: 5000 levels, far past the default limit
    n = 5000
    rows = [(i, i + 1) for i in range(n - 1)]
    upper = [1, 2] * (n // 2)
    stats = {}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = maximize(rows, [2] * (n - 1), [0] * n, upper, stats)
    finally:
        sys.setrecursionlimit(limit)
    assert got == (1,) * n
    # the root, then phase one's single dive of n + 1 nodes straight to
    # the optimum, which phase two keeps without a search
    assert stats["ilp_nodes"] == n + 2


def random_packing(rng, max_vars, lower_hi, span_hi, bound_lo, bound_hi):
    nvars = rng.randint(0, max_vars)
    lower = [rng.randint(0, lower_hi) for _ in range(nvars)]
    upper = [lo + rng.randint(0, span_hi) for lo in lower]
    rows = [
        tuple(sorted(rng.sample(range(nvars), rng.randint(0, nvars))))
        for _ in range(rng.randint(0, 5))
    ]
    bounds = [rng.randint(bound_lo, bound_hi) for _ in rows]
    return rows, bounds, lower, upper


def lattice_optimum(rows, bounds, lower, upper):
    """Value and lexicographically greatest optimum over every integer
    point of the box, or None when no point meets the rows."""
    nvars = len(lower)
    box = list(itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lower, upper)]))
    grid = np.array(box, dtype=int).reshape(len(box), nvars)
    ok = np.ones(len(grid), dtype=bool)
    for row, bound in zip(rows, bounds):
        ok &= grid[:, list(row)].sum(axis=1) <= bound
    if not ok.any():
        return None
    points = grid[ok]
    values = points.sum(axis=1)
    top = int(values.max())
    return top, max(tuple(int(x) for x in p) for p in points[values == top])


def test_matches_lattice_enumeration():
    rng = random.Random(41)
    for _ in range(400):
        model = random_packing(rng, 4, 2, 6, -1, 10)
        rows, bounds, lower, upper = model
        got = maximize(*model)
        want = lattice_optimum(*model)
        if want is None:
            assert got is None
        else:
            assert got is not None and sum(got) == want[0]
            assert all(lo <= x <= hi for lo, x, hi in zip(lower, got, upper))
            assert all(sum(got[i] for i in row) <= b for row, b in zip(rows, bounds))


def test_reported_optimum_is_lex_greatest():
    rng = random.Random(42)
    for _ in range(150):
        model = random_packing(rng, 3, 1, 3, 0, 6)
        want = lattice_optimum(*model)
        assert maximize(*model) == (None if want is None else want[1])


def test_matches_reference_solver():
    # the same assignment as the general solver; its node count belongs
    # to a different search and is not compared
    rng = random.Random(43)
    for _ in range(2000):
        model = random_packing(rng, 6, 2, 4, -1, 8)
        want = reference_maximize(packing_model(*model))
        assert maximize(*model) == (None if want is None else want.assignment)


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def boxed_models(draw, max_vars=5):
    """Packing models whose variables have lower bounds up to 2 and upper
    bounds up to 3, with up to five rows of distinct variables and bounds
    from -2 up."""
    n = draw(st.integers(0, max_vars))
    lower = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    upper = [draw(st.integers(lo, 3)) for lo in lower]
    row = st.lists(st.integers(0, n - 1), unique=True) if n else st.just([])
    rows = draw(st.lists(row, max_size=5))
    bounds = draw(st.lists(st.integers(-2, 9), min_size=len(rows), max_size=len(rows)))
    return rows, bounds, lower, upper


@PROPERTY
@given(boxed_models(), st.data())
def test_engine_is_the_lattice_optimum_above_the_floor(model, data):
    want = lattice_optimum(*model)
    assert maximize(*model) == (None if want is None else want[1])
    floor = data.draw(st.integers(-1, sum(model[3]) + 1))
    beats = want is not None and want[0] > floor
    assert maximize(*model, None, floor) == (want[1] if beats else None)


@PROPERTY
@given(st.integers(2, 12), st.data())
def test_split_model_gives_the_lex_greatest_optimum(n, data):
    # the rows of a path whose thresholds are all 2: vertex v caps its
    # neighbours at 1, so the odd and the even positions form separate
    # components, which the relabelling interleaves in index order
    perm = data.draw(st.permutations(range(n)))
    rows = [[perm[u] for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
    model = rows, [1] * n, [0] * n, [1] * n
    assert maximize(*model) == lattice_optimum(*model)[1]


@PROPERTY
@given(boxed_models(max_vars=6), st.data())
def test_budget_trips_at_the_node_past_it(model, data):
    stats = {}
    got = maximize(*model, stats)
    nodes = stats["ilp_nodes"]
    budget = data.draw(st.integers(0, nodes))
    stats = {"budget": budget}
    if budget == nodes:
        assert maximize(*model, stats) == got
    else:
        with pytest.raises(OracleLimitError, match=f"more than {budget} search nodes"):
            maximize(*model, stats)
        assert stats["ilp_nodes"] == budget + 1
