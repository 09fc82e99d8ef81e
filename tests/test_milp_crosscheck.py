"""The exact solvers against an independent exact solver.

The oracle answers sparse majority graphs far beyond the sizes the
small references reach (n <= 14), the nd and twin cover solvers answer
inputs of 150-200 vertices, and the clique-width DP solves paths of
300.  Here the harmless set program, max sum x subject to sum of x over
N(v) <= t(v) - 1 and x in {0, 1}, one variable per vertex, is solved by
`scipy.optimize.milp` (HiGHS), and the sizes must agree.  Each witness
is checked with `is_harmless`.
"""

import random

import pytest

from harmless import (
    Graph,
    Instance,
    is_harmless,
    max_harmless_bruteforce,
    solve_cliquewidth,
    solve_nd,
    solve_twincover,
)

from families import cograph_expr, path_expr, planted_twin_cover, sparse_majority

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")

# the family of the benchmark's hard graphs: m = 2n, majority thresholds,
# drawn from random.Random(f"{n}-{s}"); at n = 90 the oracle answers
# s = 0, 1 and 3 within its default budget, and s = 2 runs over it; at
# n = 120 it answers s = 1 and 2 in under 50,000 nodes
FAMILY = [(n, s) for n in (60, 75) for s in range(4)] + [
    (90, 0), (90, 1), (90, 3), (120, 1), (120, 2)
]


def milp_optimum(instance) -> int:
    n = instance.graph.n
    rows = np.zeros((n, n))
    for v, nbrs in enumerate(instance.graph.neighbors):
        for u in nbrs:
            rows[v, u - 1] = 1
    caps = np.array([t - 1 for t in instance.thresholds], dtype=float)
    result = optimize.milp(
        c=-np.ones(n),
        constraints=optimize.LinearConstraint(rows, -np.inf, caps),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.success
    return round(-result.fun)


@pytest.mark.parametrize("n, s", FAMILY, ids=[f"n{n}-s{s}" for n, s in FAMILY])
def test_oracle_matches_milp(n, s):
    instance = sparse_majority(random.Random(f"{n}-{s}"), n)
    result = max_harmless_bruteforce(instance)
    assert result.size == len(result.witness) == milp_optimum(instance)
    assert is_harmless(instance, result.witness)


@pytest.mark.parametrize("seed", [1, 7, 18])
def test_twin_cover_matches_milp(seed):
    # covers of 7 with 40 cliques; see tests/test_twincover.py::PLANTED
    instance = planted_twin_cover(random.Random(seed), 7, 40, 7, 6, 0.5)
    result = solve_twincover(instance, range(1, 8))
    assert result.size == len(result.witness) == milp_optimum(instance)
    assert is_harmless(instance, result.witness)


def test_nd_threshold_two_path_matches_milp():
    n = 200
    instance = Instance(Graph(n, [(i, i + 1) for i in range(1, n)]), [2] * n)
    result = solve_nd(instance)
    assert result.size == len(result.witness) == milp_optimum(instance) == 100
    assert is_harmless(instance, result.witness)


# paths with thresholds from 1..3, and cographs where a vertex of degree
# d draws its threshold from 1 + d // 2..d + 1 (answers 15 and 15 of 30;
# thresholds from 1..d answer 0 and 1), from random.Random(f"{kind}-{n}-{seed}")
CLIQUEWIDTH = [("path", 100, 0), ("path", 300, 0), ("cograph", 30, 0), ("cograph", 30, 1)]


@pytest.mark.parametrize(
    "kind, n, seed", CLIQUEWIDTH, ids=[f"{kind}{n}-s{seed}" for kind, n, seed in CLIQUEWIDTH]
)
def test_cliquewidth_matches_milp(kind, n, seed):
    rng = random.Random(f"{kind}-{n}-{seed}")
    if kind == "path":
        expr, graph = path_expr(n)
        thresholds = [rng.randint(1, 3) for _ in range(n)]
    else:
        expr, graph = cograph_expr(n, rng)
        degrees = [graph.degree(v) for v in graph.vertices()]
        thresholds = [rng.randint(1 + d // 2, d + 1) for d in degrees]
    instance = Instance(graph, thresholds)
    result = solve_cliquewidth(instance, expr)
    assert result.size == len(result.witness) == milp_optimum(instance)
    assert is_harmless(instance, result.witness)
