"""The three workloads: seeded inputs, the `harmless` call for each
operation, and the check its output must pass.

`build(workload, seed, workdir)` writes the input files and returns one
round: the complete list of operations, in a seeded order.  Fixed pools
(generated from fixed seeds, optima in `reference_table.json`) are
relabelled with a permutation drawn from the workload seed, except the
heavy block of `search`, which keeps its own labelling; the other
inputs are drawn from the workload seed directly and checked by a DP or
exhaustive search.  Set-up only makes and writes the inputs: every
optimum, table lookup and feasibility test is made by the check, which
runs after the timed loop.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks
import families as F
import reference


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str], None]


# ---- fixed pools; their optima live in reference_table.json ----------

def search_pool():
    """Sparse connected majority instances, 24-27 vertices, m = 2n."""
    rng = random.Random("search-pool")
    pool = []
    for _ in range(360):
        n = rng.randint(24, 27)
        edges = F.sparse_connected(rng, n, 2 * n)
        pool.append((n, edges, F.majority(n, edges)))
    return pool


# Generator indices of sparse connected majority graphs with 33 vertices
# (m = 66) whose `solve` took 125-148 ms each (median of five calls, on a
# 2-vCPU virtual machine), out of the first 320 indices.
SEARCH_HEAVY = (
    295, 189, 112, 194, 230, 46, 310, 143, 278, 177, 179, 224,
    302, 32, 198, 14, 141, 132, 142, 38, 145, 170, 144, 186,
)


def search_heavy_pool():
    """The heaviest operations of `search`, kept in their own labelling.

    The oracle decides vertices in descending id order, so relabelling
    changes its work; on relabelled instances alone the tail of a round
    is set by whichever dozen happen to be searched longest under the
    seed's permutations.  These 24 cost the same for every seed, close
    to each other and above nearly every relabelled instance, so the
    13th-slowest operation of a round, which `lat_tail_ms` reads, falls
    in the middle of them and measures the oracle rather than the seed."""
    pool = []
    for index in SEARCH_HEAVY:
        rng = random.Random(f"search-heavy:{index}")
        edges = F.sparse_connected(rng, 33, 66)
        pool.append((33, edges, F.majority(33, edges)))
    return pool


def nd_pool():
    """Blow-ups of type graphs with 6-8 classes of 2-6 vertices."""
    rng = random.Random("nd-pool")
    return [F.blowup(rng, rng.randint(6, 8), 2, 6, 0.15) for _ in range(40)]


def twincover_pool():
    """A planted twin cover of 5-7 vertices (ids 1..c) and up to 6 cover
    neighbourhoods; pairs of (instance, cover)."""
    rng = random.Random("twincover-pool")
    pool = []
    for _ in range(30):
        cover = rng.randint(5, 7)
        instance = F.planted_twin_cover(
            rng, cover, rng.randint(10, 20), rng.randint(3, 6), 4, 0.5
        )
        pool.append((instance, range(1, cover + 1)))
    return pool


def cograph_pool():
    """Random cographs of 14-30 vertices with their expressions."""
    rng = random.Random("cograph-pool")
    pool = []
    for _ in range(30):
        n = rng.randint(14, 30)
        expr, edges = F.cograph_cexpr(rng, n)
        pool.append(((n, edges, F.degree_thresholds(rng, n, edges, 0.0)), expr))
    return pool


# Generator indices of threshold sequences (t in 1..3) for paths of 100
# vertices whose `solve --algo cliquewidth` took 159-169 ms each (median
# of three calls, on a 2-vCPU virtual machine), out of the first 120.
CWPATH = (62, 49, 81, 115, 57, 96, 12, 104, 66, 39, 80, 59, 103, 41, 112, 34, 35, 89, 65, 78)


def cwpath_pool():
    """Thresholds for twenty paths of 100 vertices; the DP along the path
    gives their optima.  The clique-width DP's tables do not depend on
    the labelling, so these heaviest operations of `param` cost the same
    for every seed, and nearly the same as each other: the 11th-slowest
    operation of a round, which `lat_tail_ms` reads, falls in the middle
    of them, where a few slower twin-cover or nd operations move it by a
    place or two among paths of nearly the same cost."""
    pool = []
    for index in CWPATH:
        rng = random.Random(f"cwpath:{index}")
        pool.append([rng.randint(1, 3) for _ in range(100)])
    return pool


def _plain(pool):
    return [(instance, None) for instance in pool]


# name -> pairs of (instance, planted twin cover or None), for the table
POOLS = {
    "search": lambda: _plain(search_pool()),
    "search-heavy": lambda: _plain(search_heavy_pool()),
    "nd": lambda: _plain(nd_pool()),
    "twincover": twincover_pool,
    "cograph": lambda: _plain(instance for instance, _ in cograph_pool()),
}


# ---- workloads ------------------------------------------------------

class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def __call__(self, text: str, suffix: str = "hs") -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:04d}.{suffix}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


def _deferred(check, **later):
    """`check` with each argument in `later`, a function of no arguments,
    computed when the check runs rather than at set-up."""
    return lambda text: check(text, **{name: make() for name, make in later.items()})


def _solve(write, instance, optimum, solver, extra=()):
    """`optimum` is a function of no arguments."""
    path = write(F.render_instance(instance))
    check = partial(checks.check_solve, instance=instance, solver=solver)
    return Op(["solve", path, *extra], _deferred(check, optimum=optimum))


def search(rng: random.Random, write) -> list[list[Op]]:
    groups = []
    pool = search_pool()
    for index, instance in enumerate(pool):
        relabelled, _ = F.relabel(rng, instance)
        optimum = partial(reference.table_optimum, "search", index, instance)
        groups.append([_solve(write, relabelled, optimum, "brute")])
    for index, instance in enumerate(search_heavy_pool()):
        optimum = partial(reference.table_optimum, "search-heavy", index, instance)
        groups.append([_solve(write, instance, optimum, "brute")])
    for _ in range(40):
        parts = []
        for _ in range(3):
            n = rng.randint(7, 9)
            edges = F.sparse_connected(rng, n, 2 * n)
            parts.append((n, edges, F.majority(n, edges)))
        instance, _ = F.relabel(rng, F.disjoint_union(parts))
        optimum = partial(checks.component_optimum, instance)
        groups.append([_solve(write, instance, optimum, "brute")])
    return groups


def _greedy_harmless(rng: random.Random, instance) -> list[int]:
    n, _, thresholds = instance
    nbrs = checks.adjacency(instance)
    load = [0] * (n + 1)
    chosen = []
    for v in rng.sample(range(1, n + 1), n):
        if all(load[w] + 1 < thresholds[w - 1] for w in nbrs[v]):
            chosen.append(v)
            for w in nbrs[v]:
                load[w] += 1
    return chosen


def _verify(write_path, instance, chosen):
    return Op(
        ["verify", write_path, "--set", ",".join(map(str, sorted(chosen)))],
        partial(checks.check_verify, instance=instance, chosen=chosen),
    )


def _planar(path, instance, k, rule, optimum=lambda: None):
    """`optimum` is a function of no arguments; None stands for unknown."""
    check = partial(checks.check_planar, instance=instance, k=k, rule=rule)
    argv = ["solve", path, "--algo", "planar", "--k", str(k)]
    return Op(argv, _deferred(check, optimum=optimum))


def scale(rng: random.Random, write) -> list[list[Op]]:
    groups = []
    for n in (250, 500, 1000, 2000):
        edges = F.sparse_connected(rng, n, 2 * n)
        instance = (n, edges, F.majority(n, edges))
        path = write(F.render_instance(instance))
        groups.append([Op(["analyze", path], partial(checks.check_analyze, instance=instance))])
        groups.append([_verify(path, instance, rng.sample(range(1, n + 1), n // 10))])
        for _ in range(2):
            groups.append([_verify(path, instance, _greedy_harmless(rng, instance))])
    for n in (300, 400, 500, 600, 800, 1000):  # rule hits after one BFS
        instance = F.path(n, 3)
        path = write(F.render_instance(instance))
        k = (n - 1) // 6 - rng.randint(0, 5)
        optimum = partial(checks.path_optimum, instance[2])
        groups.append([_planar(path, instance, k, "diameter", optimum)])
    for n in (150, 200, 250, 300):  # rule misses after n BFS; the kernel is a path
        instance = F.path(n, 3)
        path = write(F.render_instance(instance))
        k = (n - 1) // 6 + 1 + rng.randint(0, 10)
        optimum = partial(checks.path_optimum, instance[2])
        groups.append([_planar(path, instance, k, "kernel", optimum)])
    for rows, cols in ((4, 150), (6, 100), (10, 60), (12, 50), (20, 30), (25, 25)):
        instance = (rows * cols, F.grid_edges(rows, cols), [3] * (rows * cols))
        path = write(F.render_instance(instance))
        k = (rows + cols - 2) // 6 - rng.randint(0, 2)
        groups.append([_planar(path, instance, k, "diameter")])
        groups.append([_verify(path, instance, _greedy_harmless(rng, instance))])
    # deletion rule leaves a small kernel; only the middle of each island
    # can be taken, so k is set from the island count, and the check
    # computes the optimum apart
    islands = 9
    for extra in (0, 0, 1, 1):
        instance = F.domino_path(rng, islands, 45, 55)
        path = write(F.render_instance(instance))
        optimum = partial(checks.component_optimum, instance)
        groups.append([_planar(path, instance, islands + extra, "kernel", optimum)])
    return groups


# Acceptance-sized sources: (n, [(u, v, weight)], r) and (k, vectors, target, k').
MMO_SOURCES = [
    (1, [], 3),
    (2, [(1, 2, 1)], 3),
    (2, [(1, 2, 2)], 3),
    (3, [(1, 2, 1), (2, 3, 2)], 3),
    (3, [(1, 2, 2), (2, 3, 2)], 3),
    (3, [(1, 2, 1), (2, 3, 1)], 3),
]
MRSS_SOURCES = [
    (1, [(2,), (1,)], (2,), 1),
    (1, [(1,), (1,)], (2,), 1),
    (2, [(2, 1), (1, 2)], (2, 2), 2),
    (2, [(2, 0), (0, 2)], (2, 2), 1),
    (2, [(2, 1), (1, 1), (1, 2)], (3, 3), 2),
    (2, [(1, 0), (2, 2)], (1, 2), 1),
]


def _generate(rng, write, kind, source):
    """`generate` on a relabelled source, then `solve` on its output."""
    if kind == "mmo":
        n, wedges, r = source
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        wedges = sorted(
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]), w) for u, v, w in wedges
        )
        text = f"p mmo {n} {len(wedges)} {r}\n" + "".join(f"e {u} {v} {w}\n" for u, v, w in wedges)
        feasible = partial(checks.mmo_feasible, n, wedges, r)
    else:
        k, vectors, target, budget = source
        vectors = rng.sample(vectors, len(vectors))
        text = f"p mrss {k} {len(vectors)} {budget}\nt {' '.join(map(str, target))}\n"
        text += "".join("s " + " ".join(map(str, s)) + "\n" for s in vectors)
        feasible = partial(checks.mrss_feasible, vectors, target, budget)
    src = write(text, kind)
    out = src + ".hs"
    return [
        Op(["generate", kind, src, "--out", out], partial(checks.check_generated, path=out)),
        Op(["solve", out], _deferred(partial(checks.check_generated_solve, path=out),
                                     feasible=feasible)),
    ]


CLIQUEWIDTH = ("--algo", "cliquewidth", "--cexpr")


def param(rng: random.Random, write) -> list[list[Op]]:
    groups = []
    for algo in ("nd", "twincover"):
        for index, (instance, _) in enumerate(POOLS[algo]()):
            relabelled, _ = F.relabel(rng, instance)
            optimum = partial(reference.table_optimum, algo, index, instance)
            groups.append([_solve(write, relabelled, optimum, algo, ("--algo", algo))])
    for index, (instance, expr) in enumerate(cograph_pool()):
        relabelled, perm = F.relabel(rng, instance)
        optimum = partial(reference.table_optimum, "cograph", index, instance)
        cexpr = write(F.render_cexpr(F.relabel_cexpr(expr, perm)), "cx")
        groups.append([_solve(write, relabelled, optimum, "cliquewidth", CLIQUEWIDTH + (cexpr,))])
    for thresholds in cwpath_pool():
        n = len(thresholds)
        optimum = partial(checks.path_optimum, thresholds)
        relabelled, perm = F.relabel(rng, (n, [(i, i + 1) for i in range(1, n)], thresholds))
        cexpr = write(F.render_cexpr(F.relabel_cexpr(F.path_cexpr(n), perm)), "cx")
        groups.append([_solve(write, relabelled, optimum, "cliquewidth", CLIQUEWIDTH + (cexpr,))])
    for source in MMO_SOURCES:
        groups.append(_generate(rng, write, "mmo", source))
    for source in MRSS_SOURCES:
        groups.append(_generate(rng, write, "mrss", source))
    return groups


WORKLOADS = {"search": search, "scale": scale, "param": param}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the inputs of one workload and return its round of operations."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    groups = WORKLOADS[workload](rng, _Writer(workdir))
    rng.shuffle(groups)
    return [op for group in groups for op in group]
