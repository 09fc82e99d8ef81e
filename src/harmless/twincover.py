"""Exact solver parameterized by twin cover.

A twin cover is a vertex set X such that every edge either has an
endpoint in X or joins true twins (N[a] = N[b]).  Removing X leaves a
disjoint union of cliques, and all vertices of one such clique share the
same neighbourhood inside X.  The solver sweeps the 2^|X| choices of
S_X = S & X; for each choice every leftover clique gets a capacity on
how many of its vertices may join S, cliques with identical
X-neighbourhoods are pooled into one integer variable, and a small
integer program distributes the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Graph, Instance, ReconstructionError, SolveResult, is_harmless
from .ilp import IlpConstraint, IlpModel, IlpVariable, maximize
from .nd import are_twins, class_threshold_stats


@dataclass(frozen=True)
class TwinDecomposition:
    """Cliques of G - X with their caps under one fixed S_X.

    For clique C let m = t(C) - |N(C) & S_X|.  When more than m - 1
    members share the minimum threshold (alpha(C) > m) even a full house
    of m members would push one of them to its threshold, so the cap
    drops to m - 1; otherwise it is m.  Caps are clamped to |C|; a
    negative cap means S_X already overwhelms C and the guess dies.
    classes groups clique indices by X-neighbourhood.
    """

    cliques: tuple[tuple[int, ...], ...]
    x_neighborhoods: tuple[frozenset, ...]
    caps: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def is_twin_cover(graph: Graph, vertices) -> bool:
    """Every edge is covered or joins true twins (for an edge uv,
    N[u] = N[v] exactly when u and v are twins)."""
    xs = set(vertices)
    return all(u in xs or v in xs or are_twins(graph, u, v) for u, v in graph.edges)


def find_twin_cover(graph: Graph, k_max: int) -> tuple[int, ...] | None:
    """Smallest twin cover of size <= k_max, or None.

    Edges not joining true twins must be covered like a vertex cover, so
    the search branches on the endpoints of the first uncovered such
    edge, trying budgets k in increasing order.  A greedy maximal
    matching on those edges needs one cover vertex per matched edge, so
    the budgets start at the matching size, and a matching larger than
    k_max answers None without branching.
    """
    hard = [e for e in graph.edges if not are_twins(graph, *e)]
    matched: set[int] = set()
    for u, v in hard:
        if u not in matched and v not in matched:
            matched.update((u, v))

    def branch(chosen: set, budget: int) -> tuple[int, ...] | None:
        for u, v in hard:
            if u not in chosen and v not in chosen:
                if budget == 0:
                    return None
                for pick in (u, v):
                    chosen.add(pick)
                    found = branch(chosen, budget - 1)
                    if found is not None:
                        return found
                    chosen.remove(pick)
                return None
        return tuple(sorted(chosen))

    for k in range(len(matched) // 2, k_max + 1):
        found = branch(set(), k)
        if found is not None:
            return found
    return None


def decompose(
    instance: Instance, cover, s_x
) -> TwinDecomposition | None:
    """Cliques of G - X with caps for this S_X; None for a dead guess.

    The caller guarantees that `cover` is a twin cover and that `s_x` is
    a subset of it; neither is checked again here.
    """
    graph = instance.graph
    xs = set(cover)
    sx = set(s_x)
    rest = [v for v in graph.vertices() if v not in xs]
    seen: set[int] = set()
    cliques: list[tuple[int, ...]] = []
    for v in rest:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            a = stack.pop()
            for b in graph.neighbors[a - 1]:
                if b not in xs and b not in comp:
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        cliques.append(tuple(sorted(comp)))
    x_nbrs = []
    caps = []
    for cl in cliques:
        nx = frozenset(graph.neighbors[cl[0] - 1] & xs)
        t, alpha = class_threshold_stats(instance, cl)
        m = t - len(nx & sx)
        cap = m - 1 if alpha > m else m
        if cap < 0:
            return None
        x_nbrs.append(nx)
        caps.append(min(cap, len(cl)))
    groups: dict[frozenset, list[int]] = {}
    for idx, nx in enumerate(x_nbrs):
        groups.setdefault(nx, []).append(idx)
    classes = tuple(tuple(groups[key]) for key in sorted(groups, key=sorted))
    return TwinDecomposition(tuple(cliques), tuple(x_nbrs), tuple(caps), classes)


def build_tc_ilp(
    instance: Instance, decomp: TwinDecomposition, cover, s_x
) -> IlpModel:
    """One variable per clique class; each cover vertex u constrains the
    classes it fully sees plus its neighbours already inside S_X.
    """
    graph = instance.graph
    sx = set(s_x)
    nclasses = len(decomp.classes)
    variables = tuple(
        IlpVariable(
            f"y{i}",
            0,
            sum(decomp.caps[idx] for idx in decomp.classes[i]),
        )
        for i in range(nclasses)
    )
    constraints = []
    for u in sorted(cover):
        coeffs = [0] * nclasses
        for i in range(nclasses):
            if u in decomp.x_neighborhoods[decomp.classes[i][0]]:
                coeffs[i] = 1
        inside = len(graph.neighbors[u - 1] & sx)
        constraints.append(
            IlpConstraint(tuple(coeffs), instance.threshold(u) - 1 - inside)
        )
    return IlpModel(variables, tuple(constraints), tuple([1] * nclasses))


def _distribute(
    decomp: TwinDecomposition, counts: tuple[int, ...], instance: Instance
) -> list[int]:
    """Spread each class count over its cliques, fullest cap first."""
    chosen: list[int] = []
    for i, take in enumerate(counts):
        order = sorted(
            decomp.classes[i], key=lambda idx: (-decomp.caps[idx], idx)
        )
        for idx in order:
            if take == 0:
                break
            grab = min(decomp.caps[idx], take)
            members = sorted(
                decomp.cliques[idx],
                key=lambda v: (instance.threshold(v), v),
            )
            chosen.extend(members[:grab])
            take -= grab
        if take:
            raise ReconstructionError("class capacity lost during distribution")
    return chosen


def solve_twincover(instance: Instance, cover) -> SolveResult:
    """Maximum harmless set via the 2^|X| sweep over S_X."""
    graph = instance.graph
    xs = tuple(sorted(set(cover)))
    if not is_twin_cover(graph, xs):
        raise ValueError(f"{xs} is not a twin cover")
    stats: dict = {"cover_size": len(xs), "guesses": 0, "dead_guesses": 0}
    best: tuple[int, tuple[int, ...]] | None = None
    for bits in range(1 << len(xs)):
        s_x = tuple(xs[j] for j in range(len(xs)) if bits >> j & 1)
        stats["guesses"] += 1
        decomp = decompose(instance, xs, s_x)
        if decomp is None:
            stats["dead_guesses"] += 1
            continue
        solution = maximize(build_tc_ilp(instance, decomp, xs, s_x), stats)
        if solution is None:
            stats["dead_guesses"] += 1
            continue
        total = len(s_x) + solution.value
        if best is None or total > best[0]:
            witness = tuple(
                sorted(list(s_x) + _distribute(decomp, solution.assignment, instance))
            )
            best = (total, witness)
    if best is None:
        raise ReconstructionError("every guess died; the empty set was lost")
    size, witness = best
    if len(witness) != size or not is_harmless(instance, witness):
        raise ReconstructionError(
            f"twin cover witness {witness} fails verification for size {size}"
        )
    return SolveResult(size, witness, "twincover", stats)


def minimum_twin_cover_bruteforce(graph: Graph, limit: int = 12) -> tuple[int, ...]:
    """Smallest twin cover by subset enumeration; test-scale only."""
    if graph.n > limit:
        raise ValueError(f"{graph.n} vertices exceeds cap {limit}")
    for size in range(graph.n + 1):
        for combo in combinations(graph.vertices(), size):
            if is_twin_cover(graph, combo):
                return combo
    raise AssertionError("V itself is always a twin cover")
