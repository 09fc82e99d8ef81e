"""Exact solver parameterized by neighbourhood diversity.

Vertices u, v are twins when N(u) \\ {v} = N(v) \\ {u}; that relation is
an equivalence, and each class is either a clique (adjacent true twins)
or an independent set (false twins).  With w classes the solver tries,
for every clique class, whether the solution takes fewer than alpha(C)
of its cheapest-threshold vertices or at least that many, and solves one
small integer program per guess, so the work is 2^(#clique classes)
times a w-variable program instead of 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, Instance, ReconstructionError, SolveResult, is_harmless
from .ilp import IlpConstraint, IlpModel, IlpVariable, maximize


@dataclass(frozen=True)
class TypePartition:
    """Twin classes, their kind, and adjacency between classes.

    classes[i] lists members ascending; kinds[i] is "clique" or
    "independent" (singletons count as independent); type_neighbors[i]
    holds the indices of adjacent classes.
    """

    classes: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]
    type_neighbors: tuple[tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return len(self.classes)


def are_twins(graph: Graph, u: int, v: int) -> bool:
    """N(u) \\ {v} equals N(v) \\ {u}; twins have equal degree, so that
    is compared first."""
    nu, nv = graph.neighbors[u - 1], graph.neighbors[v - 1]
    return len(nu) == len(nv) and nu - {v} == nv - {u}


def nd_partition(graph: Graph) -> TypePartition:
    """Group vertices into twin classes and build the type graph.

    Non-adjacent twins share their open neighbourhood N(v) and adjacent
    twins their closed one N(v) | {v}, and no vertex has both kinds of
    twin (a false twin a and a true twin b of v would give b in N(a),
    hence a in N[b] = N[v], making a adjacent to v).  So one dictionary
    keyed by each neighbourhood kind finds every class: a vertex belongs
    to its open bucket when that holds two or more vertices, else to its
    closed bucket.  Classes are ordered by smallest member; the type
    graph comes from one pass over the edges, since adjacency between
    two twin classes is all or nothing.
    """
    by_open: dict[frozenset, list[int]] = {}
    by_closed: dict[frozenset, list[int]] = {}
    for v, nbrs in enumerate(graph.neighbors, start=1):
        by_open.setdefault(nbrs, []).append(v)
        by_closed.setdefault(nbrs | {v}, []).append(v)
    classes: list[list[int]] = []
    index = [0] * (graph.n + 1)
    for v, nbrs in enumerate(graph.neighbors, start=1):
        cls = by_open[nbrs]
        if len(cls) < 2:
            cls = by_closed[nbrs | {v}]
        if cls[0] == v:
            index[v] = len(classes)
            classes.append(cls)
        else:
            index[v] = index[cls[0]]
    kinds = []
    for cls in classes:
        if len(cls) >= 2 and graph.has_edge(cls[0], cls[1]):
            kinds.append("clique")
        else:
            kinds.append("independent")
    nbrs: list[set[int]] = [set() for _ in classes]
    for u, v in graph.edges:
        i, j = index[u], index[v]
        if i != j:
            nbrs[i].add(j)
            nbrs[j].add(i)
    return TypePartition(
        tuple(tuple(c) for c in classes),
        tuple(kinds),
        tuple(tuple(sorted(row)) for row in nbrs),
    )


def class_threshold_stats(instance: Instance, members: tuple[int, ...]) -> tuple[int, int]:
    """(t(C), alpha(C)): smallest member threshold and how many attain it."""
    t = min(instance.threshold(v) for v in members)
    alpha = sum(1 for v in members if instance.threshold(v) == t)
    return t, alpha


def build_nd_ilp(
    instance: Instance, partition: TypePartition, saturating: frozenset
) -> IlpModel:
    """One variable per class (how many members enter S), constraints per
    class on the neighbours its members see, plus bounds tying each
    clique class to its guessed side: the classes in `saturating` hold
    at least alpha(C) solution vertices, the other clique classes fewer.
    """
    for i in saturating:
        if partition.kinds[i] != "clique":
            raise ValueError(f"class {i} in guess is not a clique class")
    w = partition.width
    variables = tuple(
        IlpVariable(f"x{i}", 0, len(partition.classes[i])) for i in range(w)
    )
    constraints: list[IlpConstraint] = []
    for i in range(w):
        t, alpha = class_threshold_stats(instance, partition.classes[i])
        coeffs = [0] * w
        for j in partition.type_neighbors[i]:
            coeffs[j] = 1
        if partition.kinds[i] == "clique":
            coeffs[i] = 1
            if i in saturating:
                # members of S see x_i - 1 inside the class
                constraints.append(IlpConstraint(tuple(coeffs), t))
                bound = [0] * w
                bound[i] = -1
                constraints.append(IlpConstraint(tuple(bound), -alpha))
            else:
                constraints.append(IlpConstraint(tuple(coeffs), t - 1))
                bound = [0] * w
                bound[i] = 1
                constraints.append(IlpConstraint(tuple(bound), alpha - 1))
        else:
            constraints.append(IlpConstraint(tuple(coeffs), t - 1))
    return IlpModel(variables, tuple(constraints), tuple([1] * w))


def _select_members(
    instance: Instance, partition: TypePartition, counts: tuple[int, ...]
) -> tuple[int, ...]:
    chosen: list[int] = []
    for i, take in enumerate(counts):
        members = partition.classes[i]
        if partition.kinds[i] == "clique":
            order = sorted(members, key=lambda v: (instance.threshold(v), v))
        else:
            order = sorted(members)
        chosen.extend(order[:take])
    return tuple(sorted(chosen))


def solve_nd(instance: Instance) -> SolveResult:
    """Maximum harmless set via the type-graph integer programs."""
    partition = nd_partition(instance.graph)
    clique_classes = [
        i for i in range(partition.width) if partition.kinds[i] == "clique"
    ]
    stats: dict = {"classes": partition.width, "guesses": 0}
    best: tuple[int, tuple[int, ...]] | None = None
    for bits in range(1 << len(clique_classes)):
        saturating = frozenset(
            clique_classes[j] for j in range(len(clique_classes)) if bits >> j & 1
        )
        stats["guesses"] += 1
        solution = maximize(build_nd_ilp(instance, partition, saturating), stats)
        if solution is None:
            continue
        if best is None or solution.value > best[0]:
            best = (solution.value, solution.assignment)
    if best is None:
        raise ReconstructionError("no feasible guess; the empty set was lost")
    witness = _select_members(instance, partition, best[1])
    if len(witness) != best[0] or not is_harmless(instance, witness):
        raise ReconstructionError(
            f"nd witness {witness} fails verification for size {best[0]}"
        )
    return SolveResult(best[0], witness, "nd", stats)
