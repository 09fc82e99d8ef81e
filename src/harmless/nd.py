"""Exact solver parameterized by neighbourhood diversity.

Vertices u, v are twins when N(u) \\ {v} = N(v) \\ {u}; that relation is
an equivalence, and each class is either a clique (adjacent true twins)
or an independent set (false twins).  With w classes the solver tries,
for every clique class, whether the solution takes fewer than alpha(C)
of its cheapest-threshold vertices or at least that many, and solves one
small integer program per guess with `ilp.maximize`, so the work is
2^(#clique classes) times a w-variable program instead of 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import Graph, Instance, ReconstructionError, SolveResult, is_harmless
from .ilp import maximize


@dataclass(frozen=True)
class TypePartition:
    """Twin classes, their kind, and adjacency between classes.

    classes[i] lists members ascending; kinds[i] is "clique" or
    "independent" (singletons count as independent); class_of[v] is the
    index of v's class (class_of[0] is unused).  type_neighbors[i] holds
    the indices of the classes adjacent to class i; it is built on first
    read, since only the nd solver needs it.
    """

    classes: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]
    class_of: tuple[int, ...]
    graph: Graph = field(compare=False, repr=False)

    @property
    def width(self) -> int:
        return len(self.classes)

    @cached_property
    def type_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """One pass over the edges, since adjacency between two twin
        classes is all or nothing."""
        index = self.class_of
        nbrs: list[set[int]] = [set() for _ in self.classes]
        for u, v in self.graph.edges:
            i, j = index[u], index[v]
            if i != j:
                nbrs[i].add(j)
                nbrs[j].add(i)
        return tuple(tuple(sorted(row)) for row in nbrs)


def nd_partition(graph: Graph) -> TypePartition:
    """Group vertices into twin classes.

    Non-adjacent twins share their open neighbourhood N(v) and adjacent
    twins their closed one N(v) | {v}, and no vertex has both kinds of
    twin (a false twin a and a true twin b of v would give b in N(a),
    hence a in N[b] = N[v], making a adjacent to v).  So a vertex
    belongs to its open bucket when that holds two or more vertices,
    else to its closed bucket, and only those vertices need their closed
    neighbourhood built.  Buckets fill in vertex order, so classes are
    ordered by smallest member.
    """
    by_open: dict[frozenset, list[int]] = {}
    for v, nbrs in enumerate(graph.neighbors, start=1):
        by_open.setdefault(nbrs, []).append(v)
    by_closed: dict[frozenset, list[int]] = {}
    classes: list[list[int]] = []
    index = [0] * (graph.n + 1)
    for v, nbrs in enumerate(graph.neighbors, start=1):
        cls = by_open[nbrs]
        if len(cls) < 2:
            cls = by_closed.setdefault(nbrs | {v}, [])
            cls.append(v)
        if cls[0] == v:
            index[v] = len(classes)
            classes.append(cls)
        else:
            index[v] = index[cls[0]]
    kinds = tuple(
        "clique" if len(cls) >= 2 and graph.has_edge(cls[0], cls[1]) else "independent"
        for cls in classes
    )
    return TypePartition(tuple(map(tuple, classes)), kinds, tuple(index), graph)


def class_threshold_stats(instance: Instance, members: tuple[int, ...]) -> tuple[int, int]:
    """(t(C), alpha(C)): smallest member threshold and how many attain it."""
    t = min(instance.threshold(v) for v in members)
    alpha = sum(1 for v in members if instance.threshold(v) == t)
    return t, alpha


def nd_rows(partition: TypePartition) -> tuple[tuple[int, ...], ...]:
    """One packing row per class on the classes its members see: the
    neighbour classes, plus the class itself when it is a clique.  No
    guess changes a row.
    """
    return tuple(
        nbrs + (i,) if kind == "clique" else nbrs
        for i, (nbrs, kind) in enumerate(zip(partition.type_neighbors, partition.kinds))
    )


def nd_bounds(
    partition: TypePartition, class_stats, saturating: frozenset
) -> tuple[list[int], list[int], list[int]]:
    """(row bounds, lower, upper) of one saturation guess, given each
    class's (t(C), alpha(C)).  A variable counts the members of its class
    in S, and row i caps what a member with the least threshold sees at
    t(C) - 1.  The guess only bounds the clique variables: a class in
    `saturating` holds [alpha(C), |C|] solution vertices, any other
    clique class [0, alpha(C) - 1].
    """
    for i in saturating:
        if partition.kinds[i] != "clique":
            raise ValueError(f"class {i} in guess is not a clique class")
    bounds, lower, upper = [], [], []
    for i, (members, (t, alpha)) in enumerate(zip(partition.classes, class_stats)):
        lo, hi, bound = 0, len(members), t - 1
        if partition.kinds[i] == "clique":
            if i in saturating:  # members of S see x_i - 1 inside the class
                lo, bound = alpha, t
            else:
                hi = alpha - 1
        bounds.append(bound)
        lower.append(lo)
        upper.append(hi)
    return bounds, lower, upper


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


def solve_nd(instance: Instance, partition: TypePartition | None = None) -> SolveResult:
    """Maximum harmless set via the type-graph integer programs; each
    guess passes the best size so far as the engine's floor."""
    partition = partition or nd_partition(instance.graph)
    clique_classes = [
        i for i in range(partition.width) if partition.kinds[i] == "clique"
    ]
    rows = nd_rows(partition)
    class_stats = [class_threshold_stats(instance, members) for members in partition.classes]
    stats: dict = {"classes": partition.width, "guesses": 0}
    best: tuple[int, tuple[int, ...]] = (-1, ())
    for bits in range(1 << len(clique_classes)):
        saturating = frozenset(
            clique_classes[j] for j in range(len(clique_classes)) if bits >> j & 1
        )
        stats["guesses"] += 1
        counts = maximize(rows, *nd_bounds(partition, class_stats, saturating), stats, best[0])
        if counts is not None:
            best = (sum(counts), counts)
    if best[0] < 0:
        raise ReconstructionError("no feasible guess; the empty set was lost")
    witness = _select_members(instance, partition, best[1])
    if len(witness) != best[0] or not is_harmless(instance, witness):
        raise ReconstructionError(
            f"nd witness {witness} fails verification for size {best[0]}"
        )
    return SolveResult(best[0], witness, "nd", stats)
