"""Kernelization pipeline: coloring, deletion rule, diameter rule.

A vertex with a threshold-1 neighbour can never join a harmless set
(red); the rest are green.  The deletion rule removes red vertices whose
constraints cannot bind on the survivors, the diameter rule answers yes
outright on graphs of diameter at least 6k, and whatever remains is
solved exactly.  Everything is verified against the original instance
before a yes is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Graph,
    Instance,
    ReconstructionError,
    bfs_distances,
    clamp_thresholds,
    is_harmless,
)
from .oracle import DEFAULT_NODE_BUDGET, OracleLimitError, max_harmless_bruteforce


class KernelTooLargeError(OracleLimitError):
    """The reduced instance still exceeds the exact solver's budget."""


@dataclass(frozen=True)
class PlanarDecision:
    answer: bool
    witness: tuple | None
    path_used: tuple | None
    kernel_stats: dict


def color_vertices(instance: Instance) -> frozenset:
    """The red vertices: those with a threshold-1 neighbour, which are in
    no harmless set.  Every other vertex is green."""
    graph = instance.graph
    return frozenset().union(
        *(graph.neighbors[v - 1] for v in graph.vertices() if instance.threshold(v) == 1)
    )


def apply_reduction1(instance: Instance) -> tuple[Instance, tuple[int, ...]]:
    """Delete red vertices whose constraints cannot bind, to a fixpoint.

    The candidates are the red vertices whose neighbours are all red
    (isolated reds included); the rule deletes the largest candidate
    subset D in which every member v has t(v) > |N(v) \\ D| (so v's own
    constraint is vacuous once D is gone; without that guard a deletion
    can erase the redness certificate of a neighbour and grow the
    maximum).  D is found by peeling off members that break the bound,
    and the peeling order does not matter, since the sets meeting the
    bound are closed under union.

    One round reaches the fixpoint.  A threshold-1 member of D has all
    its neighbours in D, so no survivor loses its red certificate and
    the survivors keep their colors and candidacy; and a set E
    deletable after D would make D | E meet the bound in the first
    place, so E lies inside the largest such set, D.

    Returns the instance induced on survivors (renumbered ascending) and
    the deleted original ids, ascending.
    """
    graph = instance.graph
    nbrs = graph.neighbors
    t = (0,) + instance.thresholds
    red = color_vertices(instance)
    chosen = {v for v in red if red.issuperset(nbrs[v - 1])}
    outside = {v: len(nbrs[v - 1] - chosen) for v in chosen}
    blocked = [v for v in chosen if t[v] <= outside[v]]
    while blocked:
        v = blocked.pop()
        chosen.discard(v)
        for u in nbrs[v - 1]:
            if u in chosen:
                outside[u] += 1
                if outside[u] == t[u]:
                    blocked.append(u)
    if not chosen:
        return instance, ()

    survivors = [v for v in graph.vertices() if v not in chosen]
    rank = {v: i + 1 for i, v in enumerate(survivors)}
    edges = [
        (rank[u], rank[v])
        for u, v in graph.edges
        if u not in chosen and v not in chosen
    ]
    reduced = Instance(
        Graph(len(survivors), edges),
        [t[v] for v in survivors],
    )
    return reduced, tuple(sorted(chosen))


def _diameter_scan(
    instance: Instance, k: int
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None, int]:
    """First ascending source with eccentricity >= 6k decides the rule.

    A component is skipped once a BFS from one of its sources s shows
    that none of them can fire: it has at most 6k vertices, or
    ecc(s) < 3k, since every eccentricity in a component is at most its
    diameter, which is at most 2 ecc(s).  A small or shallow component
    thus costs one BFS instead of one per vertex.

    Returns (witness, path, largest eccentricity computed); witness and
    path are None when the rule does not apply.  The third value is a
    lower bound on the diameter, not the diameter itself, because the
    skipped sources are never searched.
    """
    graph = instance.graph
    red = color_vertices(instance)
    diameter_seen = 0
    quiet: set[int] = set()
    for source in graph.vertices():
        if source in quiet:
            continue
        dist = bfs_distances(graph, source)
        ecc = max(dist.values())
        diameter_seen = max(diameter_seen, ecc)
        if ecc < 6 * k:
            if len(dist) <= 6 * k or 2 * ecc < 6 * k:
                quiet.update(dist)
            continue
        target = min(v for v, d in dist.items() if d == 6 * k)
        path = [target]
        while path[-1] != source:
            w = path[-1]
            path.append(
                min(u for u in graph.neighbors[w - 1] if dist.get(u) == dist[w] - 1)
            )
        path.reverse()
        picks = []
        for i in range(k + 1):
            v = path[6 * i]
            if v not in red:
                picks.append(v)
                continue
            green = [u for u in sorted(graph.neighbors[v - 1]) if u not in red]
            if not green:
                return None, None, diameter_seen
            picks.append(green[0])
        witness = tuple(sorted(set(picks)))
        if len(witness) < k or not is_harmless(instance, witness):
            return None, None, diameter_seen
        return witness, tuple(path), diameter_seen
    return None, None, diameter_seen


def diameter_witness(instance: Instance, k: int):
    """A verified harmless set of size >= k on graphs of diameter >= 6k.

    Picks every sixth vertex of a shortest path (or a green neighbour
    when the vertex itself is red).  Returns None when no component is
    wide enough or the assembled set fails verification.  Assumes the
    deletion rule has already run to fixpoint.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    witness, _, _ = _diameter_scan(instance, k)
    return witness


def solve_planar(
    instance: Instance, k: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> PlanarDecision:
    """Decide whether a harmless set of size k exists, witness included.

    Thresholds are clamped at k+1 (a set of size k never meets a higher
    one), the deletion rule shrinks the graph, the diameter rule answers
    wide instances without search, and the remaining kernel is solved
    exactly.  A yes-witness is translated back to original ids and
    re-verified against the unreduced instance.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    clamped = clamp_thresholds(instance, k)
    reduced, deleted = apply_reduction1(clamped)
    gone = set(deleted)
    survivors = [v for v in instance.graph.vertices() if v not in gone]
    stats = {"deleted": len(deleted)}

    def to_original(vertices) -> tuple[int, ...]:
        return tuple(survivors[v - 1] for v in vertices)

    def verified(witness: tuple[int, ...]) -> tuple[int, ...]:
        if len(witness) < k or not is_harmless(instance, witness):
            raise ReconstructionError(
                f"planar witness {witness} fails verification for k={k}"
            )
        return witness

    witness, path, diameter_seen = _diameter_scan(reduced, k)
    stats["diameter"] = diameter_seen
    if witness is not None:
        return PlanarDecision(
            True, verified(tuple(sorted(to_original(witness)))), to_original(path), stats
        )
    try:
        result = max_harmless_bruteforce(reduced, node_budget)
    except OracleLimitError as e:
        raise KernelTooLargeError(f"kernel too large: {e}") from e
    stats["kernel_nodes"] = result.stats["nodes"]
    stats["kernel_size"] = result.size
    if result.size < k:
        return PlanarDecision(False, None, None, stats)
    return PlanarDecision(
        True, verified(tuple(sorted(to_original(result.witness)))), None, stats
    )
