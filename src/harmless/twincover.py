"""Exact solver parameterized by twin cover.

A twin cover is a vertex set X such that every edge either has an
endpoint in X or joins true twins (N[a] = N[b]).  Removing X leaves a
disjoint union of cliques, and all vertices of one such clique share the
same neighbourhood inside X.  The solver sweeps the 2^|X| choices of
S_X = S & X; for each choice every leftover clique gets a capacity on
how many of its vertices may join S, cliques with identical
X-neighbourhoods are pooled into one integer variable, and a small
integer program, solved by `ilp.maximize`, distributes the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .core import Graph, Instance, ReconstructionError, SolveResult, is_harmless
from .ilp import maximize
from .nd import TypePartition, class_threshold_stats, nd_partition
from .oracle import DEFAULT_NODE_BUDGET, OracleLimitError

BRUTEFORCE_COVER_LIMIT = 12  # most vertices minimum_twin_cover_bruteforce takes


@dataclass(frozen=True)
class TwinDecomposition:
    """Cliques of G - X, their X-neighbourhoods and (t, alpha) stats,
    the clique indices grouped into classes by X-neighbourhood, and one
    packing row per cover vertex on the classes whose X-neighbourhood
    holds it; none of these depends on the guess S_X.
    """

    cover: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]
    x_neighborhoods: tuple[frozenset, ...]
    threshold_stats: tuple[tuple[int, int], ...]
    classes: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]

    def caps(self, s_x) -> tuple[int, ...] | None:
        """How many members of each clique may join S under S_X; None
        for a dead guess.

        For clique C let m = t(C) - |N(C) & S_X|.  When more than m - 1
        members share the minimum threshold (alpha(C) > m) even a full
        house of m members would push one of them to its threshold, so
        the cap drops to m - 1; otherwise it is m.  Caps are clamped to
        |C|; a negative cap means S_X already overwhelms C.
        """
        sx = set(s_x)
        caps = []
        for clique, nx, (t, alpha) in zip(
            self.cliques, self.x_neighborhoods, self.threshold_stats
        ):
            m = t - len(nx & sx)
            cap = m - 1 if alpha > m else m
            if cap < 0:
                return None
            caps.append(min(cap, len(clique)))
        return tuple(caps)


def is_twin_cover(graph: Graph, vertices, partition: TypePartition | None = None) -> bool:
    """Every edge is covered or joins two members of one twin class of
    `partition`, built here unless the caller passes the graph's own."""
    xs, class_of = set(vertices), (partition or nd_partition(graph)).class_of
    return all(u in xs or v in xs or class_of[u] == class_of[v] for u, v in graph.edges)


def _matching_size(edges) -> int:
    """Size of the greedy maximal matching on `edges`, taken in order."""
    matched: set[int] = set()
    for u, v in edges:
        if u not in matched and v not in matched:
            matched.update((u, v))
    return len(matched) // 2


def find_twin_cover(
    graph: Graph, k_max: int, partition: TypePartition | None = None
) -> tuple[int, ...] | None:
    """Smallest twin cover of size <= k_max, or None.

    Edges not joining true twins must be covered like a vertex cover.
    Those are the edges between two twin classes of `partition` (built
    here unless the caller passes the graph's own), since adjacent
    members of one class are true twins.  A greedy maximal matching on
    those hard edges needs one cover vertex per matched edge, so a
    matching larger than k_max answers None without branching.
    Otherwise each connected component of the hard edges is searched on
    its own: it tries budgets k in increasing order from its own
    matching size up to k_max less the other components' lower bounds
    (their covers once found, their matching sizes before), and
    branches on the endpoints of its first uncovered hard edge, u before
    v.  The same bound prunes each node: it branches only while its
    picks plus a greedy matching on its uncovered hard edges stay within
    k, so it cuts only subtrees that hold no cover of size k.  A search
    meets its leaves in lexicographic order of their branch choices, so
    the first minimum cover of the whole graph is the union of each
    component's first one, and splitting changes no cover.  Each search
    runs on an explicit stack; a branch covers every edge up to the one
    it branched on, so its first uncovered edge lies further on.
    Visiting more than DEFAULT_NODE_BUDGET nodes, counted over every
    component and every k, raises OracleLimitError.
    """
    class_of = (partition or nd_partition(graph)).class_of
    hard = [(u, v) for u, v in graph.edges if class_of[u] != class_of[v]]
    spare = k_max - _matching_size(hard)
    if spare < 0:
        return None
    label = [0] * (graph.n + 1)  # a component's first endpoint, once reached
    components: dict[int, list[tuple[int, int]]] = {}
    for e in hard:
        if not label[e[0]]:
            label[e[0]] = e[0]
            stack = [e[0]]
            while stack:
                v = stack.pop()
                for w in graph.neighbors[v - 1]:
                    if not label[w] and class_of[w] != class_of[v]:
                        label[w] = e[0]
                        stack.append(w)
        components.setdefault(label[e[0]], []).append(e)
    nodes = 0
    stamp = [0] * (graph.n + 1)  # stamp[v] == nodes: v matched at this node
    taken = [False] * (graph.n + 1)
    cover: list[int] = []
    for edges in components.values():
        low = _matching_size(edges)
        found, nodes = _cover_search(edges, low, low + spare, taken, stamp, nodes)
        if found is None:
            return None
        spare -= len(found) - low
        cover += found
    return tuple(sorted(cover))


def _cover_search(hard, low, high, taken, stamp, nodes):
    """First cover of the edges `hard` with low <= k <= high vertices,
    the smallest k first, or None; and the node count, `nodes` on entry.
    `taken` marks the picks on the path to the node; it must be False on
    the endpoints of `hard` on entry, and a found cover stays marked,
    which no other component reads."""
    budget = DEFAULT_NODE_BUDGET
    chosen: list[int] = []  # the picks on the path to the node
    for k in range(low, high + 1):
        # (picks above the node, the node's own pick, where its scan starts)
        stack = [(0, 0, 0)]
        while stack:
            depth, pick, i = stack.pop()
            while len(chosen) > depth:
                taken[chosen.pop()] = False
            if pick:
                chosen.append(pick)
                taken[pick] = True
            nodes += 1
            if nodes > budget:
                raise OracleLimitError(f"oracle limit: more than {budget} search nodes")
            while i < len(hard) and (taken[hard[i][0]] or taken[hard[i][1]]):
                i += 1
            if i == len(hard):
                return chosen, nodes
            if len(chosen) < k:
                u, v = hard[i]
                stamp[u] = stamp[v] = nodes
                need = len(chosen) + 1
                for a, b in islice(hard, i + 1, None):
                    if taken[a] or taken[b] or stamp[a] == nodes or stamp[b] == nodes:
                        continue
                    stamp[a] = stamp[b] = nodes
                    need += 1
                    if need > k:
                        break
                if need <= k:
                    stack += [(len(chosen), v, i + 1), (len(chosen), u, i + 1)]
    return None, nodes


def decompose(instance: Instance, cover, partition: TypePartition) -> TwinDecomposition:
    """Read the cliques of G - X off the twin classes once per cover, by
    least member: the members outside X of a clique class, or one of an
    independent class.  `cover` must be a twin cover; it is not checked.
    """
    graph = instance.graph
    xs = set(cover)
    seen = set(xs)
    cliques, x_nbrs = [], []
    for v in graph.vertices():
        if v in seen:
            continue
        i, clique = partition.class_of[v], (v,)
        if partition.kinds[i] == "clique":
            clique = tuple(u for u in partition.classes[i] if u not in xs)
        seen.update(clique)
        cliques.append(clique)
        x_nbrs.append(frozenset(graph.neighbors[v - 1] & xs))
    groups: dict[frozenset, list[int]] = {}
    for idx, nx in enumerate(x_nbrs):
        groups.setdefault(nx, []).append(idx)
    keys = sorted(groups, key=sorted)
    cover = tuple(sorted(xs))
    return TwinDecomposition(
        cover,
        tuple(cliques),
        tuple(x_nbrs),
        tuple(class_threshold_stats(instance, clique) for clique in cliques),
        tuple(tuple(groups[key]) for key in keys),
        tuple(tuple(i for i, key in enumerate(keys) if u in key) for u in cover),
    )


def _distribute(
    decomp: TwinDecomposition,
    caps: tuple[int, ...],
    counts: tuple[int, ...],
    instance: Instance,
) -> list[int]:
    """Spread each class count over its cliques, fullest cap first."""
    chosen: list[int] = []
    for i, take in enumerate(counts):
        order = sorted(decomp.classes[i], key=lambda idx: (-caps[idx], idx))
        for idx in order:
            if take == 0:
                break
            grab = min(caps[idx], take)
            members = sorted(
                decomp.cliques[idx],
                key=lambda v: (instance.threshold(v), v),
            )
            chosen.extend(members[:grab])
            take -= grab
        if take:
            raise ReconstructionError("class capacity lost during distribution")
    return chosen


def solve_twincover(
    instance: Instance, cover, partition: TypePartition | None = None
) -> SolveResult:
    """Maximum harmless set via the 2^|X| sweep over S_X; each live guess
    passes the best total so far less |S_X| as the engine's floor."""
    graph = instance.graph
    partition = partition or nd_partition(graph)
    xs = tuple(sorted(set(cover)))
    if not is_twin_cover(graph, xs, partition):
        raise ValueError(f"{list(xs)} is not a twin cover")
    decomp = decompose(instance, xs, partition)
    stats: dict = {"cover_size": len(xs), "guesses": 0, "dead_guesses": 0}
    best: tuple[int, tuple[int, ...]] = (-1, ())
    for bits in range(1 << len(xs)):
        s_x = tuple(xs[j] for j in range(len(xs)) if bits >> j & 1)
        stats["guesses"] += 1
        caps = decomp.caps(s_x)
        if caps is None:
            stats["dead_guesses"] += 1
            continue
        sx = set(s_x)
        bounds = [instance.threshold(u) - 1 - len(graph.neighbors[u - 1] & sx) for u in xs]
        if min(bounds, default=0) < 0:  # S_X alone overwhelms a cover vertex
            stats["dead_guesses"] += 1
            continue
        upper = [sum(caps[idx] for idx in cls) for cls in decomp.classes]
        floor = best[0] - len(s_x)
        counts = maximize(decomp.rows, bounds, [0] * len(upper), upper, stats, floor)
        if counts is not None:
            total = len(s_x) + sum(counts)
            witness = tuple(sorted(list(s_x) + _distribute(decomp, caps, counts, instance)))
            best = (total, witness)
    if best[0] < 0:
        raise ReconstructionError("every guess died; the empty set was lost")
    size, witness = best
    if len(witness) != size or not is_harmless(instance, witness):
        raise ReconstructionError(
            f"twin cover witness {witness} fails verification for size {size}"
        )
    return SolveResult(size, witness, "twincover", stats)


def minimum_twin_cover_bruteforce(graph: Graph) -> tuple[int, ...]:
    """Smallest twin cover by subset enumeration; test-scale only."""
    if graph.n > BRUTEFORCE_COVER_LIMIT:
        raise ValueError(f"{graph.n} vertices exceeds cap {BRUTEFORCE_COVER_LIMIT}")
    partition = nd_partition(graph)
    for size in range(graph.n + 1):
        for combo in combinations(graph.vertices(), size):
            if is_twin_cover(graph, combo, partition):
                return combo
    raise AssertionError("V itself is always a twin cover")
