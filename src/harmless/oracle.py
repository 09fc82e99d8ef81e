"""Brute-force reference solvers and the two source-problem formats.

These are the trusted baselines the faster solvers are tested against:

* maximum harmless set by branch and bound over vertex subsets,
* minimum maximum outdegree orientation feasibility (MMO),
* multidimensional relay station subset feasibility (MRSS).

Each one is exhaustive up to an explicit work limit and raises instead
of guessing when the limit is hit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FormatError,
    Graph,
    Instance,
    ReconstructionError,
    SolveResult,
    bfs_distances,
    content_lines,
)
from .ilp import DUAL_SCALE, packing_dual

DEFAULT_NODE_BUDGET = 2_000_000
EDGE_LIMIT = 20
VECTOR_LIMIT = 20


class OracleLimitError(RuntimeError):
    """The search exceeded its work budget before finishing."""


@dataclass(frozen=True)
class WeightedGraph:
    """Graph with positive integer edge weights and an outdegree bound r."""

    graph: Graph
    weights: dict
    r: int

    def __post_init__(self):
        canon = {}
        present = set(self.graph.edges)
        for (u, v), w in self.weights.items():
            e = (u, v) if u < v else (v, u)
            if e not in present:
                raise ValueError(f"weight given for missing edge ({u},{v})")
            if w < 1:
                raise ValueError(f"edge ({u},{v}): weight {w} < 1")
            canon[e] = w
        for e in self.graph.edges:
            if e not in canon:
                raise ValueError(f"edge ({e[0]},{e[1]}) has no weight")
        object.__setattr__(self, "weights", canon)
        if self.r < 0:
            raise ValueError("outdegree bound r must be non-negative")

    def weighted_degree(self, v: int) -> int:
        return sum(w for (a, b), w in self.weights.items() if v in (a, b))


@dataclass(frozen=True)
class MrssInstance:
    """Vectors over k coordinates, a demand vector t, and a budget k'."""

    k: int
    vectors: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    budget: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("dimension k must be at least 1")
        if len(self.target) != self.k:
            raise ValueError("target length does not match dimension")
        for s in self.vectors:
            if len(s) != self.k:
                raise ValueError("vector length does not match dimension")
            if any(x < 0 for x in s):
                raise ValueError("vector entries must be non-negative")
        if self.budget < 0:
            raise ValueError("budget k' must be non-negative")


def max_harmless_bruteforce(
    instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Maximum harmless set size plus its lexicographically least witness.

    Each connected component is solved on its own: the optimum is the
    sum of the per-component optima, and the witness is the union of
    the per-component lexicographically least witnesses.  That union is
    the least set of its size overall, because for sets A and B of equal
    size A < B iff min(A xor B) lies in A, and min(A xor B) lies in one
    component, where A and B differ as two sets of that component's
    optimum size.

    Within a component, vertex w is blocked while some neighbour has
    residual threshold (t minus chosen neighbours) at most 1; taking w
    would break that neighbour, and residuals only fall, so a blocked
    vertex stays blocked down the branch.  A neighbour of a threshold-1
    vertex is blocked from the start and never searched.

    What the undecided unblocked vertices U can still add is bounded
    twice.  The first bound is |U|.  The second is the Lagrangian bound
    of the packing program max sum x_u subject to, for each vertex v,
    the sum of x_u over its neighbours u in U at most r_v - 1, r the
    residual: with integer multipliers p_v >= 0 over the denominator
    D = DUAL_SCALE and reduced costs c_u = max(0, D - sum of p_v over
    the neighbours v of u), lag = sum of p_v (r_v - 1) + sum of c_u over
    U is at least D times what U can add (`ilp.packing_dual`).  This
    holds for any p >= 0, so it is exact in integers however p was
    found.  p and c are computed once per component, over its vertices
    not blocked from the start, by exact coordinate descent on the
    Lagrangian, which never raises the bound from one sweep to the
    next.  Each branch carries |U| and lag, and dies when
    size + |U| <= best or D * size + lag < D * (best + 1).
    Skipping u subtracts c_u from lag; taking u subtracts c_u, p_v for
    each neighbour v (its residual falls by one) and c_w for each
    undecided vertex w it newly blocks.

    Phase one finds the optimum h by branch and bound on an explicit
    stack, deciding vertices by reduced cost c_u, highest first, then
    by degree, lowest first, then by id, and taking before skipping.
    Phase two walks the ids upwards and builds the least witness
    greedily, keeping a vertex when the chosen prefix plus that vertex
    still extends to h vertices among the larger ids.  It carries a
    size-h optimum that agrees with the prefix, starting from phase
    one's best set: a vertex in it is kept without search, and any other
    vertex is kept only if a search of the larger ids, in phase one's
    order, with incumbent h - 1 and goal h, finds a set, which becomes
    the carried optimum.  Both bounds prune these searches too, so the
    size and the witness do not depend on p.  `node_budget` caps the
    search nodes of all components and both phases together; the
    sweeps behind p are counted apart, as `stats["lp_iterations"]`.
    """
    graph = instance.graph
    n = graph.n
    adjacency = [(), *map(tuple, graph.neighbors)]
    residual = [0, *instance.thresholds]
    blocked = [0] * (n + 1)
    for u in graph.vertices():
        if residual[u] == 1:
            for w in adjacency[u]:
                blocked[w] += 1
    rank = [0] * (n + 1)  # position in its component's phase one order
    price = [0] * (n + 1)  # p_v, the multiplier of v's row
    cost = [0] * (n + 1)  # c_u, the reduced cost of u
    stats = {"budget": node_budget, "nodes": 0, "lp_iterations": 0}
    nodes = 0

    # phase two fixes and frees vertices outside the search loop, which
    # does the same inline and also keeps |U| and lag
    def take(v: int) -> None:
        for u in adjacency[v]:
            residual[u] -= 1
            if residual[u] == 1:
                for w in adjacency[u]:
                    blocked[w] += 1

    def undo(v: int) -> None:
        for u in adjacency[v]:
            if residual[u] == 1:
                for w in adjacency[u]:
                    blocked[w] -= 1
            residual[u] += 1

    def search(component, order, stop: int, size: int, best: int, goal: int):
        # Decide the vertices of `order`, none of them blocked yet, on
        # top of the chosen ones, which form a harmless set of `size`
        # vertices in `component`.  Return the largest size above `best`
        # reached (else `best`) and the vertices taken for it (else
        # None); stop at the first set of `goal` vertices.
        nonlocal nodes
        taken: list[int] = []
        found = None
        lag = sum(price[v] * (residual[v] - 1) for v in component)
        lag += sum(map(cost.__getitem__, order))
        stack: list = [(0, size, len(order), lag)]
        while stack:
            entry = stack.pop()
            if type(entry) is int:  # undo marker
                for u in adjacency[entry]:
                    if residual[u] == 1:
                        for w in adjacency[u]:
                            blocked[w] -= 1
                    residual[u] += 1
                taken.pop()
                continue
            i, size, avail, lag = entry
            nodes += 1
            if nodes > node_budget:
                raise OracleLimitError(f"oracle limit: more than {node_budget} search nodes")
            if size > best:
                best, found = size, list(taken)
                if size == goal:  # only the undo markers are left to run
                    stack = [e for e in stack if type(e) is int]
                    continue
            if size + avail <= best or lag < DUAL_SCALE * (best + 1 - size):
                continue
            # avail > 0, so an unblocked vertex is left to decide
            while blocked[order[i]]:
                i += 1
            v = order[i]
            r = rank[v]
            lag -= cost[v]
            stack.append((i + 1, size, avail - 1, lag))
            # take v: a neighbour whose residual reaches 1 blocks its
            # neighbours, and the undecided ones among them leave U
            lost = 0
            for u in adjacency[v]:
                residual[u] -= 1
                lag -= price[u]
                if residual[u] == 1:
                    for w in adjacency[u]:
                        if not blocked[w] and w > stop and rank[w] > r:
                            lost += 1
                            lag -= cost[w]
                        blocked[w] += 1
            taken.append(v)
            stack.append(v)
            stack.append((i + 1, size + 1, avail - 1 - lost, lag))
        return best, found

    seen = [False] * (n + 1)
    witness: list[int] = []
    for source in graph.vertices():
        if seen[source]:
            continue
        component = sorted(bfs_distances(graph, source))
        for v in component:
            seen[v] = True
        free = [v for v in component if not blocked[v]]
        index = {v: i for i, v in enumerate(free)}
        rows = [[index[u] for u in adjacency[v] if u in index] for v in component]
        p, c = packing_dual(rows, [residual[v] - 1 for v in component], [1] * len(free), stats)
        for v, x in zip(component, p):
            price[v] = x
        for v, x in zip(free, c):
            cost[v] = x
        order = sorted(free, key=lambda v: (-cost[v], len(adjacency[v]), v))
        for r, v in enumerate(order):
            rank[v] = r
        h, found = search(component, order, 0, 0, 0, len(order))
        carried = set(found or ())
        chosen: list[int] = []
        for cur in component:
            if len(chosen) == h:
                break
            if blocked[cur]:
                continue
            take(cur)
            if cur not in carried:
                rest = [v for v in order if v > cur and not blocked[v]]
                size, found = search(component, rest, cur, len(chosen) + 1, h - 1, h)
                if size < h:
                    undo(cur)
                    continue
                carried = {*chosen, cur, *found}
            chosen.append(cur)
        if len(chosen) != h:
            raise ReconstructionError("witness reconstruction lost the optimum")
        witness += chosen
    witness.sort()
    stats["nodes"] = nodes
    return SolveResult(len(witness), tuple(witness), "brute", stats)


def mmo_feasible_bruteforce(wg: WeightedGraph) -> tuple[bool, tuple[tuple[int, int], ...] | None]:
    """Is there an orientation with weighted outdegree <= r everywhere?

    Tries all 2^m orientations depth-first (edge list in sorted order,
    u->v branch first), pruning as soon as a tail exceeds r.  Returns
    the first feasible orientation as a tuple of directed pairs.
    """
    edges = wg.graph.edges
    if len(edges) > EDGE_LIMIT:
        raise OracleLimitError(f"oracle limit: {len(edges)} edges exceeds cap {EDGE_LIMIT}")
    out = [0] * (wg.graph.n + 1)
    oriented: list[tuple[int, int]] = []

    def branch(idx: int) -> bool:
        if idx == len(edges):
            return True
        u, v = edges[idx]
        w = wg.weights[(u, v)]
        for tail, head in ((u, v), (v, u)):
            if out[tail] + w <= wg.r:
                out[tail] += w
                oriented.append((tail, head))
                if branch(idx + 1):
                    return True
                oriented.pop()
                out[tail] -= w
        return False

    if branch(0):
        return True, tuple(oriented)
    return False, None


def mrss_feasible_bruteforce(mi: MrssInstance) -> tuple[bool, tuple[int, ...] | None]:
    """Is there a subset of at most k' vectors with componentwise sum >= t?

    Enumerates subsets by increasing size, each size in lexicographic
    index order, and returns the first hit as a tuple of 1-based vector
    indices.
    """
    from itertools import combinations

    if len(mi.vectors) > VECTOR_LIMIT:
        raise OracleLimitError(
            f"oracle limit: {len(mi.vectors)} vectors exceeds cap {VECTOR_LIMIT}"
        )
    indices = range(1, len(mi.vectors) + 1)
    for size in range(min(mi.budget, len(mi.vectors)) + 1):
        for combo in combinations(indices, size):
            sums = [0] * mi.k
            for idx in combo:
                vec = mi.vectors[idx - 1]
                for c in range(mi.k):
                    sums[c] += vec[c]
            if all(sums[c] >= mi.target[c] for c in range(mi.k)):
                return True, combo
    return False, None


def parse_mmo(text: str) -> WeightedGraph:
    """Parse `p mmo <n> <m> <r>` plus `e <u> <v> <w>` lines; `Graph`
    checks each edge as its line is read, so its errors name that line."""
    lines = content_lines(text)
    if not lines:
        raise FormatError("missing `p mmo <n> <m> <r>` header")
    lineno, line = lines[0]
    fields = line.split()
    if len(fields) != 5 or fields[0] != "p" or fields[1] != "mmo":
        raise FormatError(f"line {lineno}: expected `p mmo <n> <m> <r>`")
    try:
        n, m, r = (int(x) for x in fields[2:])
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer header") from None
    weights: dict[tuple[int, int], int] = {}

    def edges():
        nonlocal lineno
        for lineno, line in lines[1:]:
            fields = line.split()
            if fields[0] != "e" or len(fields) != 4:
                raise FormatError(f"line {lineno}: expected `e <u> <v> <w>`")
            try:
                u, v, w = (int(x) for x in fields[1:])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer edge line") from None
            weights[u, v] = w
            yield u, v

    try:
        graph = Graph(n, edges())
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None
    if len(graph.edges) != m:
        raise FormatError(f"expected {m} edge lines, found {len(graph.edges)}")
    try:
        return WeightedGraph(graph, weights, r)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_mrss(text: str) -> MrssInstance:
    """Parse `p mrss <k> <n> <k'>`, one `t` line, and n `s` lines."""
    header = None
    target = None
    vectors: list[tuple[int, ...]] = []
    for lineno, line in content_lines(text):
        fields = line.split()
        if header is None:
            if len(fields) != 5 or fields[0] != "p" or fields[1] != "mrss":
                raise FormatError(f"line {lineno}: expected `p mrss <k> <n> <k'>`")
            try:
                header = tuple(int(x) for x in fields[2:])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer header") from None
            continue
        if fields[0] == "t":
            if target is not None:
                raise FormatError(f"line {lineno}: duplicate target line")
            try:
                target = tuple(int(x) for x in fields[1:])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer target line") from None
        elif fields[0] == "s":
            try:
                vec = tuple(int(x) for x in fields[1:])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer vector line") from None
            if any(x < 0 for x in vec):
                raise FormatError(f"line {lineno}: vector entries must be non-negative")
            vectors.append(vec)
        else:
            raise FormatError(f"line {lineno}: unknown line type {fields[0]!r}")
    if header is None:
        raise FormatError("missing `p mrss <k> <n> <k'>` header")
    k, n, budget = header
    if target is None:
        raise FormatError("missing `t` target line")
    if len(target) != k:
        raise FormatError(f"target has {len(target)} entries, expected {k}")
    if len(vectors) != n:
        raise FormatError(f"expected {n} vector lines, found {len(vectors)}")
    for i, vec in enumerate(vectors, start=1):
        if len(vec) != k:
            raise FormatError(f"vector {i} has {len(vec)} entries, expected {k}")
    try:
        return MrssInstance(k, tuple(vectors), target, budget)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_mmo(wg: WeightedGraph) -> str:
    lines = [f"p mmo {wg.graph.n} {len(wg.graph.edges)} {wg.r}"]
    for u, v in wg.graph.edges:
        lines.append(f"e {u} {v} {wg.weights[(u, v)]}")
    return "\n".join(lines) + "\n"


def serialize_mrss(mi: MrssInstance) -> str:
    lines = [f"p mrss {mi.k} {len(mi.vectors)} {mi.budget}"]
    lines.append("t " + " ".join(str(x) for x in mi.target))
    for vec in mi.vectors:
        lines.append("s " + " ".join(str(x) for x in vec))
    return "\n".join(lines) + "\n"
