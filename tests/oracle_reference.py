"""Reference form of the branch and bound oracle, for tests only.

`reference_bruteforce` is the recursive oracle the package shipped
before it searched each component on its own with an explicit stack: it
decides vertices in descending id order, bounds a branch by the number
of undecided vertices, and rebuilds the lexicographically least witness
by re-running the search for every prefix.  Its answers and witnesses
are the ones the package must keep; its node counts are not, and it
recurses once per vertex.
"""

from harmless import Instance, SolveResult
from harmless.core import ReconstructionError
from harmless.oracle import DEFAULT_NODE_BUDGET, OracleLimitError


def reference_bruteforce(
    instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Maximum harmless set size plus its lexicographically least witness.

    Phase one finds the maximum size h by branch and bound: vertices are
    decided in descending id order, a branch dies as soon as some vertex
    already has t(v) chosen neighbours (any superset stays violated), or
    when even taking every undecided vertex cannot beat the incumbent.
    Phase two rebuilds the lexicographically least witness of size h by
    greedily fixing vertices in ascending order and re-running the
    same search, with incumbent h - 1 and goal h, for each prefix.
    """
    n = instance.graph.n
    adjacency = [[u - 1 for u in nbrs] for nbrs in instance.graph.neighbors]
    residual = list(instance.thresholds)
    nodes = 0
    best = 0

    def search(v: int, stop: int, size: int, goal: int) -> bool:
        # Vertices stop+1..v are undecided, the rest are fixed, and the
        # fixed-in set is itself harmless (all residuals >= 1).  True iff
        # it extends to goal vertices; best tracks the largest size seen.
        nonlocal nodes, best
        nodes += 1
        if nodes > node_budget:
            raise OracleLimitError(f"oracle limit: more than {node_budget} search nodes")
        if size == goal:
            return True
        if size > best:
            best = size
        if v == stop or size + (v - stop) <= best:
            return False
        nbrs = adjacency[v - 1]
        # take v unless some neighbour is already saturated
        for u in nbrs:
            if residual[u] <= 1:
                break
        else:
            for u in nbrs:
                residual[u] -= 1
            found = search(v - 1, stop, size + 1, goal)
            for u in nbrs:
                residual[u] += 1
            if found:
                return True
        return search(v - 1, stop, size, goal)

    # no set has n + 1 vertices, so phase one never stops early
    search(n, 0, 0, n + 1)
    h = best
    # Greedy lexicographic reconstruction: walk ids upward, keep a
    # candidate only when the prefix still completes to size h among the
    # strictly larger ids.  Phase one guarantees the loop finishes.  With
    # the incumbent at h - 1 the bound cuts every branch that cannot reach h.
    best = h - 1
    chosen: list[int] = []
    for cur in range(1, n + 1):
        if len(chosen) == h:
            break
        nbrs = adjacency[cur - 1]
        if any(residual[u] <= 1 for u in nbrs):
            continue
        for u in nbrs:
            residual[u] -= 1
        if search(n, cur, len(chosen) + 1, h):
            chosen.append(cur)
        else:
            for u in nbrs:
                residual[u] += 1
    if len(chosen) != h:
        raise ReconstructionError("witness reconstruction lost the optimum")
    return SolveResult(h, tuple(chosen), "brute", {"budget": node_budget, "nodes": nodes})
