"""The package's one exact solver for packing integer programs.

Every integer program here maximises the sum of the variables, where
variable i ranges over `lower[i]..upper[i]` and each row c caps the sum
of the variables it lists at `bounds[c]`: the harmless set program of a
graph (`oracle.max_harmless_bruteforce`) and the small models of the nd
and twin cover solvers.  `maximize` is the branch and bound for all of
them, pruning with the multipliers of `packing_dual`.
"""

from __future__ import annotations

from operator import gt, mul

from .core import OracleLimitError, ReconstructionError

DUAL_SCALE = 1024  # the common denominator D of packing_dual's multipliers
DUAL_SWEEPS = 64  # the most sweeps packing_dual makes over the rows


def maximize(
    rows, bounds, lower, upper, stats: dict | None = None, floor: int = -1
) -> tuple[int, ...] | None:
    """Lexicographically greatest optimal assignment, or None when the
    model is infeasible or its optimum does not exceed `floor`; its
    value is its sum.

    `rows[c]` lists distinct variables, whose sum may not exceed
    `bounds[c]`, and 0 <= lower[i] <= upper[i].  The search works on
    y = x - lower, so variable i adds up to cap[i] = upper[i] - lower[i]
    and row c has the slack left by the lower bounds and the values
    taken.  A row at zero slack blocks its undecided variables at their
    lower bounds.  A row binds when the caps of its unblocked variables
    exceed its slack; a variable in no binding row takes its cap, and
    the others split into the components of the variable-row incidence
    graph over the binding rows.  Two optima first differ inside one
    component, so the per-component lexicographically greatest optima
    make up the lexicographically greatest optimum.

    With the multipliers p and reduced costs c that `packing_dual` finds
    for the binding rows over their unblocked variables, the undecided
    unblocked variables U of a component add at most the sum of their
    caps and at most lag / DUAL_SCALE, where lag is the sum of
    p[c] * slack[c] plus the sum of cap[u] * c[u] over U.  Phase one
    finds the component optimum h on an explicit stack, deciding
    variables by c, highest first, then by index, each from the least
    slack of its rows down to 0.  Phase two fixes the variables in index
    order, each at the largest value that still extends to h: it carries
    an optimum that agrees with the fixed prefix, and a larger value
    than the carried one needs a search of the higher indices.

    A caller that keeps only strictly better answers passes its best
    value as `floor`, and each component then starts from the least
    value that lifts the total above it, counting the others at their
    root bounds.  Nodes are added to `stats["ilp_nodes"]`, the dual's
    sweeps to `stats["lp_iterations"]`, and when `stats` holds a
    `"budget"`, searching more nodes than that raises OracleLimitError.
    """
    nvars = len(lower)
    if min(lower, default=0) < 0 or any(map(gt, lower, upper)):
        raise ValueError("every variable needs 0 <= lower <= upper")
    budget = (stats or {}).get("budget", float("inf"))
    overrun = f"oracle limit: more than {budget} search nodes"
    nodes = 1  # the root, which fixes the variables in no binding row
    try:
        if nodes > budget:
            raise OracleLimitError(overrun)
        slack = list(bounds)
        if any(lower):  # every lower bound is 0 in the oracle's program
            slack = [b - sum(map(lower.__getitem__, row)) for row, b in zip(rows, bounds)]
        if min(slack, default=0) < 0:
            return None
        cap = [hi - lo for lo, hi in zip(lower, upper)]
        for row, s in zip(rows, slack):
            if not s:
                for i in row:
                    cap[i] = 0
        binding = [c for c, row in enumerate(rows) if sum(map(cap.__getitem__, row)) > slack[c]]
        members = [()] * len(rows)  # the unblocked variables of a binding row
        var_rows: list[list[int]] = [[] for _ in range(nvars)]  # its binding rows
        for c in binding:
            members[c] = live = [i for i in rows[c] if cap[i]]
            for i in live:
                var_rows[i].append(c)
        value = [0 if var_rows[i] else cap[i] for i in range(nvars)]  # y
        free = [i for i in range(nvars) if var_rows[i]]
        price, cost = packing_dual(  # p[c] and c[u]
            members, slack, [k if rs else 0 for k, rs in zip(cap, var_rows)], stats
        )
        weight = list(map(mul, cost, cap))  # cap[u] * c[u]
        spent = [sum(map(price.__getitem__, cs)) for cs in var_rows]  # p over u's rows

        components = []  # (variables, sum of p[c] * slack[c], root bound)
        seen = [False] * nvars
        row_seen = [False] * len(rows)
        for source in free:  # search the variable-row incidence graph
            if seen[source]:
                continue
            seen[source] = True
            cvars, crows = [source], []
            for v in cvars:
                for c in var_rows[v]:
                    if not row_seen[c]:
                        row_seen[c] = True
                        crows.append(c)
                        for w in members[c]:
                            if not seen[w]:
                                seen[w] = True
                                cvars.append(w)
            cvars.sort()
            base = sum(price[c] * slack[c] for c in crows)
            top = (base + sum(map(weight.__getitem__, cvars))) // DUAL_SCALE
            components.append((cvars, base, min(top, sum(map(cap.__getitem__, cvars)))))

        rank = [0] * nvars  # position in its component's phase one order
        blocked = [0] * nvars  # binding rows of the variable at zero slack

        # phase two's own take and undo; the search loop inlines both
        def take(v: int, k: int) -> None:
            value[v] = k
            for c in var_rows[v]:
                slack[c] -= k
                if not slack[c]:
                    for w in members[c]:
                        blocked[w] += 1

        def undo(v: int) -> None:
            for c in var_rows[v]:
                if not slack[c]:
                    for w in members[c]:
                        blocked[w] -= 1
                slack[c] += value[v]
            value[v] = 0

        def search(order, stop: int, size: int, best: int, goal: int, base: int):
            # Decide the unblocked variables of `order`, all above index
            # `stop`, on top of the values taken (sum `size`, sum of p[c] *
            # slack[c] `base`); return the largest size above `best`, else
            # `best`, with its values, stopping at `goal`.  (i, size, caps
            # of U, lag, 0) decides the next unblocked variable from
            # order[i], (..., k) gives it k, and an int undoes a variable.
            nonlocal nodes
            found = value[:]
            lag = base + sum(map(weight.__getitem__, order))
            stack: list = [(0, size, sum(map(cap.__getitem__, order)), lag, 0)]
            while stack:
                entry = stack.pop()
                if type(entry) is int:  # undo marker
                    for c in var_rows[entry]:
                        s = slack[c]
                        if not s:
                            for w in members[c]:
                                blocked[w] -= 1
                        slack[c] = s + value[entry]
                    value[entry] = 0
                    continue
                i, size, avail, lag, k = entry
                if not k:
                    nodes += 1
                    if nodes > budget:
                        raise OracleLimitError(overrun)
                    if size > best:
                        best, found = size, value[:]
                        if size == goal:  # only the undo markers are left to run
                            stack = [e for e in stack if type(e) is int]
                            continue
                    if size + avail <= best or lag < DUAL_SCALE * (best + 1 - size):
                        continue
                    # avail > 0, so an unblocked variable is left to decide
                    while blocked[order[i]]:
                        i += 1
                    v = order[i]
                    k = cap[v]
                    avail -= k
                    lag -= weight[v]
                    stack.append((i + 1, size, avail, lag, 0))
                    if k > 1:
                        k = min(k, *map(slack.__getitem__, var_rows[v]))
                        stack += [(i, size, avail, lag, j) for j in range(1, k)]
                v = order[i]
                # take v at k: a row whose slack reaches 0 blocks its
                # variables, and the undecided ones among them leave U
                lag -= k * spent[v]
                for c in var_rows[v]:
                    s = slack[c] - k
                    slack[c] = s
                    if not s:
                        for w in members[c]:
                            if not blocked[w] and w > stop and rank[w] > rank[v]:
                                avail -= cap[w]
                                lag -= weight[w]
                            blocked[w] += 1
                value[v] = k
                stack.append(v)
                stack.append((i + 1, size + k, avail, lag, 0))
            return best, found

        need = floor - sum(lower) - sum(value)  # what the components must beat
        spare = sum(top for _, _, top in components)
        for cvars, base, top in components:
            spare -= top
            order = sorted(cvars, key=lambda v: (-cost[v], v))
            for r, v in enumerate(order):
                rank[v] = r
            h, carried = search(order, -1, 0, max(need - spare, 0), top, base)
            if h <= need - spare:
                return None
            need -= h
            total = 0
            for cur in cvars:
                if total == h:
                    break
                if blocked[cur]:
                    continue
                k = carried[cur]
                most = cap[cur]
                if most > 1:
                    most = min(most, *map(slack.__getitem__, var_rows[cur]))
                for j in range(most, k, -1):
                    take(cur, j)
                    rest = [v for v in order if v > cur and not blocked[v]]
                    size, found = search(rest, cur, total + j, h - 1, h, base - j * spent[cur])
                    undo(cur)
                    if size == h:
                        carried, k = found, j
                        break
                if k:
                    take(cur, k)
                    base -= k * spent[cur]
                total += k
            if total != h:
                raise ReconstructionError("witness reconstruction lost the optimum")
    finally:
        if stats is not None:
            stats["ilp_nodes"] = stats.get("ilp_nodes", 0) + nodes
    if need >= 0:  # no component was left to lift the total above the floor
        return None
    return tuple(lo + y for lo, y in zip(lower, value))


def packing_dual(rows, bounds, upper, stats: dict | None = None):
    """Integer Lagrangian multipliers for the packing form of `maximize`.

    Returns `(p, c)`: p[r] >= 0 for each row and, for each variable,
    c[i] = max(0, D - load[i]), where load[i] is the sum of p[r] over
    the rows r of i and D = DUAL_SCALE.  For every feasible x,
    D * sum(x) <= L(p) = sum of p[r] * bounds[r] plus sum of
    upper[i] * c[i]: x[i] * (D - load[i]) <= upper[i] * c[i], and row r
    adds at most p[r] * bounds[r].  So every p >= 0 bounds the optimum,
    and the bound is evaluated exactly, in integers.  Bounds must be
    non-negative, and each row lists distinct variables.

    p minimises L by exact coordinate descent, in units of 1/D.  With
    the other multipliers fixed, L is convex and piecewise linear in
    p[r]: each variable i of the row adds a breakpoint at
    D - (load[i] - p[r]) of weight upper[i], and the slope of L just
    below a point is bounds[r] minus the weight of the breakpoints
    above it.  Listing each breakpoint upper[i] times in descending
    order and counting from 0, the minimisers of L over the integers
    form the interval from entry bounds[r] (where the weight first
    exceeds the row bound) up to entry bounds[r] - 1 (where it first
    reaches it; when the bound is 0 the interval has no upper end and
    the lower end is used).  p[r] becomes the midpoint of that
    interval, rounded down and clipped at 0; the lower end alone stalls
    far above the LP.  Every move goes to a minimiser, so L never rises
    and the last p is the best.  A row whose variables' upper bounds
    sum to at most its bound never binds and stays at 0.

    Sweeps visit the rows by how far their upper bounds overfill them,
    most first (a row set early can leave a more overfull one no gain),
    until one changes nothing, at most min(max(1, n // 3, n * n // 100),
    DUAL_SWEEPS) of them, where n counts the variables with a positive
    upper bound: n // 3 up to 34 of them, then n * n // 100, which
    reaches the cap at 80.  A sweep costs one pass over the rows, while
    the search the bound prunes grows exponentially with n, so larger
    models get more sweeps.  A variable with upper bound 0 adds no
    breakpoint, so `maximize` passes its whole model, with 0 for each
    variable in no binding row.  The sweeps made are added to
    `stats["lp_iterations"]`.
    """
    load = [0] * len(upper)
    p = [0] * len(rows)
    live = []
    for r, (row, bound) in enumerate(zip(rows, bounds)):
        weighted = [i for i in row for _ in range(upper[i])]
        if len(weighted) > bound:
            live.append((r, row, weighted, bound))
    live.sort(key=lambda entry: entry[3] - len(entry[2]))
    n = len(upper) - upper.count(0)
    sweeps, cap = 0, min(max(1, n // 3, n * n // 100), DUAL_SWEEPS)
    changed = bool(live)
    loaded = load.__getitem__
    while changed and sweeps < cap:
        sweeps += 1
        changed = False
        for r, row, weighted, bound in live:
            old = p[r]
            # the breakpoints are D + old - load[i], descending as the
            # loads ascend; lo and hi are the minimisers' ends less D
            loads = sorted(map(loaded, weighted))
            lo = old - loads[bound]
            hi = old - loads[bound - 1] if bound else lo
            new = DUAL_SCALE + (lo + hi) // 2
            if new < 0:
                new = 0
            if new != old:
                p[r] = new
                for i in row:
                    load[i] += new - old
                changed = True
    if stats is not None:
        stats["lp_iterations"] = stats.get("lp_iterations", 0) + sweeps
    return p, [DUAL_SCALE - x if x < DUAL_SCALE else 0 for x in load]
