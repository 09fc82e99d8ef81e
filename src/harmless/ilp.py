"""Small exact solver for packing integer programs.

Every integer program the structural solvers emit has one shape:
maximise the sum of the variables, where variable i ranges over
`lower[i]..upper[i]` and each row c caps the sum of the variables it
lists at `bounds[c]`.  The solver is a depth-first search over
assignments on an explicit stack; it is built for the tiny models those
solvers emit (a handful of variables with single-digit bounds), not for
general-purpose optimisation.  `packing_dual` gives integer Lagrangian
multipliers for the same form, whose bound the oracle prunes with.
"""

from __future__ import annotations


def maximize(
    rows, bounds, lower, upper, stats: dict | None = None
) -> tuple[int, ...] | None:
    """Lexicographically greatest optimal assignment, or None when the
    model is infeasible; its value is its sum.

    `rows[c]` lists the variable indices of row c, whose sum may not
    exceed `bounds[c]`, and 0 <= lower[i] <= upper[i].  Variables are
    assigned in index order, values from the upper bound downward.  Each
    row keeps a slack: its bound minus its assigned activity minus the
    lower bounds of its unassigned variables.  A branch dies when a row
    of the variable just assigned runs out of slack (the root checks
    every row), or when the sum cannot beat the incumbent even with every
    unassigned variable at its upper bound.  Stack entries are
    (position, value, sum of the assigned prefix); an int is the undo
    marker of that position's assignment.
    """
    nvars = len(lower)
    if any(not 0 <= lo <= hi for lo, hi in zip(lower, upper)):
        raise ValueError("every variable needs 0 <= lower <= upper")
    var_rows: list[list[int]] = [[] for _ in range(nvars)]
    slack = list(bounds)
    for c, row in enumerate(rows):
        for i in row:
            var_rows[i].append(c)
            slack[c] -= lower[i]
    reach = [0] * (nvars + 1)  # reach[i]: the most variables i.. can add
    for i in range(nvars - 1, -1, -1):
        reach[i] = reach[i + 1] + upper[i]

    best, best_value = None, -1
    nodes = 1  # the root
    assigned = [0] * nvars
    stack: list = []
    if all(s >= 0 for s in slack):
        if nvars:
            stack.append((0, upper[0], 0))
        else:
            best = ()
    while stack:
        entry = stack.pop()
        if type(entry) is int:  # undo marker
            gain = assigned[entry] - lower[entry]
            for c in var_rows[entry]:
                slack[c] += gain
            continue
        pos, x, value = entry
        nodes += 1
        value += x
        if value + reach[pos + 1] <= best_value:
            nodes += x - lower[pos]  # its lower values fail the same cut
            continue
        if x > lower[pos]:
            stack.append((pos, x - 1, value - x))
        assigned[pos] = x
        gain = x - lower[pos]
        alive = True
        for c in var_rows[pos]:
            slack[c] -= gain
            alive = alive and slack[c] >= 0
        stack.append(pos)
        if not alive:
            continue
        if pos + 1 == nvars:
            best, best_value = tuple(assigned), value
        else:
            stack.append((pos + 1, upper[pos + 1], value))
    if stats is not None:
        stats["ilp_nodes"] = stats.get("ilp_nodes", 0) + nodes
    return best


DUAL_SCALE = 1024  # the common denominator D of packing_dual's multipliers
DUAL_SWEEPS = 64  # the most sweeps packing_dual makes over the rows


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

    Sweeps visit the rows in index order until one changes nothing, at
    most min(max(1, n // 3, n * n // 100), DUAL_SWEEPS) of them for n
    variables: n // 3 up to 34 variables, then n * n // 100, which
    reaches the cap at 80.  A sweep costs one pass over the rows, while
    the search the bound prunes grows exponentially with n, so larger
    models get more sweeps.  The sweeps made are added to
    `stats["lp_iterations"]`.
    """
    load = [0] * len(upper)
    p = [0] * len(rows)
    live = []
    unit = all(x == 1 for x in upper)  # then each row is its own breakpoint list
    for r, (row, bound) in enumerate(zip(rows, bounds)):
        weighted = row if unit else [i for i in row for _ in range(upper[i])]
        if len(weighted) > bound:
            live.append((r, row, weighted, bound))
    n = len(upper)
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
