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

from operator import mul


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
DUAL_STEPS = 64  # the most subgradient steps packing_dual takes


def packing_dual(rows, bounds, upper, stats: dict | None = None):
    """Integer Lagrangian multipliers for the packing form of `maximize`.

    Returns `(p, c)`: p[r] >= 0 for each row and, for each variable,
    c[i] = max(0, D - sum of p[r] over the rows r of i), D = DUAL_SCALE.
    For every feasible x, D * sum(x) <= sum of p[r] * bounds[r] plus
    sum of upper[i] * c[i]: x[i] * (D - sum of its p) <= upper[i] * c[i],
    and row r adds at most p[r] * bounds[r].  So every p >= 0 bounds the
    optimum, and the bound is evaluated exactly, in integers.

    p comes from projected subgradient descent on the Lagrangian dual
    of the LP relaxation, in units of 1/D: from p = 0, each step moves p
    against the normalised subgradient (row bound minus row load when
    every variable of positive reduced cost sits at its upper bound) by
    D, then 0.95 D, 0.9025 D, ..., truncates the move to an integer and
    clips p at 0.  The iterate with the least bound is returned.  There
    are len(upper) // 2 steps, at most DUAL_STEPS, so the work stays
    linear in the size of the model; fewer when a subgradient is 0.
    The steps taken are added to `stats["lp_iterations"]`.
    """
    var_rows: list[list[int]] = [[] for _ in upper]
    for r, row in enumerate(rows):
        for i in row:
            var_rows[i].append(r)
    p = [0] * len(rows)
    best = None
    step = float(DUAL_SCALE)
    steps = min(len(upper) // 2, DUAL_STEPS)
    for it in range(steps + 1):
        price = p.__getitem__
        c = [
            DUAL_SCALE - s if (s := sum(map(price, mine))) < DUAL_SCALE else 0
            for mine in var_rows
        ]
        value = sum(map(mul, p, bounds)) + sum(map(mul, upper, c))
        if best is None or value < best[0]:
            best = value, p, c
        if it == steps:
            break
        load = [hi if x else 0 for hi, x in zip(upper, c)].__getitem__
        # a row at p = 0 with slack to spare stays at 0
        grad = [
            g if (g := b - sum(map(load, row))) < 0 or x else 0
            for row, b, x in zip(rows, bounds, p)
        ]
        norm = sum(map(mul, grad, grad)) ** 0.5
        if not norm:
            break
        p = [x - d if (d := int(step * g / norm)) < x else 0 for x, g in zip(p, grad)]
        step *= 0.95
    if stats is not None:
        stats["lp_iterations"] = stats.get("lp_iterations", 0) + it
    return best[1], best[2]
