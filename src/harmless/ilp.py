"""Small exact solver for packing integer programs.

Every integer program the structural solvers emit has one shape:
maximise the sum of the variables, where variable i ranges over
`lower[i]..upper[i]` and each row c caps the sum of the variables it
lists at `bounds[c]`.  The solver is a depth-first search over
assignments on an explicit stack; it is built for the tiny models those
solvers emit (a handful of variables with single-digit bounds), not for
general-purpose optimisation.
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
