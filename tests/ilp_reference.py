"""Reference form of the integer program solver, for tests only.

This is the general solver the package shipped before every model it
solved took the packing form of `harmless.ilp.maximize`: integer
coefficients of any sign, an arbitrary objective, named variables with
validated bounds, and a depth-first search that recurses once per
variable.  Among equal optima it reports the lexicographically greatest
assignment, as the package's engine does, so on a packing model (0/1
rows, a unit objective, lower bounds of at least 0) both must report
the same assignment; their node counts belong to different searches.
The side-row references in `test_guess_encoding.py` also solve through
it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IlpVariable:
    name: str
    lower: int
    upper: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"variable {self.name}: bounds [{self.lower},{self.upper}] empty")


@dataclass(frozen=True)
class IlpConstraint:
    """sum(coeffs[i] * x_i) <= bound, one coefficient per variable."""

    coeffs: tuple[int, ...]
    bound: int


@dataclass(frozen=True)
class IlpSolution:
    assignment: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class IlpModel:
    variables: tuple[IlpVariable, ...]
    constraints: tuple[IlpConstraint, ...]
    objective: tuple[int, ...]

    def __post_init__(self):
        nvars = len(self.variables)
        if len(self.objective) != nvars:
            raise ValueError(
                f"objective has {len(self.objective)} coefficients for {nvars} variables"
            )
        for idx, con in enumerate(self.constraints):
            if len(con.coeffs) != nvars:
                raise ValueError(
                    f"constraint {idx} has {len(con.coeffs)} coefficients "
                    f"for {nvars} variables"
                )


def maximize(model: IlpModel, stats: dict | None = None) -> IlpSolution | None:
    """Best assignment, or None when the model is infeasible.

    Variables are assigned in declaration order, values from the upper
    bound downward, so among equal-objective optima the search reports
    the lexicographically greatest assignment.  Two suffix bounds cut off
    a branch: a constraint whose assigned activity plus the minimum
    activity of the unassigned variables already exceeds its bound, and
    an objective that cannot beat the incumbent even with every
    unassigned variable at its most profitable bound.
    """
    nvars = len(model.variables)
    lows = [v.lower for v in model.variables]
    highs = [v.upper for v in model.variables]
    obj = model.objective
    constraints = model.constraints

    # suffix bounds over variables i..end: min_act[c][i] is the least
    # activity of constraint c, obj_max[i] the largest objective
    min_act = [[0] * (nvars + 1) for _ in constraints]
    obj_max = [0] * (nvars + 1)
    for i in range(nvars - 1, -1, -1):
        lo, hi = lows[i], highs[i]
        obj_max[i] = obj_max[i + 1] + max(obj[i] * lo, obj[i] * hi)
        for row, con in zip(min_act, constraints):
            a = con.coeffs[i]
            row[i] = row[i + 1] + min(a * lo, a * hi)

    best: IlpSolution | None = None
    nodes = 0
    assigned = [0] * nvars
    acts = [0] * len(constraints)  # activity of the assigned prefix

    def dfs(pos: int, value: int):
        nonlocal best, nodes
        nodes += 1
        if best is not None and value + obj_max[pos] <= best.value:
            return
        for ci, con in enumerate(constraints):
            if acts[ci] + min_act[ci][pos] > con.bound:
                return
        if pos == nvars:
            best = IlpSolution(tuple(assigned), value)
            return
        for x in range(highs[pos], lows[pos] - 1, -1):
            assigned[pos] = x
            for ci, con in enumerate(constraints):
                acts[ci] += con.coeffs[pos] * x
            dfs(pos + 1, value + obj[pos] * x)
            for ci, con in enumerate(constraints):
                acts[ci] -= con.coeffs[pos] * x
        assigned[pos] = 0

    dfs(0, 0)
    if stats is not None:
        stats["ilp_nodes"] = stats.get("ilp_nodes", 0) + nodes
    return best


def packing_model(rows, bounds, lower, upper) -> IlpModel:
    """The general model of a packing program: row c gives each variable
    the coefficient of how often it lists it, and the objective is the
    sum of the variables."""
    nvars = len(lower)
    return IlpModel(
        tuple(IlpVariable(f"x{i}", lo, hi) for i, (lo, hi) in enumerate(zip(lower, upper))),
        tuple(
            IlpConstraint(tuple(row.count(i) for i in range(nvars)), bound)
            for row, bound in zip(rows, bounds)
        ),
        (1,) * nvars,
    )
