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
    OracleLimitError,
    SolveResult,
    content_lines,
)
from .ilp import maximize

DEFAULT_NODE_BUDGET = 2_000_000
EDGE_LIMIT = 20
VECTOR_LIMIT = 20


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

    S is harmless exactly when every vertex v has at most t(v) - 1
    neighbours in S: the packing program of `ilp.maximize` with a 0/1
    variable per vertex v, numbered v (variable 0 has upper bound 0), and
    a row per vertex v on N(v) with bound t(v) - 1, solved by that
    engine.  Its lexicographically greatest optimal vector is the least
    witness: for sets A and B of equal size A < B iff min(A xor B) lies
    in A, where A's vector has the 1.  `node_budget` caps the engine's
    search nodes, reported as `stats["nodes"]`; the dual's sweeps are
    counted apart, as `stats["lp_iterations"]`.
    """
    n = instance.graph.n
    bounds = [0, *(t - 1 for t in instance.thresholds)]
    stats = {"budget": node_budget}
    vector = maximize([(), *instance.graph.neighbors], bounds, [0] * (n + 1), [0] + [1] * n, stats)
    stats["nodes"] = stats.pop("ilp_nodes")
    witness = tuple(v for v, x in enumerate(vector) if x)
    return SolveResult(len(witness), witness, "brute", stats)


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
