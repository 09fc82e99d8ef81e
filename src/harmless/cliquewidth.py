"""Dynamic programming over clique-width expressions.

A c-expression builds a labelled graph from four operations: a labelled
vertex, disjoint union, `eta i j` (add every edge between labels i and
j), and `rho i j` (relabel i to j).  The solver walks an irredundant
expression bottom-up keeping, per partial solution shape, the vector r
(selected vertices per label) and the vector s of surpluses, where the
surplus of label i is the minimum over all i-labelled vertices v of
t(v) minus the selected neighbours v has so far.  Every vertex tracks
its surplus whether selected or not: the harmless condition constrains
outsiders too.  A label with no vertices carries the sentinel INF.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import FormatError, Instance, ReconstructionError, SolveResult, is_harmless

INF = 1 << 30  # sentinel surplus, strictly above any finite value


class RedundantExpressionError(ValueError):
    """An eta re-adds an existing edge; the DP requires irredundancy."""

    def __init__(self, message: str, node: "Eta"):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class Leaf:
    name: str
    label: int


@dataclass(frozen=True)
class Union:
    left: "CExpr"
    right: "CExpr"


@dataclass(frozen=True)
class Eta:
    i: int
    j: int
    child: "CExpr"


@dataclass(frozen=True)
class Rho:
    i: int
    j: int
    child: "CExpr"


CExpr = Leaf | Union | Eta | Rho


@dataclass(frozen=True)
class CExpression:
    """A root expression together with its declared label budget c."""

    labels: int
    root: CExpr


# a `;` comment runs to the end of its line; group 1 is a token
_TOKEN = re.compile(r";[^\n]*|([()]|[^\s();]+)")


def _tokenize(text: str) -> list[str]:
    return [tok for tok in _TOKEN.findall(text) if tok]


def parse_cexpr(text: str) -> CExpression:
    """Parse `(cexpr <c> <E>)` where E is (v name label), (union E E),
    (eta i j E) or (rho i j E); `;` starts a comment."""
    tokens = _tokenize(text)
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise FormatError(f"expected {expected!r}, found {tok!r}")
        return tok

    def integer(what: str) -> int:
        tok = take()
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"{what}: expected an integer, found {tok!r}") from None

    def label(c: int, what: str) -> int:
        value = integer(what)
        if not (1 <= value <= c):
            raise FormatError(f"{what}: label {value} outside 1..{c}")
        return value

    names: set[str] = set()

    def expr(c: int) -> CExpr:
        take("(")
        op = take()
        if op == "v":
            name = take()
            if name in "()":
                raise FormatError("vertex name missing")
            if name in names:
                raise FormatError(f"duplicate vertex name {name!r}")
            names.add(name)
            node: CExpr = Leaf(name, label(c, "vertex label"))
        elif op == "union":
            left = expr(c)
            right = expr(c)
            node = Union(left, right)
        elif op in ("eta", "rho"):
            i = label(c, f"{op} first label")
            j = label(c, f"{op} second label")
            if i == j:
                raise FormatError(f"{op} {i} {j}: labels must differ")
            child = expr(c)
            node = Eta(i, j, child) if op == "eta" else Rho(i, j, child)
        else:
            raise FormatError(f"unknown operation {op!r}")
        take(")")
        return node

    take("(")
    take("cexpr")
    c = integer("label count")
    if c < 1:
        raise FormatError(f"label count {c} < 1")
    root = expr(c)
    take(")")
    if pos != len(tokens):
        raise FormatError(f"trailing tokens after expression: {tokens[pos]!r}")
    return CExpression(c, root)


def serialize_cexpr(expression: CExpression) -> str:
    def render(node: CExpr) -> str:
        if isinstance(node, Leaf):
            return f"(v {node.name} {node.label})"
        if isinstance(node, Union):
            return f"(union {render(node.left)} {render(node.right)})"
        if isinstance(node, Eta):
            return f"(eta {node.i} {node.j} {render(node.child)})"
        return f"(rho {node.i} {node.j} {render(node.child)})"

    return f"(cexpr {expression.labels} {render(expression.root)})"


def _build(
    expression: CExpression,
) -> tuple[dict[str, int], set[tuple[str, str]], Eta | None]:
    """Labels and edges of the built graph, plus the first eta in
    post-order that re-adds an edge its child already has.  Raises
    ValueError when two leaves share a vertex name."""
    offender: Eta | None = None

    def walk(node: CExpr) -> tuple[dict[str, int], set[tuple[str, str]]]:
        nonlocal offender
        if isinstance(node, Leaf):
            return {node.name: node.label}, set()
        if isinstance(node, Union):
            ll, le = walk(node.left)
            rl, re_ = walk(node.right)
            size = len(ll) + len(rl)
            ll.update(rl)
            if len(ll) < size:  # a name on both sides; look it up only now
                left = walk(node.left)[0]
                name = next(v for v in rl if v in left)
                raise ValueError(f"duplicate vertex name {name!r}")
            return ll, le | re_
        labels, edges = walk(node.child)
        if isinstance(node, Eta):
            side_i = [v for v in labels if labels[v] == node.i]
            side_j = [v for v in labels if labels[v] == node.j]
            for a in side_i:
                for b in side_j:
                    e = (a, b) if a < b else (b, a)
                    if e in edges and offender is None:
                        offender = node
                    edges.add(e)
            return labels, edges
        for v, lab in labels.items():
            if lab == node.i:
                labels[v] = node.j
        return labels, edges

    labels, edges = walk(expression.root)
    return labels, edges, offender


def eval_cexpr(expression: CExpression) -> tuple[dict[str, int], set[tuple[str, str]]]:
    """Labels and edges of the graph the expression builds."""
    labels, edges, _ = _build(expression)
    return labels, edges


def check_irredundant(
    expression: CExpression,
) -> tuple[bool, Eta | None]:
    """True iff every eta only adds edges absent from its child."""
    offender = _build(expression)[2]
    return offender is None, offender


def _dp_tables(
    expression: CExpression,
    thresholds: dict[str, int],
    surplus_scope: str,
    prune: bool,
    stats: dict,
):
    """Key tables and provenance for every expression node.

    A key is (r, s): r[i] counts selected vertices with label i+1, s[i]
    is the least surplus among label-(i+1) vertices (INF when none).
    With surplus_scope="all" (the sound rule) a leaf contributes
    s = t(v) whether or not it is selected; "selected" reproduces the
    unsound variant where outsiders never track their threshold, kept
    only so tests can demonstrate the divergence.

    Pruning drops keys with a finite surplus <= 0.  Only an eta can
    lower a surplus: a leaf's is t >= 1, and union and rho take minima
    of child surpluses that pruning already kept positive.  So the test
    runs in the eta branch alone, on the two coordinates it changed.
    """
    c = expression.labels
    tables: dict[int, dict] = {}

    def walk(node: CExpr) -> dict:
        table: dict = {}
        if isinstance(node, Leaf):
            t = thresholds[node.name]
            li = node.label - 1
            r = [0] * c
            s = [INF] * c
            s[li] = t
            out_s = tuple(s) if surplus_scope == "all" else tuple(
                INF if i == li else s[i] for i in range(c)
            )
            table.setdefault((tuple(r), out_s), False)
            r[li] = 1
            table.setdefault((tuple(r), tuple(s)), True)
        elif isinstance(node, Union):
            left = walk(node.left)
            right = sorted(walk(node.right))
            for k1 in sorted(left):
                r1, s1 = k1
                for k2 in right:
                    r2, s2 = k2
                    r = tuple(a + b for a, b in zip(r1, r2))
                    s = tuple(min(a, b) for a, b in zip(s1, s2))
                    assert all(x <= a and x <= b for x, a, b in zip(s, s1, s2))
                    table.setdefault((r, s), (k1, k2))
        elif isinstance(node, Eta):
            child = walk(node.child)
            ii, jj = node.i - 1, node.j - 1
            for key in sorted(child):
                r, s = key
                ns = list(s)
                if ns[ii] != INF:
                    ns[ii] -= r[jj]
                if ns[jj] != INF:
                    ns[jj] -= r[ii]
                # surplus never increases: justifies the <= 0 pruning
                assert ns[ii] <= s[ii] and ns[jj] <= s[jj]
                if prune and (ns[ii] <= 0 or ns[jj] <= 0):
                    continue
                table.setdefault((r, tuple(ns)), key)
        else:
            child = walk(node.child)
            ii, jj = node.i - 1, node.j - 1
            for key in sorted(child):
                r, s = key
                nr = list(r)
                nr[jj] += nr[ii]
                nr[ii] = 0
                ns = list(s)
                ns[jj] = min(ns[ii], ns[jj])
                ns[ii] = INF
                assert ns[jj] <= s[ii] and ns[jj] <= s[jj]
                table.setdefault((tuple(nr), tuple(ns)), key)
        tables[id(node)] = table
        stats["max_keys"] = max(stats.get("max_keys", 0), len(table))
        return table

    walk(expression.root)
    return tables


def _extract(node: CExpr, key, tables) -> list[str]:
    prov = tables[id(node)][key]
    if isinstance(node, Leaf):
        return [node.name] if prov else []
    if isinstance(node, Union):
        k1, k2 = prov
        return _extract(node.left, k1, tables) + _extract(node.right, k2, tables)
    return _extract(node.child, prov, tables)


def solve_cliquewidth(
    instance: Instance,
    expression: CExpression,
    prune: bool = True,
    surplus_scope: str = "all",
) -> SolveResult:
    """Maximum harmless set via the surplus DP over the expression.

    The expression must be irredundant and must build exactly the
    instance graph (vertex names are the instance's integer ids).
    """
    if surplus_scope not in ("all", "selected"):
        raise ValueError(f"unknown surplus scope {surplus_scope!r}")
    labels, edges, offender = _build(expression)
    graph = instance.graph
    try:
        ids = {name: int(name) for name in labels}
    except ValueError:
        raise ValueError("vertex names must be integer instance ids") from None
    if sorted(ids.values()) != list(graph.vertices()):
        raise ValueError(
            f"expression builds vertices {sorted(ids.values())}, "
            f"instance has 1..{graph.n}"
        )
    built = {tuple(sorted((ids[a], ids[b]))) for a, b in edges}
    if built != set(graph.edges):
        raise ValueError("expression does not build the instance graph")
    if offender is not None:
        raise RedundantExpressionError(
            f"eta {offender.i} {offender.j} re-adds an existing edge: "
            f"{serialize_cexpr(CExpression(expression.labels, offender))}",
            offender,
        )
    thresholds = {name: instance.threshold(ids[name]) for name in labels}
    stats: dict = {"labels": expression.labels, "max_keys": 0}
    tables = _dp_tables(expression, thresholds, surplus_scope, prune, stats)
    root_table = tables[id(expression.root)]
    best_key = None
    best_size = -1
    for key in sorted(root_table):
        r, s = key
        if any(x != INF and x < 1 for x in s):
            continue
        size = sum(r)
        if size > best_size:
            best_size = size
            best_key = key
    if best_key is None:
        raise ReconstructionError("DP lost the empty set at the root")
    witness = tuple(sorted(ids[name] for name in _extract(expression.root, best_key, tables)))
    if len(witness) != best_size or (
        surplus_scope == "all" and not is_harmless(instance, witness)
    ):
        raise ReconstructionError(
            f"cliquewidth witness {witness} fails verification for size {best_size}"
        )
    return SolveResult(best_size, witness, "cliquewidth", stats)
