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
Every walk over an expression runs on an explicit stack, so its depth
is limited by memory, not by Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, itemgetter, le

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


# a `;` comment runs to the end of its line
_COMMENT = re.compile(r";[^\n]*")


def _tokenize(text: str) -> list[str]:
    """Parentheses, and runs of anything else between whitespace;
    `str.split` splits on exactly the characters regex `\\s` matches."""
    if ";" in text:
        text = _COMMENT.sub("", text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _postorder(root: CExpr) -> list[CExpr]:
    """Every node of the expression, children before parents and left
    before right: the reverse of an explicit-stack walk that visits a
    node, then its right side, then its left.  Depth costs no recursion."""
    order = []
    todo = [root]
    while todo:
        node = todo.pop()
        order.append(node)
        if isinstance(node, Union):
            todo += [node.left, node.right]
        elif not isinstance(node, Leaf):
            todo.append(node.child)
    order.reverse()
    return order


def parse_cexpr(text: str) -> CExpression:
    """Parse `(cexpr <c> <E>)` where E is (v name label), (union E E),
    (eta i j E) or (rho i j E); `;` starts a comment.  Tokens are read
    left to right against a stack of the operations still open, so the
    first bad token is reported and depth costs no recursion."""
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

    take("(")
    take("cexpr")
    c = integer("label count")
    if c < 1:
        raise FormatError(f"label count {c} < 1")
    names: set[str] = set()
    # operations whose closing parenthesis is still ahead, innermost
    # last: (op, i, j, the children parsed so far)
    open_ops: list[tuple[str, int, int, list[CExpr]]] = []
    while True:
        take("(")
        op = take()
        if op == "union":
            open_ops.append((op, 0, 0, []))
            continue
        if op in ("eta", "rho"):
            i = label(c, f"{op} first label")
            j = label(c, f"{op} second label")
            if i == j:
                raise FormatError(f"{op} {i} {j}: labels must differ")
            open_ops.append((op, i, j, []))
            continue
        if op != "v":
            raise FormatError(f"unknown operation {op!r}")
        name = take()
        if name in "()":
            raise FormatError("vertex name missing")
        if name in names:
            raise FormatError(f"duplicate vertex name {name!r}")
        names.add(name)
        node: CExpr = Leaf(name, label(c, "vertex label"))
        take(")")
        # close every operation the finished node completes
        while open_ops:
            op, i, j, children = open_ops[-1]
            if op == "union" and not children:
                children.append(node)
                break
            open_ops.pop()
            if op == "union":
                node = Union(children[0], node)
            else:
                node = Eta(i, j, node) if op == "eta" else Rho(i, j, node)
            take(")")
        else:
            break
    take(")")
    if pos != len(tokens):
        raise FormatError(f"trailing tokens after expression: {tokens[pos]!r}")
    return CExpression(c, node)


def serialize_cexpr(expression: CExpression) -> str:
    out = [f"(cexpr {expression.labels} "]
    stack: list[CExpr | str] = [")", expression.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(f"(v {item.name} {item.label})")
        elif isinstance(item, Union):
            out.append("(union ")
            stack += [")", item.right, " ", item.left]
        else:
            out.append(f"({'eta' if isinstance(item, Eta) else 'rho'} {item.i} {item.j} ")
            stack += [")", item.child]
    return "".join(out)


def _pour(buckets: dict[int, list[str]], label: int, names: list[str]) -> None:
    """Add names to the bucket of label, extending the longer list."""
    mine = buckets.setdefault(label, [])
    if len(mine) < len(names):
        buckets[label], names = names, mine
    buckets[label].extend(names)


def _build(
    expression: CExpression,
) -> tuple[dict[str, int], set[tuple[str, str]], Eta | None, list[CExpr]]:
    """Labels and edges of the built graph, the first eta in post-order
    that re-adds an edge its child already has, and the post-order the
    walk took, which the solver's DP and provenance walk reuse.  Raises
    ValueError when c < 1, and at the first node in post-order that uses
    a label outside 1..c, relabels or joins a label to itself, or is a
    leaf whose name an earlier leaf in post-order already has (naming
    it), so a hand-built expression is held to the rules the parser
    enforces.  Post-order lists the leaves in text order, so a repeated
    name is the one `parse_cexpr` names on the serialized expression.

    Every finished subtree keeps one bucket of names per label.  A union
    pours the right side's buckets into the left's, extending the longer
    list, an eta reads two buckets and a rho pours one into another, so
    the walk costs O(n log n) plus the edges.  One edge set serves the
    whole walk: when names are distinct, an edge an eta finds already
    present was added by an eta below it.
    """
    c = expression.labels
    if c < 1:
        raise ValueError(f"label count {c} < 1")
    labels: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    offender: Eta | None = None
    done: list[dict[int, list[str]]] = []
    order = _postorder(expression.root)
    for node in order:
        if isinstance(node, Leaf):
            if node.name in labels:
                raise ValueError(f"duplicate vertex name {node.name!r}")
            if not 1 <= node.label <= c:
                raise ValueError(f"vertex label: label {node.label} outside 1..{c}")
            labels[node.name] = node.label
            done.append({node.label: [node.name]})
        elif isinstance(node, Union):
            right = done.pop()
            for lab, names in right.items():
                _pour(done[-1], lab, names)
        elif node.i == node.j or not (1 <= node.i <= c and 1 <= node.j <= c):
            op = "eta" if isinstance(node, Eta) else "rho"
            raise ValueError(f"{op} {node.i} {node.j}: labels must differ and lie in 1..{c}")
        elif isinstance(node, Eta):
            buckets = done[-1]
            side_j = buckets.get(node.j, ())
            for a in buckets.get(node.i, ()):
                for b in side_j:
                    e = (a, b) if a < b else (b, a)
                    if e in edges and offender is None:
                        offender = node
                    edges.add(e)
        else:
            buckets = done[-1]
            _pour(buckets, node.j, buckets.pop(node.i, []))
    for lab, names in done[0].items():
        for v in names:
            labels[v] = lab
    return labels, edges, offender, order


def eval_cexpr(expression: CExpression) -> tuple[dict[str, int], set[tuple[str, str]]]:
    """Labels and edges of the graph the expression builds."""
    labels, edges, _, _ = _build(expression)
    return labels, edges


def check_irredundant(
    expression: CExpression,
) -> tuple[bool, Eta | None]:
    """True iff every eta only adds edges absent from its child."""
    offender = _build(expression)[2]
    return offender is None, offender


def _dp_tables(
    c: int,
    order: list[CExpr],
    thresholds: dict[str, int],
    stats: dict,
) -> list[dict]:
    """Key tables and provenance for every node of `order`, a post-order
    of an expression with c labels, listed in that order.

    A key is (r, s): r[i] counts selected vertices with label i+1, s[i]
    is the least surplus among label-(i+1) vertices (INF when none).
    A leaf contributes s = t(v) whether or not it is selected.

    Every node reads its children's keys in sorted order and keeps, as a
    key's provenance, its first producer in that order.  A leaf builds
    its table in sorted order, and so does an eta: it reads its child in
    sorted order and lowers s by amounts that depend on r alone, leaving
    INF at INF, so it keeps distinct keys distinct and in order.
    Dominance only drops keys.  So only a union's or a rho's table is
    sorted before its parent reads it, and no provenance moves.

    Pruning drops keys with a finite surplus <= 0.  Only an eta can
    lower a surplus: a leaf's is t >= 1, and union and rho take minima
    of child surpluses that pruning already kept positive.  So the test
    runs in the eta branch alone, on the two coordinates it changed.

    Dominance drops keys of dead labels.  A label is live at a node when
    an eta above still reads the vertices holding it there.  At the root
    no label is live; below `eta i j` labels i and j become live; below
    `rho i j` label i is live iff j is live above; a union passes its
    live set to both sides, and every other label keeps its state.  No
    later step reads a dead label's count in r; it only adds into the
    total.  So among keys with equal live counts and equal s, each node
    keeps those with the largest dead total (equally, the largest total
    of r), every one of them on a tie, and skips the step when no label
    is dead.  This keeps every answer and witness:
    - A dominated key meets the same partners and operations as the key
      dominating it, and each key it produces is dominated in turn by
      the matching product, with the same pruning fate.  At the root
      every label is dead, so a dominated root key is smaller than a
      key with the same s: no maximum root key has a dominated key on
      its provenance chain.
    - So every producer of a kept key was kept, its first producing
      pair in sorted order is the one it had without the rule, and the
      root still picks the same first maximum key.
    """
    # bit k of live[index] is set when label k+1 is live at order[index];
    # walking the post-order backwards meets each node before its
    # children, and a union's right side before its left
    live = [0] * len(order)
    masks = [0]
    for index in range(len(order) - 1, -1, -1):
        node = order[index]
        mask = live[index] = masks.pop()
        if isinstance(node, Union):
            masks += (mask, mask)
        elif isinstance(node, Eta):
            masks.append(mask | 1 << node.i - 1 | 1 << node.j - 1)
        elif isinstance(node, Rho):
            below = mask & ~(1 << node.i - 1)
            masks.append(below | (mask >> node.j - 1 & 1) << node.i - 1)
    every = (1 << c) - 1
    live_counts: dict = {}  # live mask -> getter of the live counts of r
    tables: list[dict] = []
    done: list = []  # keys of each finished subtree in sorted order, innermost last
    for node, mask in zip(order, live):
        table: dict = {}
        if isinstance(node, Leaf):
            t = thresholds[node.name]
            li = node.label - 1
            r = [0] * c
            s = [INF] * c
            s[li] = t
            table[tuple(r), tuple(s)] = False
            r[li] = 1
            table[tuple(r), tuple(s)] = True
        elif isinstance(node, Union):
            right = done.pop()
            for k1 in done.pop():
                r1, s1 = k1
                for k2 in right:
                    r2, s2 = k2
                    s = tuple(map(min, s1, s2))
                    assert all(map(le, s, s1)) and all(map(le, s, s2))
                    table.setdefault((tuple(map(add, r1, r2)), s), (k1, k2))
        elif isinstance(node, Eta):
            ii, jj = node.i - 1, node.j - 1
            for key in done.pop():
                r, s = key
                ns = list(s)
                if ns[ii] != INF:
                    ns[ii] -= r[jj]
                if ns[jj] != INF:
                    ns[jj] -= r[ii]
                # surplus never increases: justifies the <= 0 pruning
                assert ns[ii] <= s[ii] and ns[jj] <= s[jj]
                if ns[ii] <= 0 or ns[jj] <= 0:
                    continue
                table.setdefault((r, tuple(ns)), key)
        else:
            ii, jj = node.i - 1, node.j - 1
            for key in done.pop():
                r, s = key
                nr = list(r)
                nr[jj] += nr[ii]
                nr[ii] = 0
                ns = list(s)
                ns[jj] = min(ns[ii], ns[jj])
                ns[ii] = INF
                assert ns[jj] <= s[ii] and ns[jj] <= s[jj]
                table.setdefault((tuple(nr), tuple(ns)), key)
        if mask != every:
            counts = live_counts.get(mask)
            if counts is None:
                kept = [k for k in range(c) if mask >> k & 1]
                counts = live_counts[mask] = itemgetter(*kept) if kept else _no_counts
            top: dict = {}
            for r, s in table:
                group = (counts(r), s)
                total = sum(r)
                if top.setdefault(group, total) < total:
                    top[group] = total
            if len(top) < len(table):
                table = {
                    key: prov
                    for key, prov in table.items()
                    if top[counts(key[0]), key[1]] == sum(key[0])
                }
        tables.append(table)
        done.append(table if isinstance(node, (Leaf, Eta)) else sorted(table))
    stats["max_keys"] = max(stats.get("max_keys", 0), max(map(len, tables)))
    return tables


def _no_counts(r: tuple[int, ...]) -> tuple[()]:
    """The live counts of r where no label is live."""
    return ()


def _extract(order: list[CExpr], key, tables: list[dict]) -> list[str]:
    """Names of the selected leaves behind key at the root, following
    the provenance down.  Walking the post-order backwards meets each
    node before its children and a union's right side before its left,
    so the keys still to look up form a stack."""
    chosen: list[str] = []
    keys = [key]
    for index in range(len(order) - 1, -1, -1):
        prov = tables[index][keys.pop()]
        node = order[index]
        if isinstance(node, Leaf):
            if prov:
                chosen.append(node.name)
        elif isinstance(node, Union):
            keys += prov  # the right side's key on top
        else:
            keys.append(prov)
    return chosen


def solve_cliquewidth(instance: Instance, expression: CExpression) -> SolveResult:
    """Maximum harmless set via the surplus DP over the expression.

    The expression must be irredundant and must build exactly the
    instance graph (vertex names are the instance's integer ids).
    """
    labels, edges, offender, order = _build(expression)
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
    tables = _dp_tables(expression.labels, order, thresholds, stats)
    root_table = tables[-1]
    if not root_table:
        raise ReconstructionError("DP lost the empty set at the root")
    # pruning keeps every finite surplus >= 1 at every node, so each root
    # key is a harmless shape; take the first largest in sorted order
    best_key = max(sorted(root_table), key=lambda key: sum(key[0]))
    best_size = sum(best_key[0])
    witness = tuple(sorted(ids[name] for name in _extract(order, best_key, tables)))
    if len(witness) != best_size or not is_harmless(instance, witness):
        raise ReconstructionError(
            f"cliquewidth witness {witness} fails verification for size {best_size}"
        )
    return SolveResult(best_size, witness, "cliquewidth", stats)
