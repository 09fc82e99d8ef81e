"""Reference forms of the clique-width DP, for tests only.

`reference_dominance_tables` is the solver's table pass as it stood
before its tables were kept in a list by post-order position: a walk of
its own, tables keyed by `id(node)`, a sort of every child's table and
a dominance step that rebuilds its groups at every node.  The solver's
tables must equal its tables, node by node, keys and provenance alike.

`reference_dp_tables` keeps every key the operations produce, walked
recursively, with two switches the solver does not have:

* `surplus_scope="selected"` is the literal leaf rule, where a vertex
  left out of the set never tracks its threshold.  It is unsound: it
  misses that a selected vertex can saturate an unselected neighbour.
* `prune=False` keeps keys whose surplus has dropped to 0 or below.

`reference_solve` runs the tables of `reference_dp_tables` through the
solver's own build and provenance walk, and picks at the root the first
largest key in sorted order whose finite surpluses are all at least 1.
"""

import harmless.cliquewidth as cliquewidth
from harmless import Eta, Leaf, Rho, Union
from harmless.cliquewidth import INF, _postorder


def reference_dominance_tables(expression, thresholds, stats):
    """The solver's pruned and dominance-reduced tables, keyed by
    `id(node)`."""
    c = expression.labels
    order = _postorder(expression.root)
    # bit k of live[id(node)] is set when label k+1 is live there
    live = {id(expression.root): 0}
    for node in reversed(order):  # parents before children
        mask = live[id(node)]
        if isinstance(node, Union):
            live[id(node.left)] = live[id(node.right)] = mask
        elif isinstance(node, Eta):
            live[id(node.child)] = mask | 1 << node.i - 1 | 1 << node.j - 1
        elif isinstance(node, Rho):
            below = mask & ~(1 << node.i - 1)
            live[id(node.child)] = below | (mask >> node.j - 1 & 1) << node.i - 1
    every = (1 << c) - 1
    tables: dict[int, dict] = {}
    for node in order:
        table: dict = {}
        if isinstance(node, Leaf):
            t = thresholds[node.name]
            li = node.label - 1
            r = [0] * c
            s = [INF] * c
            s[li] = t
            table.setdefault((tuple(r), tuple(s)), False)
            r[li] = 1
            table.setdefault((tuple(r), tuple(s)), True)
        elif isinstance(node, Union):
            left = tables[id(node.left)]
            right = sorted(tables[id(node.right)])
            for k1 in sorted(left):
                r1, s1 = k1
                for k2 in right:
                    r2, s2 = k2
                    r = tuple(a + b for a, b in zip(r1, r2))
                    s = tuple(min(a, b) for a, b in zip(s1, s2))
                    assert all(x <= a and x <= b for x, a, b in zip(s, s1, s2))
                    table.setdefault((r, s), (k1, k2))
        elif isinstance(node, Eta):
            ii, jj = node.i - 1, node.j - 1
            for key in sorted(tables[id(node.child)]):
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
            for key in sorted(tables[id(node.child)]):
                r, s = key
                nr = list(r)
                nr[jj] += nr[ii]
                nr[ii] = 0
                ns = list(s)
                ns[jj] = min(ns[ii], ns[jj])
                ns[ii] = INF
                assert ns[jj] <= s[ii] and ns[jj] <= s[jj]
                table.setdefault((tuple(nr), tuple(ns)), key)
        mask = live[id(node)]
        if mask != every:
            kept = [k for k in range(c) if mask >> k & 1]
            dead = [k for k in range(c) if not mask >> k & 1]
            marks = []
            top: dict = {}
            for key in table:
                r, s = key
                group = (tuple([r[k] for k in kept]), s)
                total = sum([r[k] for k in dead])
                marks.append((key, group, total))
                if top.get(group, -1) < total:
                    top[group] = total
            table = {key: table[key] for key, group, total in marks if total == top[group]}
        tables[id(node)] = table
        stats["max_keys"] = max(stats.get("max_keys", 0), len(table))
    return tables


def reference_dp_tables(expression, thresholds, surplus_scope, prune, stats):
    """Every key of every node, walked recursively."""
    c = expression.labels
    tables = {}

    def walk(node):
        table = {}
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
                table.setdefault((tuple(nr), tuple(ns)), key)
        tables[id(node)] = table
        stats["max_keys"] = max(stats.get("max_keys", 0), len(table))
        return table

    walk(expression.root)
    return tables


def reference_solve(instance, expression, surplus_scope, prune):
    """(size, witness) of the reference tables; the witness is not
    checked, since the literal leaf rule returns sets that are not
    harmless."""
    labels, _, _, order = cliquewidth._build(expression)
    thresholds = {name: instance.threshold(int(name)) for name in labels}
    tables = reference_dp_tables(expression, thresholds, surplus_scope, prune, {})
    best_key, best_size = None, -1
    for key in sorted(tables[id(expression.root)]):
        r, s = key
        if any(x != INF and x < 1 for x in s):
            continue
        if sum(r) > best_size:
            best_key, best_size = key, sum(r)
    chosen = cliquewidth._extract(order, best_key, [tables[id(node)] for node in order])
    return best_size, tuple(sorted(int(name) for name in chosen))
