"""Reference forms of the clique-width DP, for tests only.

`reference_dp_tables` keeps every key the operations produce, walked
recursively, with two switches the solver does not have:

* `surplus_scope="selected"` is the literal leaf rule, where a vertex
  left out of the set never tracks its threshold.  It is unsound: it
  misses that a selected vertex can saturate an unselected neighbour.
* `prune=False` keeps keys whose surplus has dropped to 0 or below.

`reference_solve` runs those tables through the solver's own build and
provenance walk, and picks at the root the first largest key in sorted
order whose finite surpluses are all at least 1.
"""

import harmless.cliquewidth as cliquewidth
from harmless import Eta, Leaf, Union
from harmless.cliquewidth import INF


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
    labels = cliquewidth._build(expression)[0]
    thresholds = {name: instance.threshold(int(name)) for name in labels}
    tables = reference_dp_tables(expression, thresholds, surplus_scope, prune, {})
    best_key, best_size = None, -1
    for key in sorted(tables[id(expression.root)]):
        r, s = key
        if any(x != INF and x < 1 for x in s):
            continue
        if sum(r) > best_size:
            best_key, best_size = key, sum(r)
    chosen = cliquewidth._extract(expression.root, best_key, tables)
    return best_size, tuple(sorted(int(name) for name in chosen))
