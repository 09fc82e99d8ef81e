"""Reference solver and the table of optima it writes.

    python3 bench/reference.py      # rebuild bench/reference_table.json

The benchmark relabels a fixed pool of instances with its seed; the
optimum does not change under relabelling, so one table serves every
seed.  The solver shares no code with the package.  It merges twins into
classes and searches over how many members of each class to take: the
members of an independent class all see the same selected neighbours,
so any of them will do, and in a clique class the chosen members see one
fewer, so taking those of smallest threshold is never worse.  A class
can take at most t(w) - 1 - load(w) members for every neighbour w, and
all the classes around one w share that room, which bounds each branch.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import zlib

import checks

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_table.json")


def optimum(instance) -> int:
    """Maximum harmless set size.  Classes are branched on by descending
    largest id.  Any order is exact; this one is fast on both the pools
    and the files `generate mmo` writes, whose gadget filler has the
    highest ids: on a 187-vertex one it takes 0.06 s, where branching on
    the most-connected class first does not finish in 10 s."""
    n, _, thresholds = instance
    nbrs = checks.adjacency(instance)
    classes = [
        (sorted(members, key=lambda v: (thresholds[v - 1], v)), clique)
        for members, clique in checks.twin_classes(instance, nbrs)
    ]
    # outside neighbours of a class are shared by all its members
    outside = [sorted(nbrs[members[0]] - set(members)) for members, _ in classes]
    order = sorted(range(len(classes)), key=lambda i: -max(classes[i][0]))
    load = [0] * (n + 1)
    best = 0

    def cap(i: int) -> int:
        c = len(classes[i][0])
        for w in outside[i]:
            c = min(c, thresholds[w - 1] - 1 - load[w])
        return max(c, 0)

    def bound(depth: int) -> int:
        """Each open class is charged to its neighbour with least room;
        the classes charged to w take at most that room together."""
        free = 0
        charged: dict[int, int] = {}
        for d in range(depth, len(order)):
            i = order[d]
            if not outside[i]:
                free += len(classes[i][0])
                continue
            w = min(outside[i], key=lambda w: thresholds[w - 1] - load[w])
            charged[w] = charged.get(w, 0) + cap(i)
        return free + sum(
            min(total, max(thresholds[w - 1] - 1 - load[w], 0)) for w, total in charged.items()
        )

    def apply(i: int, x: int, sign: int):
        members, clique = classes[i]
        for w in outside[i]:
            load[w] += sign * x
        if clique:
            for pos, v in enumerate(members):
                load[v] += sign * (x - 1 if pos < x else x)

    def fits(i: int) -> bool:
        return all(load[w] < thresholds[w - 1] for w in outside[i]) and all(
            load[v] < thresholds[v - 1] for v in classes[i][0]
        )

    def dfs(depth: int, size: int):
        nonlocal best
        if depth == len(order):
            best = max(best, size)
            return
        if size + bound(depth) <= best:
            return
        i = order[depth]
        for x in range(cap(i), -1, -1):
            apply(i, x, 1)
            if fits(i):
                dfs(depth + 1, size + x)
            apply(i, x, -1)

    dfs(0, 0)
    return best


def fingerprint(instance) -> str:
    """Short digest that tells when a pool generator has changed."""
    return f"{zlib.crc32(repr(instance).encode()):08x}"


@functools.cache
def _table() -> dict:
    with open(TABLE, encoding="utf-8") as handle:
        return json.load(handle)


def table_optimum(pool: str, index: int, instance) -> int:
    """The table's optimum for instance `index` of `pool`, refusing a row
    made for another instance."""
    digest, found = _table()[pool][index]
    if digest != fingerprint(instance):
        checks.fail(f"reference table is stale for pool {pool}; run bench/reference.py")
    return found


def twincover_optimum(instance, cover) -> int:
    """Optimum of an instance whose vertices outside `cover` form cliques
    that are pairwise non-adjacent, each clique's members having one
    neighbourhood in the cover.

    For every choice of S within the cover, each clique can take at most
    as many members as its own vertices allow (smallest thresholds first),
    and cliques with the same cover neighbourhood act on the cover alike,
    so only their total matters; those totals are searched exhaustively.
    """
    n, _, thresholds = instance
    nbrs = checks.adjacency(instance)
    cover = sorted(cover)
    xs = set(cover)
    seen: set[int] = set()
    cliques = []
    for v in range(1, n + 1):
        if v in xs or v in seen:
            continue
        clique = sorted(({v} | nbrs[v]) - xs, key=lambda u: (thresholds[u - 1], u))
        seen |= set(clique)
        cliques.append((clique, frozenset(nbrs[v] & xs)))
    shapes = sorted({shape for _, shape in cliques}, key=sorted)
    best = 0
    for bits in range(1 << len(cover)):
        s_x = {x for j, x in enumerate(cover) if bits >> j & 1}
        room = {u: thresholds[u - 1] - 1 - len(nbrs[u] & s_x) for u in cover}
        caps = dict.fromkeys(shapes, 0)
        for clique, shape in cliques:
            take = _clique_cap(clique, len(shape & s_x), thresholds)
            if take < 0:
                break
            caps[shape] += take
        else:
            if min(room.values(), default=0) >= 0:
                best = max(best, len(s_x) + _shape_totals(shapes, caps, room, best - len(s_x)))
    return best


def _clique_cap(clique, seen_x: int, thresholds) -> int:
    """Most members a clique can take (smallest thresholds first) when
    each member already sees `seen_x` chosen cover vertices; -1 when
    even taking none leaves a member at its threshold."""
    for take in range(len(clique), -1, -1):
        if all(
            seen_x + (take - 1 if pos < take else take) < thresholds[v - 1]
            for pos, v in enumerate(clique)
        ):
            return take
    return -1


def _shape_totals(shapes, caps, room, floor: int) -> int:
    """Largest sum of per-shape totals within caps and the cover's room."""
    best = floor

    def dfs(i: int, size: int):
        nonlocal best
        if size + sum(caps[s] for s in shapes[i:]) <= best:
            return
        if i == len(shapes):
            best = size
            return
        shape = shapes[i]
        top = min([caps[shape]] + [room[u] for u in shape])
        for y in range(top, -1, -1):
            for u in shape:
                room[u] -= y
            dfs(i + 1, size + y)
            for u in shape:
                room[u] += y

    dfs(0, 0)
    return best


def build_table() -> dict:
    from workloads import POOLS

    table = {}
    for name, make in POOLS.items():
        rows = []
        for instance, cover in make():
            found = optimum(instance) if cover is None else twincover_optimum(instance, cover)
            rows.append([fingerprint(instance), found])
        table[name] = rows
        print(f"{name}: {len(rows)} instances", file=sys.stderr)
    return table


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    with open(TABLE, "w", encoding="utf-8") as handle:
        table = build_table()
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(rows)}" for name, rows in table.items()
        ) + "\n}\n")
