"""Output checks made apart from the package.

Each check takes the captured stdout of one `harmless` call and the
benchmark's own copy of the input, and raises `CheckError` when the
output is wrong.  Optima come from computations in this file (a DP along
paths, exhaustive search per component) or from the reference table
that `reference.py` builds; none of them calls the package.
"""

from __future__ import annotations


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own answer."""


def fail(message: str):
    raise CheckError(message)


def adjacency(instance) -> list[set[int]]:
    n, edges, _ = instance
    nbrs = [set() for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def harmless(instance, chosen, nbrs=None) -> bool:
    """Every vertex has fewer than t(v) neighbours in `chosen`."""
    n, _, thresholds = instance
    nbrs = nbrs or adjacency(instance)
    chosen = set(chosen)
    return all(len(nbrs[v] & chosen) < thresholds[v - 1] for v in range(1, n + 1))


def rows(text: str) -> dict[str, str]:
    """`KEY value` output lines as a dict; a repeated key is an error."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == "SLACK":
            key, _, value = line.rpartition(" ")
        if key in out:
            fail(f"row {key} repeated")
        out[key] = value
    return out


def witness(found: dict, instance) -> tuple[int, ...]:
    """The SET row as ids, checked to be distinct, in range and harmless."""
    ids = tuple(int(x) for x in found.get("SET", "").split())
    if len(set(ids)) != len(ids) or not all(1 <= v <= instance[0] for v in ids):
        fail(f"SET {ids} has repeated or out-of-range ids")
    if not harmless(instance, ids):
        fail(f"SET {ids} is not harmless")
    return ids


def check_solve(text: str, instance, optimum: int, solver: str | None, k: int | None = None):
    """`solver` None accepts whichever solver `auto` picked."""
    found = rows(text)
    size = int(found.get("SIZE", -1))
    if size != optimum:
        fail(f"SIZE {size}, expected {optimum}")
    if len(witness(found, instance)) != size:
        fail(f"SET has {len(found.get('SET', '').split())} ids for SIZE {size}")
    if solver is not None and found.get("SOLVER") != solver:
        fail(f"SOLVER {found.get('SOLVER')}, expected {solver}")
    expected_answer = None if k is None else ("yes" if optimum >= k else "no")
    if found.get("ANSWER") != expected_answer:
        fail(f"ANSWER {found.get('ANSWER')}, expected {expected_answer}")


def check_planar(text: str, instance, k: int, optimum: int | None, rule: str):
    """`optimum` None means the optimum is not known; the answer must then
    be yes, proven by the witness."""
    found = rows(text)
    if found.get("SOLVER") != "planar" or found.get("RULE") != rule:
        fail(f"SOLVER/RULE {found.get('SOLVER')}/{found.get('RULE')}, expected planar/{rule}")
    yes = optimum is None or optimum >= k
    if found.get("ANSWER") != ("yes" if yes else "no"):
        fail(f"ANSWER {found.get('ANSWER')} for k={k}, optimum {optimum}")
    if rule == "kernel" and int(found.get("SIZE", -1)) != optimum:
        fail(f"SIZE {found.get('SIZE')}, expected {optimum}")
    if yes and len(witness(found, instance)) < k:
        fail(f"SET {found.get('SET')} is shorter than k={k}")
    if not yes and "SET" in found:
        fail("SET printed for a no answer")


def check_verify(text: str, instance, chosen):
    n, _, thresholds = instance
    nbrs = adjacency(instance)
    chosen = set(chosen)
    found = rows(text)
    slack = [thresholds[v - 1] - len(nbrs[v] & chosen) for v in range(1, n + 1)]
    for v in range(1, n + 1):
        if found.get(f"SLACK {v}") != str(slack[v - 1]):
            fail(f"SLACK {v} is {found.get(f'SLACK {v}')}, expected {slack[v - 1]}")
    valid = "yes" if all(x > 0 for x in slack) else "no"
    if found.get("VALID") != valid or len(found) != n + 1:
        fail(f"VALID {found.get('VALID')}, expected {valid}")


def twin_classes(instance, nbrs=None) -> list[tuple[list[int], bool]]:
    """Twin classes as (members, is_clique), by bucketing vertices on
    their closed, then their open neighbourhoods.  A vertex with a true
    twin has no false twin, so the two bucketings never share a vertex."""
    n = instance[0]
    nbrs = nbrs or adjacency(instance)
    by_closed: dict[frozenset, list[int]] = {}
    by_open: dict[frozenset, list[int]] = {}
    for v in range(1, n + 1):
        by_closed.setdefault(frozenset(nbrs[v] | {v}), []).append(v)
        by_open.setdefault(frozenset(nbrs[v]), []).append(v)
    groups = [(g, True) for g in by_closed.values()] + [(g, False) for g in by_open.values()]
    classes = [(group, clique) for group, clique in groups if len(group) > 1]
    placed = {v for group, _ in classes for v in group}
    return classes + [([v], False) for v in range(1, n + 1) if v not in placed]


def cover_lower_bound(instance, wanted: int) -> int:
    """Size of a greedy matching of edges that do not join true twins,
    stopping at `wanted`; every twin cover holds one end of each."""
    nbrs = adjacency(instance)
    used: set[int] = set()
    size = 0
    for u, v in instance[1]:
        if u in used or v in used or nbrs[u] | {u} == nbrs[v] | {v}:
            continue
        used |= {u, v}
        size += 1
        if size == wanted:
            break
    return size


def check_analyze(text: str, instance, cover_limit: int = 8):
    n, edges, thresholds = instance
    found = rows(text)
    expected = {
        "VERTICES": str(n),
        "EDGES": str(len(edges)),
        "TMIN": str(min(thresholds, default=0)),
        "TMAX": str(max(thresholds, default=0)),
        "CLASSES": str(len(twin_classes(instance))),
    }
    for key, value in expected.items():
        if found.get(key) != value:
            fail(f"{key} {found.get(key)}, expected {value}")
    if cover_lower_bound(instance, cover_limit + 1) <= cover_limit:
        fail("no matching certifies that the twin cover exceeds the limit")
    if found.get("COVER") != "none":
        fail(f"COVER {found.get('COVER')}, but a matching of {cover_limit + 1} "
             "non-twin edges needs a larger cover")


def path_optimum(thresholds) -> int:
    """Maximum harmless set of the path 1-2-...-n by DP over the last two
    choices; vertex j's constraint x_{j-1} + x_{j+1} < t(j) is settled
    when x_{j+1} is chosen."""
    n = len(thresholds)
    best = {(0, 0): 0, (0, 1): 1}  # (x_{j-1}, x_j) -> largest size
    for j in range(1, n):
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), size in best.items():
            for c in (0, 1):
                if a + c < thresholds[j - 1] and nxt.get((b, c), -1) < size + c:
                    nxt[(b, c)] = size + c
        best = nxt
    return max(size for (a, _), size in best.items() if a < thresholds[n - 1])


def component_optimum(instance, limit: int = 24) -> int:
    """Exact optimum by exhaustive search, one group of candidates at a time.

    Only vertices whose neighbours all have threshold >= 2 can be chosen.
    Two such candidates interact only when they are adjacent or share a
    neighbour, so the optimum is the sum of the optima of the groups that
    interaction splits them into; each group is searched exhaustively.
    """
    n, _, thresholds = instance
    nbrs = adjacency(instance)
    cand = [v for v in range(1, n + 1) if all(thresholds[w - 1] >= 2 for w in nbrs[v])]
    cset = set(cand)
    seen: set[int] = set()
    total = 0
    for start in cand:
        if start in seen:
            continue
        group, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            group.append(v)
            near = set(nbrs[v])
            for w in nbrs[v]:
                near |= nbrs[w]
            for w in near & cset:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(group) > limit:
            fail(f"exhaustive check refuses a group of {len(group)} candidates")
        total += _group_optimum(sorted(group), nbrs, thresholds)
    return total


def _group_optimum(group, nbrs, thresholds) -> int:
    load: dict[int, int] = {}
    best = 0

    def dfs(i: int, size: int):
        nonlocal best
        if size + len(group) - i <= best:
            return
        if i == len(group):
            best = size
            return
        v = group[i]
        if all(load.get(w, 0) + 1 < thresholds[w - 1] for w in nbrs[v]):
            for w in nbrs[v]:
                load[w] = load.get(w, 0) + 1
            dfs(i + 1, size + 1)
            for w in nbrs[v]:
                load[w] -= 1
        dfs(i + 1, size)

    dfs(0, 0)
    return best


def read_instance(text: str):
    """The benchmark's own reader for instance files with explicit
    thresholds, as `generate` writes them."""
    n, m, edges, thresholds = None, None, [], {}
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "#":
            continue
        if fields[0] == "p":
            n, m = int(fields[2]), int(fields[3])
        elif fields[0] == "t":
            thresholds[int(fields[1])] = int(fields[2])
        elif fields[0] == "e":
            u, v = sorted((int(fields[1]), int(fields[2])))
            edges.append((u, v))
        else:
            fail(f"unexpected line {line!r}")
    if n is None or sorted(thresholds) != list(range(1, n + 1)):
        fail("generated file lacks a header or a threshold per vertex")
    bad = any(u == v or not 1 <= u <= v <= n for u, v in edges)
    if bad or len(edges) != m or len(set(edges)) != m:
        fail("generated file has a repeated, looping or out-of-range edge")
    return n, sorted(edges), [thresholds[v] for v in range(1, n + 1)]


def target(text: str) -> int:
    for line in text.splitlines():
        if line.startswith("# target "):
            return int(line.split("=", 1)[1])
    fail("generated file has no `# target` line")


def mmo_feasible(n: int, wedges, r: int) -> bool:
    """Some orientation keeps every vertex's outgoing weight <= r."""
    for bits in range(1 << len(wedges)):
        out = [0] * (n + 1)
        for i, (u, v, w) in enumerate(wedges):
            out[v if bits >> i & 1 else u] += w
        if max(out) <= r:
            return True
    return False


def mrss_feasible(vectors, target_sums, budget: int) -> bool:
    """At most `budget` vectors reach the target in every coordinate."""
    for mask in range(1 << len(vectors)):
        picked = [s for i, s in enumerate(vectors) if mask >> i & 1]
        if len(picked) <= budget and all(
            sum(s[c] for s in picked) >= t for c, t in enumerate(target_sums)
        ):
            return True
    return False


def check_generated(text: str, path: str):
    """`generate --out` prints nothing and writes a well-formed instance."""
    if text:
        fail("generate --out printed to stdout")
    with open(path, encoding="utf-8") as handle:
        body = handle.read()
    target(body)
    read_instance(body)


def check_generated_solve(text: str, path: str, feasible: bool):
    """The optimum of a generated instance, found by the reference solver,
    matches SIZE, and reaches the target exactly when the source is a
    yes-instance."""
    import reference

    with open(path, encoding="utf-8") as handle:
        body = handle.read()
    instance = read_instance(body)
    optimum = reference.optimum(instance)
    check_solve(text, instance, optimum, None)
    if (optimum >= target(body)) != feasible:
        fail(f"optimum {optimum} vs target {target(body)} contradicts the source answer {feasible}")
