"""Instance generators from the two hardness constructions.

reduce_mmo turns a Minimum Maximum Outdegree instance (weighted graph,
outdegree bound r) into a majority-threshold harmless-set instance whose
answer is k exactly when the source has a valid orientation.  reduce_mrss
turns a Multidimensional Relaxed Subset Sum instance into a bipartite
general-threshold instance with target r.  Both emit a trace mapping
gadget roles to vertex ids so outputs are reproducible fixtures, and both
audit their own structure after building it.

Vertex ids are allocated in a fixed documented order; filler vertices
(pendant triangles, the three 4-cycles) always come last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Graph,
    Instance,
    bfs_distances,
    is_harmless,
    majority_thresholds,
    serialize_instance,
    validate,
)
from .oracle import MrssInstance, WeightedGraph


@dataclass(frozen=True)
class MmoReductionOutput:
    instance: Instance
    k: int
    trace: dict


@dataclass(frozen=True)
class MrssReductionOutput:
    instance: Instance
    r: int
    trace: dict


def _audit(condition: bool, message: str):
    if not condition:
        raise RuntimeError(f"construction audit failed: {message}")


def reduce_mmo(wg: WeightedGraph) -> MmoReductionOutput:
    """Build the harmless-set instance for an orientation problem.

    Per edge (u,v) of weight w: a star V_uv of w vertices on u and a
    star V_vu on v (type 1), joined by 3w-2 degree-2 connector vertices
    (type 2).  Original vertices split on whether ceil(d_w/2) <= r+1
    (type 3) or not (type 4); type 4 gets a set of d_w - r pendant
    vertices.  Pendant triangles pad every gadget vertex up to the
    degree its majority threshold needs.  Ids: originals, then per edge
    the two stars, then per edge the connectors, then the type-4
    pendant sets, then all triangles by ascending host id.
    """
    if wg.r < 3:
        raise ValueError(f"outdegree bound r={wg.r} < 3")
    graph = wg.graph
    n = graph.n
    counter = [n]

    def alloc(count: int) -> list[int]:
        ids = list(range(counter[0] + 1, counter[0] + 1 + count))
        counter[0] += count
        return ids

    edges: list[tuple[int, int]] = []
    trace: dict = {"original": tuple(graph.vertices())}

    stars: dict[tuple[int, int], list[int]] = {}
    for u, v in graph.edges:
        w = wg.weights[(u, v)]
        stars[(u, v)] = alloc(w)
        stars[(v, u)] = alloc(w)
        edges += [(u, x) for x in stars[(u, v)]]
        edges += [(v, x) for x in stars[(v, u)]]
        trace[f"star_{u}_{v}"] = tuple(stars[(u, v)])
        trace[f"star_{v}_{u}"] = tuple(stars[(v, u)])

    connectors: list[int] = []
    for u, v in graph.edges:
        w = wg.weights[(u, v)]
        side_u, side_v = stars[(u, v)], stars[(v, u)]
        pairs = []
        for i in range(w - 1):
            pairs += [
                (side_u[i], side_v[i]),
                (side_u[i], side_v[i + 1]),
                (side_u[i + 1], side_v[i]),
            ]
        pairs.append((side_u[w - 1], side_v[w - 1]))
        ids = alloc(len(pairs))
        for x, (a, b) in zip(ids, pairs):
            edges += [(a, x), (b, x)]
        connectors += ids
        trace[f"connectors_{u}_{v}"] = tuple(ids)

    type1 = [x for (u, v) in graph.edges for x in stars[(u, v)] + stars[(v, u)]]
    trace["type1"] = tuple(sorted(type1))
    trace["type2"] = tuple(connectors)

    def half_up(x: int) -> int:
        return (x + 1) // 2

    type3 = [x for x in graph.vertices() if half_up(wg.weighted_degree(x)) <= wg.r + 1]
    type4 = [x for x in graph.vertices() if half_up(wg.weighted_degree(x)) > wg.r + 1]
    trace["type3"] = tuple(type3)
    trace["type4"] = tuple(type4)

    pendants: dict[int, list[int]] = {}
    for x in type4:
        pendants[x] = alloc(wg.weighted_degree(x) - wg.r)
        edges += [(x, p) for p in pendants[x]]
        trace[f"pendant_{x}"] = tuple(pendants[x])

    degree_so_far: dict[int, int] = {}
    for a, b in edges:
        degree_so_far[a] = degree_so_far.get(a, 0) + 1
        degree_so_far[b] = degree_so_far.get(b, 0) + 1

    triangle_count: dict[int, int] = {x: 1 for x in connectors}
    for x in type1:
        nx = degree_so_far[x]
        _audit(2 <= nx <= 4, f"type-1 vertex {x} has n(x)={nx}")
        triangle_count[x] = nx + 1
    for x in type3:
        triangle_count[x] = 2 * ((wg.r + 1) - half_up(wg.weighted_degree(x)))
    for x in type4:
        triangle_count[x] = wg.r + 2
        for p in pendants[x]:
            triangle_count[p] = 2

    triangles: list[int] = []
    attachments: list[int] = []
    for host in sorted(triangle_count):
        for _ in range(triangle_count[host]):
            a, b, c = alloc(3)
            edges += [(host, a), (a, b), (a, c), (b, c)]
            triangles += [a, b, c]
            attachments.append(a)
    trace["triangles"] = tuple(triangles)

    instance = majority_thresholds(Graph(counter[0], edges))
    weight_total = sum(wg.weights.values())
    k = (
        n
        + weight_total
        + sum(3 * w - 2 for w in wg.weights.values())
        + sum(wg.weighted_degree(x) - wg.r for x in type4)
    )

    built = instance.graph
    for x in connectors:
        _audit(built.degree(x) == 3, f"type-2 vertex {x} has degree {built.degree(x)}")
    for x in attachments:
        _audit(built.degree(x) == 3, f"triangle attachment {x} has degree {built.degree(x)}")
    problems = validate(instance)
    _audit(not problems, "; ".join(problems))
    return MmoReductionOutput(instance, k, trace)


def mmo_proof_witness(
    wg: WeightedGraph, out: MmoReductionOutput, orientation
) -> tuple[int, ...]:
    """The harmless set the forward proof builds from a valid orientation.

    Originals, the tail-side star of every oriented edge, all connectors
    and all type-4 pendant vertices; verified against the instance.
    """
    oriented = list(orientation)
    covered = {tuple(sorted(pair)) for pair in oriented}
    if covered != set(wg.graph.edges) or len(oriented) != len(wg.graph.edges):
        raise ValueError("orientation does not cover each edge exactly once")
    out_weight = {v: 0 for v in wg.graph.vertices()}
    for tail, head in oriented:
        out_weight[tail] += wg.weights[tuple(sorted((tail, head)))]
    worst = max(out_weight.values(), default=0)
    if worst > wg.r:
        raise ValueError(f"orientation has outdegree {worst} > r={wg.r}")

    chosen = set(out.trace["original"])
    for tail, head in oriented:
        chosen.update(out.trace[f"star_{tail}_{head}"])
    chosen.update(out.trace["type2"])
    for x in out.trace["type4"]:
        chosen.update(out.trace[f"pendant_{x}"])
    witness = tuple(sorted(chosen))
    if len(witness) != out.k or not is_harmless(out.instance, witness):
        raise RuntimeError("proof witness failed verification")
    return witness


def reduce_mrss(mi: MrssInstance) -> MrssReductionOutput:
    """Build the bipartite harmless-set instance for a subset-sum problem.

    Per vector s a tree: leaves A^s, middle row B^s (both of size
    max(S)), root c^s, with a perfect matching a_i-b_i.  Coordinate
    vertices u_i attach to the first s(i) vertices of each A^s.  Three
    4-cycles supply the anchors a1 (adjacent to all A), b1 (all B) and
    c1 (all roots).  Ids: U, then A/B/c per vector, then the cycles.

    The matching must cover the whole rows: if a_i had no b-partner for
    indices above max(s), picking such orphans together with a partial
    foreign A-row could reach size r with no feasible source subset.
    """
    n = len(mi.vectors)
    if n == 0:
        raise ValueError("at least one vector required")
    problems = []
    for i in range(mi.k):
        attainable = sum(s[i] for s in mi.vectors)
        if mi.target[i] < 1:
            problems.append(f"coordinate {i + 1}: target {mi.target[i]} < 1")
        elif mi.target[i] > attainable:
            problems.append(
                f"coordinate {i + 1}: target {mi.target[i]} exceeds "
                f"attainable sum {attainable}"
            )
    if not (1 <= mi.budget <= n):
        problems.append(f"budget k'={mi.budget} outside 1..{n}")
    if problems:
        raise ValueError("; ".join(problems))

    mx = max(max(s) for s in mi.vectors)
    k = mi.k
    counter = [k]

    def alloc(count: int) -> list[int]:
        ids = list(range(counter[0] + 1, counter[0] + 1 + count))
        counter[0] += count
        return ids

    u_ids = list(range(1, k + 1))
    trace: dict = {"U": tuple(u_ids)}
    edges: list[tuple[int, int]] = []
    a_rows, c_ids = [], []
    for j, s in enumerate(mi.vectors, start=1):
        a_row, b_row, (c_id,) = alloc(mx), alloc(mx), alloc(1)
        edges += [(c_id, b) for b in b_row]
        edges += [(a_row[i], b_row[i]) for i in range(mx)]
        for i in range(k):
            edges += [(u_ids[i], a) for a in a_row[: s[i]]]
        trace[f"A_{j}"] = tuple(a_row)
        trace[f"B_{j}"] = tuple(b_row)
        trace[f"c_{j}"] = (c_id,)
        a_rows.append(a_row)
        c_ids.append(c_id)

    cycles = {}
    for name in ("C1", "C2", "C3"):
        w, x, y, z = alloc(4)
        edges += [(w, x), (x, y), (y, z), (w, z)]
        cycles[name] = (w, x, y, z)
        trace[name] = cycles[name]
    a1 = cycles["C1"][0]
    b1 = cycles["C2"][0]
    c1 = cycles["C3"][0]
    edges += [(a1, a) for row in a_rows for a in row]
    edges += [(b1, b) for j in range(1, n + 1) for b in trace[f"B_{j}"]]
    edges += [(c1, c) for c in c_ids]

    graph = Graph(counter[0], edges)
    thresholds = [0] * graph.n
    for i in range(k):
        thresholds[u_ids[i] - 1] = sum(s[i] for s in mi.vectors) - mi.target[i] + 1
    for j in range(1, n + 1):
        for a in trace[f"A_{j}"]:
            thresholds[a - 1] = graph.degree(a)
        for b in trace[f"B_{j}"]:
            thresholds[b - 1] = 2
        (c_id,) = trace[f"c_{j}"]
        thresholds[c_id - 1] = graph.degree(c_id)
    for name in ("C1", "C2", "C3"):
        for v in cycles[name][1:]:
            thresholds[v - 1] = 1
    thresholds[a1 - 1] = (n - mi.budget) * mx + 1
    thresholds[b1 - 1] = graph.degree(b1)
    thresholds[c1 - 1] = mi.budget + 1

    instance = Instance(graph, thresholds)
    r = n * mx + k + (n - mi.budget) * mx + mi.budget

    _audit_bipartite(graph)
    deletion = set(u_ids) | set(cycles["C1"]) | set(cycles["C2"]) | {c1}
    _audit(len(deletion) == k + 9, f"deletion set has {len(deletion)} vertices")
    _audit_forest_height(graph, deletion, 3)
    problems = validate(instance)
    _audit(not problems, "; ".join(problems))
    return MrssReductionOutput(instance, r, trace)


def _audit_bipartite(graph: Graph):
    """Colour by BFS depth parity; an edge joining equal parities closes an odd cycle."""
    parity: dict[int, int] = {}
    for start in graph.vertices():
        if start not in parity:
            parity.update((v, d & 1) for v, d in bfs_distances(graph, start).items())
    for v, w in graph.edges:
        _audit(parity[v] != parity[w], f"odd cycle through edge ({v},{w})")


def _audit_forest_height(graph: Graph, deleted: set, height: int):
    """Components left after deletion must be trees some root sees in <= height."""
    seen = set(deleted)
    for start in graph.vertices():
        if start in seen:
            continue
        component = bfs_distances(graph, start, deleted)
        seen.update(component)
        edge_count = sum(len(graph.neighbors[v - 1] - deleted) for v in component)
        _audit(edge_count == 2 * (len(component) - 1), f"component of {start} has a cycle")
        best = min(max(bfs_distances(graph, root, deleted).values()) for root in component)
        _audit(best <= height, f"component of {start} has height {best} > {height}")


def mrss_proof_witness(
    mi: MrssInstance, out: MrssReductionOutput, indices
) -> tuple[int, ...]:
    """The harmless set the forward proof builds from a chosen subset.

    U, every B row, the A rows of unchosen vectors and the roots of
    chosen ones.  The chosen set is padded to exactly k' vectors
    (ascending index); the anchor a1's threshold requires that.
    """
    chosen = sorted(set(indices))
    n = len(mi.vectors)
    if any(not 1 <= j <= n for j in chosen):
        raise ValueError("vector index outside 1..n")
    if len(chosen) > mi.budget:
        raise ValueError(f"{len(chosen)} vectors exceed budget k'={mi.budget}")
    sums = [sum(mi.vectors[j - 1][i] for j in chosen) for i in range(mi.k)]
    if any(sums[i] < mi.target[i] for i in range(mi.k)):
        raise ValueError("chosen vectors do not reach the target")
    for j in range(1, n + 1):
        if len(chosen) == mi.budget:
            break
        if j not in chosen:
            chosen.append(j)
    chosen_set = set(chosen)

    picked = set(out.trace["U"])
    for j in range(1, n + 1):
        picked.update(out.trace[f"B_{j}"])
        if j in chosen_set:
            picked.update(out.trace[f"c_{j}"])
        else:
            picked.update(out.trace[f"A_{j}"])
    witness = tuple(sorted(picked))
    if len(witness) != out.r or not is_harmless(out.instance, witness):
        raise RuntimeError("proof witness failed verification")
    return witness


def _render(trace: dict, target_line: str, instance: Instance) -> str:
    lines = [target_line]
    for role, ids in trace.items():
        lines.append(" ".join(["# trace", role, *map(str, ids)]))
    return "\n".join(lines) + "\n" + serialize_instance(instance)


def render_mmo(out: MmoReductionOutput) -> str:
    """Instance text with `# target k=` and `# trace` comment lines."""
    return _render(out.trace, f"# target k={out.k}", out.instance)


def render_mrss(out: MrssReductionOutput) -> str:
    """Instance text with `# target r=` and `# trace` comment lines."""
    return _render(out.trace, f"# target r={out.r}", out.instance)
