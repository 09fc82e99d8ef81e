"""The nd and twin cover guesses against reference copies of their
earlier encodings.

The nd solver once wrote each saturation guess as an extra row
(`-x <= -alpha` or `x <= alpha - 1`) where it now sets the bounds of
the class variable, and `decompose` once split G - X again for every
S_X where it now runs once per cover and leaves only the caps to each
guess.  The references below are those earlier forms, written as
general models and solved by the reference solver of
`ilp_reference.py`, since the side rows have a negative coefficient.
Both forms admit the same integer points, and both solvers return the
lexicographically greatest optimum of a point set, so every answer,
witness and guess count must match, and the package's engine, with its
dual bound and the floor of the best guess so far, may search no more
nodes than the reference.  Work tests count calls instead of timing
them.
"""

import random

from hypothesis import given, settings, strategies as st

import harmless.twincover as twincover
from harmless import Graph, Instance, find_twin_cover, nd_partition, solve_nd, solve_twincover
from harmless.core import ReconstructionError, bfs_distances, is_harmless
from harmless.nd import _select_members, class_threshold_stats, nd_rows
from ilp_reference import IlpConstraint, IlpModel, IlpVariable, maximize

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- reference copies -------------------------------------------------------


def reference_build_nd_ilp(instance, partition, saturating):
    """Every variable in [0, |C|]; the guess as side rows."""
    w = partition.width
    variables = tuple(
        IlpVariable(f"x{i}", 0, len(partition.classes[i])) for i in range(w)
    )
    constraints = []
    for i in range(w):
        t, alpha = class_threshold_stats(instance, partition.classes[i])
        coeffs = [0] * w
        for j in partition.type_neighbors[i]:
            coeffs[j] = 1
        if partition.kinds[i] == "clique":
            coeffs[i] = 1
            bound = [0] * w
            if i in saturating:
                constraints.append(IlpConstraint(tuple(coeffs), t))
                bound[i] = -1
                constraints.append(IlpConstraint(tuple(bound), -alpha))
            else:
                constraints.append(IlpConstraint(tuple(coeffs), t - 1))
                bound[i] = 1
                constraints.append(IlpConstraint(tuple(bound), alpha - 1))
        else:
            constraints.append(IlpConstraint(tuple(coeffs), t - 1))
    return IlpModel(variables, tuple(constraints), tuple([1] * w))


def reference_solve_nd(instance):
    partition = nd_partition(instance.graph)
    clique_classes = [i for i in range(partition.width) if partition.kinds[i] == "clique"]
    stats = {}
    best = None
    for bits in range(1 << len(clique_classes)):
        saturating = frozenset(
            clique_classes[j] for j in range(len(clique_classes)) if bits >> j & 1
        )
        solution = maximize(reference_build_nd_ilp(instance, partition, saturating), stats)
        if solution is not None and (best is None or solution.value > best[0]):
            best = (solution.value, solution.assignment)
    return best[0], _select_members(instance, partition, best[1]), stats["ilp_nodes"]


def reference_decompose(instance, cover, s_x):
    """Cliques of G - X with their caps under one S_X; None when dead."""
    graph = instance.graph
    xs, sx = set(cover), set(s_x)
    seen = set(xs)
    cliques, x_nbrs, caps = [], [], []
    for v in graph.vertices():
        if v in seen:
            continue
        clique = tuple(sorted(bfs_distances(graph, v, xs)))
        seen.update(clique)
        nx = frozenset(graph.neighbors[v - 1] & xs)
        t, alpha = class_threshold_stats(instance, clique)
        m = t - len(nx & sx)
        cap = m - 1 if alpha > m else m
        if cap < 0:
            return None
        cliques.append(clique)
        x_nbrs.append(nx)
        caps.append(min(cap, len(clique)))
    groups = {}
    for idx, nx in enumerate(x_nbrs):
        groups.setdefault(nx, []).append(idx)
    classes = tuple(tuple(groups[key]) for key in sorted(groups, key=sorted))
    return cliques, x_nbrs, caps, classes


def reference_solve_twincover(instance, cover):
    graph = instance.graph
    xs = tuple(sorted(set(cover)))
    stats = {"cover_size": len(xs), "guesses": 0, "dead_guesses": 0}
    best = None
    for bits in range(1 << len(xs)):
        s_x = tuple(xs[j] for j in range(len(xs)) if bits >> j & 1)
        stats["guesses"] += 1
        decomp = reference_decompose(instance, xs, s_x)
        if decomp is None:
            stats["dead_guesses"] += 1
            continue
        cliques, x_nbrs, caps, classes = decomp
        variables = tuple(
            IlpVariable(f"y{i}", 0, sum(caps[idx] for idx in cls))
            for i, cls in enumerate(classes)
        )
        constraints = tuple(
            IlpConstraint(
                tuple(int(u in x_nbrs[cls[0]]) for cls in classes),
                instance.threshold(u) - 1 - len(graph.neighbors[u - 1] & set(s_x)),
            )
            for u in xs
        )
        solution = maximize(IlpModel(variables, constraints, (1,) * len(classes)), stats)
        if solution is None:
            stats["dead_guesses"] += 1
            continue
        total = len(s_x) + solution.value
        if best is None or total > best[0]:
            chosen = list(s_x)
            for cls, take in zip(classes, solution.assignment):
                for idx in sorted(cls, key=lambda idx: (-caps[idx], idx)):
                    grab = min(caps[idx], take)
                    members = sorted(cliques[idx], key=lambda v: (instance.threshold(v), v))
                    chosen += members[:grab]
                    take -= grab
                if take:
                    raise ReconstructionError("class capacity lost during distribution")
            best = (total, tuple(sorted(chosen)))
    return best[0], best[1], stats


# -- instance strategies ----------------------------------------------------


@st.composite
def small_instances(draw, max_n=9, t_hi=5):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    thresholds = draw(st.lists(st.integers(1, t_hi), min_size=n, max_size=n))
    return Instance(Graph(n, [e for e, k in zip(pairs, keep) if k]), thresholds)


@st.composite
def blowups(draw):
    """Classes of 1-4 vertices, each a clique or an independent set,
    joined completely along the edges of a random type graph."""
    base = draw(small_instances(max_n=5)).graph
    blocks, n = [], 0
    for _ in range(base.n):
        size = draw(st.integers(1, 4))
        blocks.append(range(n + 1, n + size + 1))
        n += size
    edges = []
    for block in blocks:
        if draw(st.booleans()):
            edges += [(u, v) for u in block for v in block if u < v]
    for x, y in base.edges:
        edges += [(u, v) for u in blocks[x - 1] for v in blocks[y - 1]]
    thresholds = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return Instance(Graph(n, edges), thresholds)


@st.composite
def planted_twin_covers(draw):
    """Cover vertices 1..c, then cliques of 1-4 vertices, each joined to
    one random subset of the cover; pairs of (instance, cover)."""
    c = draw(st.integers(0, 4))
    edges = [(a, b) for a in range(1, c + 1) for b in range(a + 1, c + 1) if draw(st.booleans())]
    n = c
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 4))
        block = range(n + 1, n + size + 1)
        n += size
        edges += [(u, v) for u in block for v in block if u < v]
        seen = draw(st.sets(st.integers(1, c))) if c else set()
        edges += [(x, v) for x in sorted(seen) for v in block]
    thresholds = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return Instance(Graph(n, edges), thresholds), tuple(range(1, c + 1))


def with_minimum_cover(inst):
    return inst, find_twin_cover(inst.graph, inst.graph.n)


twin_cover_cases = st.one_of(
    planted_twin_covers(), small_instances().map(with_minimum_cover)
)


# -- equivalence with the references ----------------------------------------


@PROPERTY
@given(st.one_of(small_instances(), blowups()))
def test_solve_nd_matches_row_encoding(inst):
    got = solve_nd(inst)
    size, witness, nodes = reference_solve_nd(inst)
    assert (got.size, got.witness) == (size, witness)
    # the engine's bounds and floor keep its search within the reference's
    assert got.stats["ilp_nodes"] <= nodes


@PROPERTY
@given(twin_cover_cases)
def test_solve_twincover_matches_per_guess_decompose(case):
    inst, cover = case
    got = solve_twincover(inst, cover)
    size, witness, stats = reference_solve_twincover(inst, cover)
    nodes = stats.pop("ilp_nodes", 0)
    assert (got.size, got.witness) == (size, witness)
    assert {key: got.stats[key] for key in stats} == stats
    # the engine's bounds and floor keep its search within the reference's
    assert got.stats.get("ilp_nodes", 0) <= nodes


# -- model shape and work counts --------------------------------------------


@PROPERTY
@given(st.one_of(small_instances(), blowups()))
def test_nd_models_have_one_packing_row_per_class(inst):
    partition = nd_partition(inst.graph)
    rows = nd_rows(partition)
    assert len(rows) == partition.width
    for i, row in enumerate(rows):
        # each class at most once: every coefficient is 0 or 1
        assert len(set(row)) == len(row)
        assert set(row) - {i} == set(partition.type_neighbors[i])
        assert (i in row) == (partition.kinds[i] == "clique")


def test_twincover_splits_the_cover_remainder_once(monkeypatch):
    calls = []
    split = twincover.decompose

    def spy(instance, xs, partition):
        calls.append(split(instance, xs, partition))
        return calls[-1]

    monkeypatch.setattr(twincover, "decompose", spy)
    rng = random.Random(7)
    cover = tuple(range(1, 7))
    n, edges = 6, []
    for _ in range(12):
        block = range(n + 1, n + rng.randint(1, 4) + 1)
        n += len(block)
        edges += [(u, v) for u in block for v in block if u < v]
        edges += [(x, v) for x in rng.sample(cover, 3) for v in block]
    inst = Instance(Graph(n, edges), [rng.randint(1, 4) for _ in range(n)])
    result = solve_twincover(inst, cover)
    assert result.stats["guesses"] == 64
    assert [(d.cover, len(d.cliques)) for d in calls] == [(cover, 12)]
    assert is_harmless(inst, result.witness)
