"""The clique-width DP against a reference copy of its table pass
before dead-label dominance.

The reference (`dp_reference.reference_dp_tables`) keeps every key the
operations produce.  The solver drops, at each node, the keys whose
dead labels hold fewer selected vertices than another key with the
same live counts and the same surpluses.  No kept key has a dropped
producer, so every answer and witness must match the reference, and no
table may grow.

A second reference (`dp_reference.reference_dominance_tables`) is the
solver's own table pass in its earlier, plainer form.  Every node's
table, keys and provenance, and `max_keys` must equal it exactly.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import harmless.cliquewidth as cliquewidth
from harmless import (
    CExpression,
    Eta,
    Graph,
    Instance,
    Leaf,
    Rho,
    Union,
    eval_cexpr,
    parse_cexpr,
    solve_cliquewidth,
)

from dp_reference import reference_dominance_tables, reference_dp_tables
from families import cograph_expr, path_expr

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- expression strategies --------------------------------------------------


def tree_expr(parents):
    """3 labels for the tree where vertex v > 1 hangs below parents[v - 2]:
    label 1 marks the root of a finished subtree, 2 a child being
    attached, 3 every vertex already attached."""
    n = len(parents) + 1
    node = {v: Leaf(str(v), 1) for v in range(1, n + 1)}
    for v in range(n, 1, -1):  # children carry larger ids than parents
        p = parents[v - 2]
        node[p] = Rho(2, 3, Eta(1, 2, Union(node[p], Rho(1, 2, node[v]))))
    edges = [(parents[v - 2], v) for v in range(2, n + 1)]
    return CExpression(3 if n > 1 else 1, node[1]), Graph(n, edges)


@st.composite
def trees(draw):
    n = draw(st.integers(1, 25))
    return tree_expr([draw(st.integers(1, v - 1)) for v in range(2, n + 1)])


@st.composite
def random_expressions(draw, twins=False):
    """Irredundant expressions over 3-4 labels: random unions, etas and
    rhos on a pool of pieces, each eta skipped when it would re-add an
    edge, then the pieces left are joined by unions.  A piece starts as
    one leaf or, with `twins`, as a star whose 1-3 leaves are false
    twins spread over two labels.  Twins under different labels give
    keys that tie on the dead total, and the rhos above them make the
    order in which a node meets those keys differ from sorted order."""
    c = draw(st.integers(3, 4))
    n = draw(st.integers(4 if twins else 1, 9))
    edges = set()
    if twins:
        pieces = []
        centre = 1
        while centre <= n:
            x, y, z = draw(st.permutations(range(1, c + 1)))[:3]
            ids = range(centre + 1, centre + 1 + draw(st.integers(1, 3)))
            labels = {centre: y, **{v: draw(st.sampled_from((x, z))) for v in ids}}
            node = functools.reduce(Union, [Leaf(str(v), labels[v]) for v in labels])
            for lab in sorted(set(labels.values()) - {y}):
                node = Eta(lab, y, node)
            edges |= {(centre, v) for v in ids}
            pieces.append((node, labels))
            centre = ids[-1] + 1
        n = centre - 1
    else:
        pieces = [(Leaf(str(v), lab), {v: lab}) for v, lab in enumerate(
            draw(st.lists(st.integers(1, c), min_size=n, max_size=n)), start=1
        )]
    for _ in range(draw(st.integers(0, 3 * n))):
        node, labels = pieces.pop(draw(st.integers(0, len(pieces) - 1)))
        op = draw(st.sampled_from(("union", "eta", "rho")))
        i, j = draw(st.lists(st.integers(1, c), min_size=2, max_size=2, unique=True))
        if op == "union" and pieces:
            other, other_labels = pieces.pop(draw(st.integers(0, len(pieces) - 1)))
            node, labels = Union(node, other), {**labels, **other_labels}
        elif op == "eta":
            new = {
                (min(a, b), max(a, b))
                for a in labels if labels[a] == i
                for b in labels if labels[b] == j
            }
            if not new & edges:
                edges |= new
                node = Eta(i, j, node)
        elif op == "rho":
            node = Rho(i, j, node)
            labels = {v: j if lab == i else lab for v, lab in labels.items()}
        pieces.append((node, labels))
    root = pieces[0][0]
    for node, _ in pieces[1:]:
        root = Union(root, node)
    return CExpression(c, root), Graph(n, sorted(edges))


@st.composite
def with_thresholds(draw, case):
    expr, graph = case
    thresholds = draw(st.lists(st.integers(1, 4), min_size=graph.n, max_size=graph.n))
    return expr, Instance(graph, thresholds)


EXPRESSIONS = st.one_of(
    st.integers(1, 30).map(path_expr),
    trees(),
    st.builds(cograph_expr, st.integers(1, 12), st.randoms(use_true_random=False)),
    random_expressions(),
).flatmap(with_thresholds)

# -- equivalence with the reference -----------------------------------------


def sound_pruned_tables(c, order, thresholds, stats):
    tables = reference_dp_tables(CExpression(c, order[-1]), thresholds, "all", True, stats)
    return [tables[id(node)] for node in order]


def assert_matches_reference(expr, inst):
    got = solve_cliquewidth(inst, expr)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cliquewidth, "_dp_tables", sound_pruned_tables)
        want = solve_cliquewidth(inst, expr)
    assert (got.size, got.witness) == (want.size, want.witness)
    assert got.stats["max_keys"] <= want.stats["max_keys"]


@PROPERTY
@given(EXPRESSIONS)
def test_dominance_keeps_answer_and_witness(case):
    assert_matches_reference(*case)


@PROPERTY
@given(random_expressions(twins=True).flatmap(with_thresholds))
def test_dominance_keeps_twin_ties(case):
    # keeping one key of a tie on the dead total fails here
    assert_matches_reference(*case)


# -- identity with the earlier table pass ------------------------------------


@st.composite
def long_paths(draw):
    expr, graph = path_expr(100)
    thresholds = draw(st.lists(st.integers(1, 3), min_size=100, max_size=100))
    return expr, Instance(graph, thresholds)


# 300 examples: at 150, a copy of the solver that read a union's left
# side in insertion order instead of sorted order still passed
@settings(PROPERTY, max_examples=300)
@given(st.one_of(
    EXPRESSIONS, random_expressions(twins=True).flatmap(with_thresholds), long_paths()
))
def test_tables_equal_the_earlier_table_pass(case):
    expr, inst = case
    labels, _, _, order = cliquewidth._build(expr)
    thresholds = {name: inst.threshold(int(name)) for name in labels}
    got_stats, want_stats = {}, {}
    got = cliquewidth._dp_tables(expr.labels, order, thresholds, got_stats)
    want = reference_dominance_tables(expr, thresholds, want_stats)
    assert len(got) == len(want)
    for node, table in zip(order, got):
        assert table == want[id(node)], node
    assert got_stats == want_stats


# from longer random runs of the expressions above.  Keeping only the
# first key of each tie on the dead total changes the witness in the
# first and the last case; keeping only the last key changes it in the
# last case.  The middle case was found under the literal leaf rule,
# which only the tests still have; under the sound rule it is one more
# plain check.
TIES = [
    (
        "(cexpr 3 (rho 3 1 (eta 3 1 (eta 1 2 (union (union (union (v 3 2) (v 4 2))"
        " (union (v 5 2) (v 6 2))) (union (rho 1 2 (v 7 1)) (union (v 8 3)"
        " (union (v 1 1) (v 2 2)))))))))",
        (2, 1, 1, 1, 1, 1, 1, 1),
    ),
    (
        "(cexpr 3 (rho 1 3 (union (union (eta 1 2 (v 6 1)) (union (v 7 1) (v 8 2)))"
        " (union (union (union (v 1 1) (v 2 1)) (eta 1 2 (v 3 1)))"
        " (eta 1 2 (union (v 4 1) (v 5 2)))))))",
        (1,) * 8,
    ),
    (
        "(cexpr 4 (rho 2 4 (eta 1 3 (eta 4 1 (eta 2 1 (union (union (v 1 4)"
        " (eta 1 3 (v 4 1))) (union (rho 3 2 (v 2 3)) (v 3 3))))))))",
        (1, 2, 1, 3),
    ),
]


@pytest.mark.parametrize("text, thresholds", TIES)
def test_ties_on_the_dead_total_keep_every_key(text, thresholds):
    expr = parse_cexpr(text)
    edges = [tuple(sorted((int(a), int(b)))) for a, b in eval_cexpr(expr)[1]]
    assert_matches_reference(expr, Instance(Graph(len(thresholds), edges), thresholds))


def test_path_tables_stay_small():
    # one of the benchmark's 100-vertex paths; every key is kept at 288
    expr, graph = path_expr(100)
    rng = random.Random("cwpath:104")
    inst = Instance(graph, [rng.randint(1, 3) for _ in range(100)])
    result = solve_cliquewidth(inst, expr)
    assert result.size == 40
    assert result.stats["max_keys"] <= 8
