"""C-expression parsing, evaluation, and the surplus dynamic program."""

import hashlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import harmless.cliquewidth as cliquewidth
from harmless import (
    CExpression,
    Eta,
    FormatError,
    Graph,
    Instance,
    Leaf,
    RedundantExpressionError,
    Union,
    check_irredundant,
    eval_cexpr,
    is_harmless,
    max_harmless_bruteforce,
    parse_cexpr,
    serialize_cexpr,
    solve_cliquewidth,
)

from families import expression_corpus, path_expr

P4_TEXT = """
; the 3-label path construction
(cexpr 3
  (eta 3 2 (union (v 4 3)
    (rho 3 2 (rho 2 1
      (eta 3 2 (union (v 3 3)
        (eta 2 1 (union (v 2 2) (v 1 1))))))))))
"""

P4_GRAPH = Graph(4, [(1, 2), (2, 3), (3, 4)])


def test_parse_round_trip():
    expr = parse_cexpr(P4_TEXT)
    assert expr.labels == 3
    assert parse_cexpr(serialize_cexpr(expr)) == expr
    leaf = parse_cexpr("(cexpr 2 (v a 1))")
    assert leaf.root == Leaf("a", 1)


def test_eval_p4():
    labels, edges = eval_cexpr(parse_cexpr(P4_TEXT))
    ids = {name: int(name) for name in labels}
    assert {tuple(sorted((ids[a], ids[b]))) for a, b in edges} == {(1, 2), (2, 3), (3, 4)}
    # relabels leave 1 and 2 sharing a label at the end
    assert tuple(labels[str(v)] for v in (1, 2, 3, 4)) == (1, 1, 2, 3)


def test_eval_basics():
    labels, edges = eval_cexpr(parse_cexpr("(cexpr 2 (union (v a 1) (v b 1)))"))
    assert edges == set() and labels == {"a": 1, "b": 1}
    labels, edges = eval_cexpr(parse_cexpr("(cexpr 2 (eta 1 2 (union (v a 1) (v b 2))))"))
    assert len(edges) == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(cexpr 2 (v a 3))", "outside"),
        ("(cexpr 2 (eta 1 1 (v a 1)))", "differ"),
        ("(cexpr 2 (rho 2 2 (v a 1)))", "differ"),
        ("(cexpr 2 (union (v a 1) (v a 2)))", "duplicate"),
        ("(cexpr 2 (v a 1)) junk", "trailing"),
        ("(cexpr 2 (frob 1 2))", "unknown"),
        ("(cexpr 2 (v a 1)", "end"),
        ("(cexpr 0 (v a 1))", "label"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_cexpr(text)
    assert fragment in str(err.value)


def test_irredundancy_check():
    ok, offender = check_irredundant(parse_cexpr(P4_TEXT))
    assert ok and offender is None
    ok, offender = check_irredundant(parse_cexpr("(cexpr 2 (v a 1))"))
    assert ok
    bad = parse_cexpr("(cexpr 2 (eta 1 2 (eta 1 2 (union (v a 1) (v b 2)))))")
    ok, offender = check_irredundant(bad)
    assert not ok and isinstance(offender, Eta)
    assert isinstance(offender.child, Eta)  # the outer insertion repeats edges


def test_solve_small_cases():
    k2 = parse_cexpr("(cexpr 2 (eta 1 2 (union (v 1 1) (v 2 2))))")
    res = solve_cliquewidth(Instance(Graph(2, [(1, 2)]), (1, 1)), k2)
    assert res.size == 0 and res.witness == ()
    p3 = parse_cexpr("(cexpr 2 (eta 1 2 (union (v 2 2) (union (v 1 1) (v 3 1)))))")
    res = solve_cliquewidth(Instance(Graph(3, [(1, 2), (2, 3)]), (1, 2, 1)), p3)
    assert res.size == 1
    expr = parse_cexpr(P4_TEXT)
    inst = Instance(P4_GRAPH, (1, 2, 2, 1))
    res = solve_cliquewidth(inst, expr)
    assert res.size == max_harmless_bruteforce(inst).size == 2
    assert is_harmless(inst, res.witness)
    assert res.solver == "cliquewidth"


def test_literal_leaf_rule_diverges():
    # tracking surplus only for selected vertices misses the K2 conflict:
    # one chosen endpoint saturates the unchosen one
    k2 = parse_cexpr("(cexpr 2 (eta 1 2 (union (v 1 1) (v 2 2))))")
    inst = Instance(Graph(2, [(1, 2)]), (1, 1))
    assert solve_cliquewidth(inst, k2).size == 0
    literal = solve_cliquewidth(inst, k2, surplus_scope="selected")
    assert literal.size == 1
    assert not is_harmless(inst, (1,)) and not is_harmless(inst, (2,))


def test_solver_input_validation():
    expr = parse_cexpr(P4_TEXT)
    with pytest.raises(ValueError):
        solve_cliquewidth(Instance(Graph(3, [(1, 2), (2, 3)]), (1, 2, 1)), expr)
    named = parse_cexpr("(cexpr 2 (v a 1))")
    with pytest.raises(ValueError):
        solve_cliquewidth(Instance(Graph(1, []), (1,)), named)
    bad = parse_cexpr("(cexpr 2 (eta 1 2 (eta 1 2 (union (v 1 1) (v 2 2)))))")
    with pytest.raises(RedundantExpressionError):
        solve_cliquewidth(Instance(Graph(2, [(1, 2)]), (1, 1)), bad)


def test_corpus_against_oracle():
    rng = random.Random(20260824)
    pairs = expression_corpus(rng)
    assert len(pairs) >= 30
    divergences = 0
    for cexp, graph in pairs:
        ok, _ = check_irredundant(cexp)
        assert ok, serialize_cexpr(cexp)
        for _ in range(2):
            thr = tuple(
                rng.randint(1, max(1, graph.degree(v))) for v in graph.vertices()
            )
            inst = Instance(graph, thr)
            res = solve_cliquewidth(inst, cexp)
            want = max_harmless_bruteforce(inst)
            assert res.size == want.size, (serialize_cexpr(cexp), thr)
            assert is_harmless(inst, res.witness)
            unpruned = solve_cliquewidth(inst, cexp, prune=False)
            assert unpruned.size == res.size
            literal = solve_cliquewidth(inst, cexp, surplus_scope="selected")
            assert literal.size >= res.size
            divergences += literal.size > res.size
            n, c = graph.n, cexp.labels
            assert res.stats["max_keys"] <= (n + 1) ** c * (2 * n + 1) ** c
    assert divergences >= 1


def test_stats_and_pruning():
    expr, graph = path_expr(8)
    inst = Instance(graph, tuple(2 for _ in range(8)))
    pruned = solve_cliquewidth(inst, expr)
    free = solve_cliquewidth(inst, expr, prune=False)
    assert pruned.size == free.size
    assert pruned.stats["max_keys"] <= free.stats["max_keys"]


# per solver form, sha256 of repr([(size, witness), ...]) and of
# repr([sorted(stats.items()), ...]) over pinned_cases().  The result
# digests must not move when the walk, the pruning or the dominance rule
# is restructured.  The stats digests were captured again when dead-label
# dominance made `max_keys` fall.
DP_DIGESTS = {
    "default": (
        {},
        "2d87f0027030a58bb6cff046222c652b21bd8dae5eecc8ba6d0011b860bd1b75",
        "0e7379d78ecdbc2cdf637fe818d084363f3cabbfe997f152678327e404a1ed21",
    ),
    "no_prune": (
        {"prune": False},
        "2d87f0027030a58bb6cff046222c652b21bd8dae5eecc8ba6d0011b860bd1b75",
        "bc96c27075a1230d7aadae5db903ceb11ed71082a45fe8c82c8186f908bad5c5",
    ),
    "selected": (
        {"surplus_scope": "selected"},
        "6ad2e3d476c24ec597a33343ffcd9b3dd77e3c95518377ddb6e18af163844888",
        "c4090a0c705733c72a2a002fde2512f19d37e61c73251aa3173ce76cb9307570",
    ),
}


def pinned_cases():
    rng = random.Random(77)
    for expr, graph in expression_corpus(rng):
        for _ in range(2):
            thr = [rng.randint(1, graph.degree(v) + 1) for v in graph.vertices()]
            yield expr, Instance(graph, thr)


def sha256(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_dp_results_pinned():
    results = {form: [] for form in DP_DIGESTS}
    stats = {form: [] for form in DP_DIGESTS}
    for expr, inst in pinned_cases():
        for form, (kwargs, _, _) in DP_DIGESTS.items():
            res = solve_cliquewidth(inst, expr, **kwargs)
            results[form].append((res.size, res.witness))
            stats[form].append(sorted(res.stats.items()))
    for form, (_, result_digest, stats_digest) in DP_DIGESTS.items():
        assert len(results[form]) == 92
        assert sha256(results[form]) == result_digest, form
        assert sha256(stats[form]) == stats_digest, form


def test_solver_walks_the_expression_once(monkeypatch):
    calls = []
    build = cliquewidth._build
    monkeypatch.setattr(cliquewidth, "_build", lambda e: calls.append(e) or build(e))
    expr, graph = path_expr(6)
    assert solve_cliquewidth(Instance(graph, (2,) * 6), expr).size == 4
    assert calls == [expr]


def test_deep_path_needs_no_recursion():
    # 5000 vertices nest about 20000 levels deep, far past the default limit
    expr, graph = path_expr(5000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = serialize_cexpr(expr)
        parsed = parse_cexpr(text)
        assert serialize_cexpr(parsed) == text
        assert check_irredundant(parsed)[0]
        result = solve_cliquewidth(Instance(graph, (2,) * 5000), parsed)
    finally:
        sys.setrecursionlimit(limit)
    assert result.size == 2500


def test_repeated_leaf_name_is_rejected():
    # only the parser used to reject a repeated name, so a hand-built
    # expression solved a one-vertex graph with the witness (1, 1)
    expr = CExpression(2, Union(Leaf("1", 1), Leaf("1", 2)))
    with pytest.raises(ValueError, match="^duplicate vertex name '1'$"):
        solve_cliquewidth(Instance(Graph(1, []), (1,)), expr)
    with pytest.raises(ValueError, match="^duplicate vertex name '1'$"):
        eval_cexpr(expr)
    deep = CExpression(3, Eta(1, 2, Union(Leaf("2", 1), Union(Leaf("1", 2), Leaf("2", 3)))))
    with pytest.raises(ValueError, match="^duplicate vertex name '2'$"):
        eval_cexpr(deep)
    # two shared names: the first in the right side's leaf order is named
    left = Union(Leaf("1", 1), Leaf("2", 1))
    right = Union(Union(Leaf("2", 1), Leaf("1", 1)), Leaf("3", 1))
    with pytest.raises(ValueError, match="^duplicate vertex name '2'$"):
        eval_cexpr(CExpression(2, Union(left, right)))


def reference_tokenize(text):
    """The character loop the tokenizer's regular expression replaced."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "();":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


# the structural characters, ASCII and Unicode whitespace, and a few others
TOKEN_TEXT = st.text(st.sampled_from("();\n\r\t\x0b\x0c\x1c\x85\u00a0\u2028\u3000 av1-_é"))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(TOKEN_TEXT, st.text()))
def test_tokenize_matches_reference_loop(text):
    assert cliquewidth._tokenize(text) == reference_tokenize(text)
