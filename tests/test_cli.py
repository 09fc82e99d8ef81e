"""Command line front end: output contract and exit codes."""

import argparse
import random
import sys

import pytest

import harmless.cli as cli
import harmless.nd as nd
import harmless.twincover as twincover
from harmless import (
    Graph,
    Instance,
    MrssInstance,
    ReconstructionError,
    WeightedGraph,
    is_harmless,
    parse_instance,
    serialize_instance,
    serialize_mmo,
    serialize_mrss,
)
from harmless.cli import main

from families import sparse_majority

P3_TEXT = serialize_instance(Instance(Graph(3, [(1, 2), (2, 3)]), (1, 2, 1))) + "\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.hs"
    path.write_text(P3_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def test_solve_brute(p3_file, capsys):
    code, lines, _ = run(capsys, "solve", p3_file, "--algo", "brute")
    assert code == 0
    assert lines == ["SIZE 1", "SET 1", "SOLVER brute"]


def test_solve_decision_flag(p3_file, capsys):
    code, lines, _ = run(capsys, "solve", p3_file, "--algo", "brute", "--k", "2")
    assert code == 0
    assert lines == ["SIZE 1", "SET 1", "ANSWER no", "SOLVER brute"]


def test_solve_auto_picks_nd(p3_file, capsys):
    code, lines, _ = run(capsys, "solve", p3_file)
    assert code == 0 and lines[-1] == "SOLVER nd"


def test_solve_auto_fallbacks(tmp_path, capsys):
    # long path: too many classes, cover too big, brute takes over
    inst = Instance(Graph(20, [(i, i + 1) for i in range(1, 20)]), (1,) * 20)
    path = tmp_path / "p20.hs"
    path.write_text(serialize_instance(inst) + "\n")
    code, lines, _ = run(capsys, "solve", str(path))
    assert code == 0 and lines[-1] == "SOLVER brute"
    code, lines, _ = run(capsys, "solve", str(path), "--nd-limit", "30")
    assert code == 0 and lines[-1] == "SOLVER nd"
    code, lines, _ = run(capsys, "solve", str(path), "--cover-limit", "10")
    assert code == 0 and lines[-1] == "SOLVER twincover"


def test_auto_and_analyze_build_one_partition(tmp_path, capsys, monkeypatch):
    # the nd gate, the nd solver, the twin cover search, the cover check,
    # the split of G - X and analyze's CLASSES row share one twin
    # partition; every binding of nd_partition is counted
    calls = []
    build = nd.nd_partition
    counted = lambda graph: calls.append(graph.n) or build(graph)  # noqa: E731
    for module in (cli, nd, twincover):
        monkeypatch.setattr(module, "nd_partition", counted)
    inst = Instance(Graph(20, [(i, i + 1) for i in range(1, 20)]), (1,) * 20)
    path = tmp_path / "p20.hs"
    path.write_text(serialize_instance(inst) + "\n")
    evens = ",".join(str(v) for v in range(2, 21, 2))
    for argv, last in [
        (["solve", str(path)], "SOLVER brute"),
        (["solve", str(path), "--nd-limit", "30"], "SOLVER nd"),
        (["solve", str(path), "--cover-limit", "10"], "SOLVER twincover"),
        (["solve", str(path), "--algo", "nd"], "SOLVER nd"),
        (["solve", str(path), "--algo", "twincover", "--cover-limit", "10"], "SOLVER twincover"),
        (["solve", str(path), "--algo", "twincover", "--cover", evens], "SOLVER twincover"),
        (["analyze", str(path), "--cover-limit", "10"], "COVER 10"),
    ]:
        calls.clear()
        code, lines, _ = run(capsys, *argv)
        assert code == 0 and lines[-1] == last
        assert calls == [20]


def test_solve_twincover_explicit_cover(p3_file, capsys):
    code, lines, _ = run(
        capsys, "solve", p3_file, "--algo", "twincover", "--cover", "2"
    )
    assert code == 0 and lines == ["SIZE 1", "SET 1", "SOLVER twincover"]
    code, _, err = run(capsys, "solve", p3_file, "--algo", "twincover", "--cover", "3")
    assert code == 1 and "not a twin cover" in err


def test_explicit_cover_is_checked_once(p3_file, capsys):
    # counts calls through any binding of the function, not one name
    code = twincover.is_twin_cover.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_locals["vertices"])

    sys.setprofile(profile)
    try:
        result = run(capsys, "solve", p3_file, "--algo", "twincover", "--cover", "2")
    finally:
        sys.setprofile(None)
    assert result[0] == 0
    assert calls == [(2,)]


def test_solve_cliquewidth(p3_file, tmp_path, capsys):
    cexpr = tmp_path / "p3.cexpr"
    cexpr.write_text("(cexpr 2 (eta 1 2 (union (v 2 2) (union (v 1 1) (v 3 1)))))\n")
    code, lines, _ = run(
        capsys, "solve", p3_file, "--algo", "cliquewidth", "--cexpr", str(cexpr)
    )
    assert code == 0
    assert lines[0] == "SIZE 1" and lines[-1] == "SOLVER cliquewidth"


def test_solve_cliquewidth_needs_cexpr(p3_file, capsys):
    code, _, err = run(capsys, "solve", p3_file, "--algo", "cliquewidth")
    assert code == 1 and "--cexpr" in err


def test_solve_planar(tmp_path, capsys):
    p13 = Instance(
        Graph(13, [(i, i + 1) for i in range(1, 13)]),
        tuple(1 if v in (1, 13) else 2 for v in range(1, 14)),
    )
    path = tmp_path / "p13.hs"
    path.write_text(serialize_instance(p13) + "\n")
    code, lines, _ = run(capsys, "solve", str(path), "--algo", "planar", "--k", "2")
    assert code == 0
    assert lines == ["SET 1 7 13", "ANSWER yes", "SOLVER planar", "RULE diameter"]
    code, lines, _ = run(capsys, "solve", str(path), "--algo", "planar", "--k", "5")
    assert code == 0
    assert lines[0].startswith("SIZE ") and lines[-1] == "RULE kernel"
    code, _, err = run(capsys, "solve", str(path), "--algo", "planar")
    assert code == 1 and "--k" in err


def test_solve_budget_exhaustion(tmp_path, capsys):
    k4 = Instance(
        Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]),
        (3, 3, 3, 3),
    )
    path = tmp_path / "k4.hs"
    path.write_text(serialize_instance(k4) + "\n")
    code, _, err = run(capsys, "solve", str(path), "--algo", "brute", "--budget", "1")
    assert code == 2 and "error" in err


def test_verify(p3_file, capsys):
    code, lines, _ = run(capsys, "verify", p3_file, "--set", "1")
    assert code == 0
    assert lines == ["SLACK 1 1", "SLACK 2 1", "SLACK 3 1", "VALID yes"]
    code, lines, _ = run(capsys, "verify", p3_file, "--set", "1", "3")
    assert code == 0
    assert lines[1] == "SLACK 2 0" and lines[-1] == "VALID no"
    # comma form of the id list
    code, lines, _ = run(capsys, "verify", p3_file, "--set", "1,3")
    assert lines[-1] == "VALID no"


def test_analyze(tmp_path, capsys):
    c5 = Instance(Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), (1,) * 5)
    path = tmp_path / "c5.hs"
    path.write_text(serialize_instance(c5) + "\n")
    code, lines, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert lines == [
        "VERTICES 5",
        "EDGES 5",
        "TMIN 1",
        "TMAX 1",
        "CLASSES 5",
        "COVER 3",
    ]
    code, lines, _ = run(capsys, "analyze", str(path), "--cover-limit", "2")
    assert lines[-1] == "COVER none"


def test_machine_mode(p3_file, capsys):
    code, lines, _ = run(capsys, "solve", p3_file, "--algo", "brute", "--machine")
    assert code == 0
    assert lines == ["size=1", "set=1", "solver=brute"]
    code, lines, _ = run(capsys, "verify", p3_file, "--set", "1", "3", "--machine")
    assert "slack_2=0" in lines and lines[-1] == "valid=no"


def test_machine_mode_deterministic(p3_file, capsys):
    first = run(capsys, "solve", p3_file, "--machine")
    second = run(capsys, "solve", p3_file, "--machine")
    assert first == second


def test_generate_mmo(tmp_path, capsys):
    src = tmp_path / "edge.mmo"
    src.write_text(
        serialize_mmo(WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): 2}, 3)) + "\n"
    )
    out = tmp_path / "edge.hs"
    code, lines, _ = run(capsys, "generate", "mmo", str(src), "--out", str(out))
    assert code == 0 and lines == []
    text = out.read_text()
    assert text.startswith("# target k=8")
    parse_instance(text)
    # stdout when --out is omitted
    code, lines, _ = run(capsys, "generate", "mmo", str(src))
    assert code == 0 and lines[0] == "# target k=8"


def test_generate_mrss(tmp_path, capsys):
    src = tmp_path / "three.mrss"
    src.write_text(
        serialize_mrss(MrssInstance(2, ((2, 1), (1, 1), (1, 2)), (3, 3), 2)) + "\n"
    )
    code, lines, _ = run(capsys, "generate", "mrss", str(src))
    assert code == 0 and lines[0] == "# target r=12"
    inst = parse_instance("\n".join(lines))
    assert inst.graph.n == 29


def test_deep_brute_search_is_answered(tmp_path, capsys):
    # both graphs have more vertices than the default recursion limit;
    # the oracle and the integer programs search on an explicit stack
    path = tmp_path / "edgeless.hs"
    path.write_text("p hs 1100 0\nt majority\n")
    code, lines, err = run(capsys, "solve", str(path), "--algo", "brute")
    assert code == 0 and err == ""
    assert lines[0] == "SIZE 1100" and lines[-1] == "SOLVER brute"
    # every vertex of a threshold-3 path may have both neighbours chosen
    n = 1200
    path = tmp_path / "p1200.hs"
    path.write_text(
        f"p hs {n} {n - 1}\n"
        + "".join(f"t {v} 3\n" for v in range(1, n + 1))
        + "".join(f"e {i} {i + 1}\n" for i in range(1, n))
    )
    everything = "SET " + " ".join(str(v) for v in range(1, n + 1))
    code, lines, err = run(capsys, "solve", str(path), "--algo", "brute")
    assert code == 0 and err == ""
    assert lines == [f"SIZE {n}", everything, "SOLVER brute"]
    code, lines, err = run(capsys, "solve", str(path), "--algo", "planar", "--k", "250")
    assert code == 0 and err == ""
    assert lines == [f"SIZE {n}", everything, "ANSWER yes", "SOLVER planar", "RULE kernel"]
    # no two vertices of the path are twins, so the nd program has one
    # variable per vertex
    code, lines, err = run(capsys, "solve", str(path), "--algo", "nd")
    assert code == 0 and err == ""
    assert lines == [f"SIZE {n}", everything, "SOLVER nd"]


def test_sparse_majority_graph_is_answered(tmp_path, capsys):
    # 90 vertices, 180 edges, majority thresholds: no structural solver
    # applies, and the oracle answers within its 2,000,000 default nodes
    # only with its Lagrangian bound; tests/test_milp_crosscheck.py
    # confirms the size
    path = tmp_path / "g90.hs"
    path.write_text(serialize_instance(sparse_majority(random.Random("90-0"), 90)) + "\n")
    code, lines, err = run(capsys, "solve", str(path))
    assert code == 0 and err == ""
    assert lines[0] == "SIZE 31" and lines[-1] == "SOLVER brute"


def write_long_path(tmp_path, n):
    """A path on n vertices, each of threshold 2."""
    path = tmp_path / f"p{n}.hs"
    path.write_text(
        f"p hs {n} {n - 1}\n"
        + "".join(f"t {v} 2\n" for v in range(1, n + 1))
        + "".join(f"e {i} {i + 1}\n" for i in range(1, n))
    )
    return path


def test_threshold_two_path_is_answered(tmp_path, capsys):
    # a vertex of threshold 2 tolerates one chosen neighbour, so at most
    # half of the path can be chosen, which is also the LP optimum; no
    # structural solver applies, and the oracle answers within its
    # default budget only when its Lagrangian bound comes close to that
    n = 3000
    path = write_long_path(tmp_path, n)
    code, lines, err = run(capsys, "solve", str(path))
    assert code == 0 and err == ""
    assert lines[0] == "SIZE 1500" and lines[-1] == "SOLVER brute"
    chosen = [int(v) for v in lines[1].split()[1:]]
    assert len(chosen) == 1500
    assert is_harmless(Instance(Graph(n, [(i, i + 1) for i in range(1, n)]), [2] * n), chosen)


def test_nd_on_a_threshold_two_path_is_answered(tmp_path, capsys):
    # one twin class per vertex, each row x[v-1] + x[v+1] <= 1; the row
    # sum cut alone once took 4^(n/2) nodes here, the dual bound and the
    # split of the odd and even positions answer at once
    n = 200
    path = write_long_path(tmp_path, n)
    code, lines, err = run(capsys, "solve", str(path), "--algo", "nd")
    assert code == 0 and err == ""
    assert lines[0] == "SIZE 100" and lines[-1] == "SOLVER nd"
    chosen = [int(v) for v in lines[1].split()[1:]]
    assert is_harmless(Instance(Graph(n, [(i, i + 1) for i in range(1, n)]), [2] * n), chosen)


def test_recursion_error_exits_two(p3_file, capsys, monkeypatch):
    # no search of the package recurses with the input's size; the
    # handler stays so that a deep recursion still exits 2, not with a
    # traceback
    def deep(instance, partition=None):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("harmless.cli.solve_nd", deep)
    code, lines, err = run(capsys, "solve", p3_file, "--algo", "nd")
    assert code == 2 and lines == []
    assert err.startswith("error: recursion depth limit ")


def test_long_cover_search_is_answered(tmp_path, capsys, monkeypatch):
    # a threshold-2 path has no twins, so its twin covers are its vertex
    # covers; its greedy matching is as large as its minimum cover, so the
    # matching bound at each node cuts every wrong pick at once, well
    # within the oracle's budget, patched low here
    n = 2400
    path = write_long_path(tmp_path, n)
    monkeypatch.setattr("harmless.twincover.DEFAULT_NODE_BUDGET", 5000)
    code, lines, err = run(capsys, "analyze", str(path), "--cover-limit", str(n))
    assert code == 0 and err == ""
    assert lines[-2:] == [f"CLASSES {n}", f"COVER {n // 2}"]


def test_long_cover_search_exits_two(tmp_path, capsys, monkeypatch):
    # forty disjoint 5-cycles have no twins; each needs 3 cover vertices
    # but holds a matching of only 2, so every budget from 80 to 119
    # must be refuted; the search's nodes count against the oracle's
    # budget, patched low here to keep the test fast
    n = 200
    edges = [(b + i, b + i % 5 + 1) for b in range(0, n, 5) for i in range(1, 6)]
    path = tmp_path / "c5x40.hs"
    path.write_text(
        f"p hs {n} {len(edges)}\n"
        + "".join(f"t {v} 2\n" for v in range(1, n + 1))
        + "".join(f"e {u} {v}\n" for u, v in edges)
    )
    monkeypatch.setattr("harmless.twincover.DEFAULT_NODE_BUDGET", 5000)
    code, lines, err = run(capsys, "analyze", str(path), "--cover-limit", str(n))
    assert code == 2 and lines == []
    assert err == "error: oracle limit: more than 5000 search nodes\n"


def test_deep_cexpr_is_answered(tmp_path, capsys):
    # the expression for a 300-vertex path nests about 1200 levels deep,
    # past the default recursion limit; every walk over it is iterative
    text = "(eta 2 1 (union (v 2 2) (v 1 1)))"
    for k in range(3, 301):
        text = f"(rho 3 2 (rho 2 1 (eta 3 2 (union (v {k} 3) {text}))))"
    cexpr = tmp_path / "p300.cexpr"
    cexpr.write_text(f"(cexpr 3 {text})\n")
    inst = write_long_path(tmp_path, 300)
    code, lines, err = run(
        capsys, "solve", str(inst), "--algo", "cliquewidth", "--cexpr", str(cexpr)
    )
    # every vertex may see one selected neighbour, so at most two of any
    # four consecutive vertices are selected
    assert code == 0 and err == ""
    assert lines[0] == "SIZE 150" and lines[-1] == "SOLVER cliquewidth"
    chosen = {int(v) for v in lines[1].split()[1:]}
    assert len(chosen) == 150
    assert all((v - 1 in chosen) + (v + 1 in chosen) <= 1 for v in range(1, 301))


def test_reconstruction_error_exits_three(p3_file, capsys, monkeypatch):
    def lost(instance, budget):
        raise ReconstructionError("witness reconstruction lost the optimum")

    monkeypatch.setattr("harmless.cli.max_harmless_bruteforce", lost)
    code, lines, err = run(capsys, "solve", p3_file, "--algo", "brute")
    assert code == 3 and lines == []
    assert err == "error: internal: witness reconstruction lost the optimum\n"


def test_parser_is_built_once(p3_file, capsys, monkeypatch):
    run(capsys, "solve", p3_file)
    calls = []
    add_argument = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "add_argument",
        lambda self, *a, **kw: calls.append(a) or add_argument(self, *a, **kw),
    )
    code, lines, _ = run(capsys, "solve", p3_file, "--algo", "brute")
    assert code == 0 and lines == ["SIZE 1", "SET 1", "SOLVER brute"]
    assert calls == []


def test_missing_file(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.hs")
    assert code == 1 and "error" in err


def test_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.hs"
    bad.write_text("p hs 1 0\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1 and "error" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["solve", "x.hs", "--algo", "bogus"])
    assert err.value.code == 1
