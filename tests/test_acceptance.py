"""Acceptance suite: one test per release criterion.

Each test prints a single ACCEPTANCE line (visible even under pytest
capture) and fails loudly with the offending cases otherwise.
"""

import itertools
import random
import time

import numpy as np

from harmless import (
    Graph,
    Instance,
    MrssInstance,
    WeightedGraph,
    apply_reduction1,
    check_irredundant,
    diameter_witness,
    find_twin_cover,
    is_harmless,
    max_harmless_bruteforce,
    maximize,
    mmo_feasible_bruteforce,
    mmo_proof_witness,
    mrss_feasible_bruteforce,
    mrss_proof_witness,
    reduce_mmo,
    reduce_mrss,
    serialize_instance,
    serialize_mmo,
    serialize_mrss,
    solve_cliquewidth,
    solve_nd,
    solve_planar,
    solve_twincover,
    validate,
)
from harmless.cli import main

from dp_reference import reference_solve
from families import (
    clique_expr,
    expression_corpus,
    random_connected_instance,
    random_instance,
)


def report(capsys, name, failures, budget_s, elapsed):
    ok = not failures and elapsed <= budget_s
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {tag} ({elapsed:.1f}s / {budget_s:.0f}s budget)")
    assert not failures, failures[:5]
    assert elapsed <= budget_s, f"{elapsed:.1f}s over the {budget_s:.0f}s budget"


def test_1_solver_cross_validation(capsys):
    """Four solvers agree on 500 random connected instances, n in [4,12]."""
    rng = random.Random(20260824)
    failures = []
    t0 = time.time()
    for trial in range(500):
        inst = random_connected_instance(rng, 4, 12)
        n = inst.graph.n
        best = max_harmless_bruteforce(inst).size
        if solve_nd(inst).size != best:
            failures.append(("nd", trial, inst))
        cover = find_twin_cover(inst.graph, n)
        if solve_twincover(inst, cover).size != best:
            failures.append(("twincover", trial, inst))
        for k in range(1, n + 1):
            if solve_planar(inst, k).answer != (best >= k):
                failures.append(("planar", trial, k, inst))
    report(capsys, "1 solver cross-validation", failures, 120, time.time() - t0)


def test_2_cliquewidth_dp_equivalence(capsys):
    """DP equals oracle on >= 30 expression pairs; the literal leaf rule
    (surplus tracked for chosen vertices only) must disagree somewhere."""
    rng = random.Random(77)
    pairs = expression_corpus(rng)
    failures = []
    divergences = 0
    t0 = time.time()
    if len(pairs) < 30:
        failures.append(("corpus too small", len(pairs)))
    for cexp, graph in pairs:
        ok, offender = check_irredundant(cexp)
        if not ok:
            failures.append(("redundant expression", offender))
            continue
        for _ in range(2):
            thr = tuple(
                rng.randint(1, max(1, graph.degree(v))) for v in graph.vertices()
            )
            inst = Instance(graph, thr)
            got = solve_cliquewidth(inst, cexp)
            want = max_harmless_bruteforce(inst).size
            if got.size != want or not is_harmless(inst, got.witness):
                failures.append((thr, got.size, want))
            literal = reference_solve(inst, cexp, "selected", True)[0]
            if literal < got.size:
                failures.append(("literal rule below corrected", thr))
            divergences += literal > got.size
    # the documented divergence: K2 with both thresholds 1
    k2 = Instance(Graph(2, [(1, 2)]), (1, 1))
    expr2, _ = clique_expr(2)
    corrected = solve_cliquewidth(k2, expr2).size
    literal = reference_solve(k2, expr2, "selected", True)[0]
    if (corrected, literal) != (0, 1):
        failures.append(("K2 divergence", corrected, literal))
    if divergences < 1:
        failures.append(("no corpus divergence case", divergences))
    report(capsys, "2 clique-width dp equivalence", failures, 60, time.time() - t0)


def mmo_generation_corpus():
    yield WeightedGraph(Graph(1, []), {}, 3)
    for w in (1, 2):
        yield WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): w}, 3)
    for w1 in (1, 2):
        for w2 in (1, 2):
            yield WeightedGraph(
                Graph(3, [(1, 2), (2, 3)]), {(1, 2): w1, (2, 3): w2}, 3
            )


def mrss_generation_corpus():
    for k in (1, 2):
        entry_space = list(itertools.product(range(3), repeat=k))
        for nvec in (1, 2):
            for vectors in itertools.combinations_with_replacement(entry_space, nvec):
                attainable = [sum(s[i] for s in vectors) for i in range(k)]
                if any(a < 1 for a in attainable):
                    continue
                targets = itertools.product(
                    *[range(1, attainable[i] + 1) for i in range(k)]
                )
                for target in targets:
                    for budget in range(1, nvec + 1):
                        yield MrssInstance(k, vectors, target, budget)


def test_3_reduction_equivalence(capsys):
    """Source-yes iff target-yes on both exhaustive sweeps, plus the
    three-vector worked example: r = 12 and a verifying witness of 12."""
    failures = []
    t0 = time.time()
    for wg in mmo_generation_corpus():
        out = reduce_mmo(wg)
        ok, orientation = mmo_feasible_bruteforce(wg)
        res = max_harmless_bruteforce(out.instance)
        if ok != (res.size >= out.k) or res.size > out.k:
            failures.append(("mmo", wg.weights, ok, res.size, out.k))
        elif ok and len(mmo_proof_witness(wg, out, orientation)) < out.k:
            failures.append(("mmo witness short", wg.weights))
    for mi in mrss_generation_corpus():
        out = reduce_mrss(mi)
        ok, combo = mrss_feasible_bruteforce(mi)
        res = max_harmless_bruteforce(out.instance)
        if ok != (res.size >= out.r) or res.size > out.r:
            failures.append(("mrss", mi, ok, res.size, out.r))
        elif ok and len(mrss_proof_witness(mi, out, combo)) < out.r:
            failures.append(("mrss witness short", mi))
    three = MrssInstance(2, ((2, 1), (1, 1), (1, 2)), (3, 3), 2)
    out = reduce_mrss(three)
    ok, combo = mrss_feasible_bruteforce(three)
    witness = mrss_proof_witness(three, out, combo) if ok else ()
    if out.r != 12 or not ok or len(witness) != 12:
        failures.append(("three-vector example", out.r, ok, len(witness)))
    elif not is_harmless(out.instance, witness):
        failures.append(("example witness not harmless",))
    report(capsys, "3 reduction equivalence", failures, 300, time.time() - t0)


def two_colorable(graph):
    color = {}
    for start in graph.vertices():
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in graph.neighbors[v - 1]:
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def forest_of_low_trees(graph, deleted, height):
    """Every component of graph - deleted is a tree some root sees in
    <= height steps."""
    alive = [v for v in graph.vertices() if v not in deleted]
    seen = set()
    for start in alive:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for u in graph.neighbors[v - 1]:
                if u not in deleted and u not in comp:
                    comp.add(u)
                    queue.append(u)
        seen |= comp
        edge_count = (
            sum(
                1
                for u, v in graph.edges
                if u in comp and v in comp
            )
        )
        if edge_count != len(comp) - 1:
            return False  # cycle survived
        best = None
        for root in comp:
            dist = {root: 0}
            queue = [root]
            while queue:
                v = queue.pop(0)
                for u in graph.neighbors[v - 1]:
                    if u in comp and u not in dist:
                        dist[u] = dist[v] + 1
                        queue.append(u)
            ecc = max(dist.values())
            best = ecc if best is None else min(best, ecc)
        if best > height:
            return False
    return True


def test_4_structural_audits(capsys):
    """Generated instances look right: vector-sum targets are bipartite
    with a (k+9)-deletion to height-3 trees; both kinds of target have
    no threshold above its vertex degree."""
    failures = []
    t0 = time.time()
    for mi in mrss_generation_corpus():
        out = reduce_mrss(mi)
        graph = out.instance.graph
        if not two_colorable(graph):
            failures.append(("not bipartite", mi))
        deletion = set(out.trace["U"]) | set(out.trace["C1"]) | set(out.trace["C2"])
        deletion.add(out.trace["C3"][0])
        if len(deletion) != mi.k + 9:
            failures.append(("deletion set size", mi))
        if not forest_of_low_trees(graph, deletion, 3):
            failures.append(("tall or cyclic remainder", mi))
        if validate(out.instance):
            failures.append(("mrss threshold above degree", mi))
    for wg in mmo_generation_corpus():
        out = reduce_mmo(wg)
        if validate(out.instance):
            failures.append(("mmo threshold above degree", wg.weights))
    report(capsys, "4 structural audits", failures, 300, time.time() - t0)


def test_5_ilp_against_lattice(capsys):
    """Branch-and-bound equals numpy lattice enumeration on 1000 packing
    models, in value and in the lexicographically greatest optimum."""
    rng = random.Random(99)
    failures = []
    t0 = time.time()
    for trial in range(1000):
        nvars = rng.randint(1, 4)
        lower = [rng.randint(0, 3) for _ in range(nvars)]
        upper = [lo + rng.randint(0, 6) for lo in lower]
        rows = [
            tuple(i for i in range(nvars) if rng.random() < 0.5)
            for _ in range(rng.randint(0, 5))
        ]
        bounds = [rng.randint(-1, 12) for _ in rows]
        got = maximize(rows, bounds, lower, upper)
        grid = np.array(
            list(itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lower, upper)]))
        )
        ok = np.ones(len(grid), dtype=bool)
        for row, bound in zip(rows, bounds):
            ok &= grid[:, list(row)].sum(axis=1) <= bound
        if not ok.any():
            if got is not None:
                failures.append((trial, "feasibility", got))
            continue
        values = grid[ok].sum(axis=1)
        top = int(values.max())
        lex = max(tuple(int(x) for x in p) for p in grid[ok][values == top])
        if got is None or sum(got) != top or got != lex:
            failures.append((trial, top, lex, got))
    report(capsys, "5 ilp vs lattice", failures, 30, time.time() - t0)


def test_6_kernelization_soundness(capsys):
    """Red-vertex deletion never moves the optimum; every emitted
    long-path witness verifies at its target size."""
    rng = random.Random(13)
    failures = []
    t0 = time.time()
    for trial in range(200):
        inst = random_instance(rng, 1, 12, p=0.3, t_hi=4)
        reduced, _ = apply_reduction1(inst)
        if max_harmless_bruteforce(inst).size != max_harmless_bruteforce(reduced).size:
            failures.append(("reduction1", trial, inst))
    emitted = 0
    corpus = [random_instance(rng, 2, 12, p=0.18, t_hi=3) for _ in range(150)]
    for n in (13, 19, 25, 31):
        corpus.append(
            Instance(
                Graph(n, [(i, i + 1) for i in range(1, n)]),
                tuple(2 for _ in range(n)),
            )
        )
    for inst in corpus:
        for k in range(1, inst.graph.n + 1):
            witness = diameter_witness(inst, k)
            if witness is None:
                continue
            emitted += 1
            if len(witness) < k or not is_harmless(inst, witness):
                failures.append(("reduction2", inst, k, witness))
    if emitted == 0:
        failures.append(("no witness ever emitted",))
    report(capsys, "6 kernelization soundness", failures, 120, time.time() - t0)


def test_7_determinism(capsys, tmp_path):
    """Two full corpus runs of the machine-readable CLI byte-match."""
    rng = random.Random(55)
    files = []
    for idx in range(12):
        inst = random_connected_instance(rng, 4, 9)
        path = tmp_path / f"i{idx}.hs"
        path.write_text(serialize_instance(inst) + "\n")
        files.append(str(path))
    p13 = Instance(
        Graph(13, [(i, i + 1) for i in range(1, 13)]),
        tuple(1 if v in (1, 13) else 2 for v in range(1, 14)),
    )
    planar_path = tmp_path / "p13.hs"
    planar_path.write_text(serialize_instance(p13) + "\n")
    mmo_path = tmp_path / "gen.mmo"
    mmo_path.write_text(
        serialize_mmo(WeightedGraph(Graph(2, [(1, 2)]), {(1, 2): 2}, 3)) + "\n"
    )
    mrss_path = tmp_path / "gen.mrss"
    mrss_path.write_text(
        serialize_mrss(MrssInstance(2, ((2, 1), (1, 1), (1, 2)), (3, 3), 2)) + "\n"
    )
    commands = []
    for f in files:
        commands.append(["solve", f, "--machine"])
        commands.append(["solve", f, "--algo", "brute", "--machine"])
        commands.append(["verify", f, "--set", "1", "--machine"])
        commands.append(["analyze", f, "--machine"])
    commands.append(["solve", str(planar_path), "--algo", "planar", "--k", "2", "--machine"])
    commands.append(["solve", str(planar_path), "--algo", "planar", "--k", "5", "--machine"])
    commands.append(["generate", "mmo", str(mmo_path)])
    commands.append(["generate", "mrss", str(mrss_path)])

    def run_corpus():
        chunks = []
        for argv in commands:
            code = main(list(argv))
            captured = capsys.readouterr()
            chunks.append(f"$ {' '.join(argv)} -> {code}\n{captured.out}")
        return "".join(chunks).encode()

    t0 = time.time()
    first = run_corpus()
    second = run_corpus()
    failures = [] if first == second else [("outputs differ", len(first), len(second))]
    report(capsys, "7 determinism", failures, 60, time.time() - t0)
