"""Tests of the benchmark's own checks.

    python3 bench/selftest.py

Each check must accept the package's real output and reject the same
output with one answer corrupted; the optima the checks rely on must
agree with plain enumeration on small instances.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import families as F  # noqa: E402
import reference  # noqa: E402
from checks import CheckError  # noqa: E402
from harmless.cli import main  # noqa: E402


def enumerate_optimum(instance) -> int:
    n = instance[0]
    nbrs = checks.adjacency(instance)
    for size in range(n, -1, -1):
        for chosen in itertools.combinations(range(1, n + 1), size):
            if checks.harmless(instance, chosen, nbrs):
                return size
    return 0


def replace_row(text: str, key: str, value: str) -> str:
    """The output with the value of row `key` replaced."""
    out = []
    for line in text.splitlines():
        row = line.rpartition(" ")[0] if line.startswith("SLACK ") else line.partition(" ")[0]
        out.append(f"{key} {value}" if row == key else line)
    return "\n".join(out) + "\n"


class Cli:
    def __init__(self):
        os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
        self.dir = tempfile.TemporaryDirectory(dir=os.path.join(HERE, "_work"))
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        path = os.path.join(self.dir.name, f"f{self.count}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def run(self, *argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        assert code == 0, argv
        return out.getvalue()


class OptimaAgreeWithEnumeration(unittest.TestCase):
    def test_small_instances(self):
        rng = random.Random(11)
        for trial in range(150):
            n = rng.randint(1, 10)
            edges = F.sparse_connected(rng, n, min(n * (n - 1) // 2, rng.randint(n - 1, 2 * n)))
            instance = (n, edges, [rng.randint(1, 3) for _ in range(n)])
            expected = enumerate_optimum(instance)
            self.assertEqual(checks.component_optimum(instance), expected, instance)
            self.assertEqual(reference.optimum(instance), expected, instance)
            path = (n, [(i, i + 1) for i in range(1, n)], instance[2])
            self.assertEqual(checks.path_optimum(path[2]), enumerate_optimum(path), path)

    def test_twin_structured_instances(self):
        rng = random.Random(12)
        for _ in range(40):
            instance = F.blowup(rng, rng.randint(1, 4), 1, 3, 0.0)
            if instance[0] <= 12:
                self.assertEqual(reference.optimum(instance), enumerate_optimum(instance))
            cover = rng.randint(1, 3)
            instance = F.planted_twin_cover(rng, cover, rng.randint(1, 4), 2, 3, 0.0)
            if instance[0] <= 12:
                expected = enumerate_optimum(instance)
                self.assertEqual(reference.optimum(instance), expected)
                found = reference.twincover_optimum(instance, range(1, cover + 1))
                self.assertEqual(found, expected)


class ChecksRejectCorruptedAnswers(unittest.TestCase):
    def setUp(self):
        self.cli = Cli()
        rng = random.Random(5)
        n = 14
        edges = F.sparse_connected(rng, n, 2 * n)
        self.instance = (n, edges, F.majority(n, edges))
        self.path = self.cli.write(F.render_instance(self.instance))
        self.optimum = reference.optimum(self.instance)

    def tearDown(self):
        self.cli.dir.cleanup()

    def assertRejects(self, check, text, **kwargs):
        with self.assertRaises(CheckError):
            check(text, **kwargs)

    def test_solve(self):
        text = self.cli.run("solve", self.path, "--algo", "brute", "--k", "3")
        kwargs = dict(instance=self.instance, optimum=self.optimum, solver="brute", k=3)
        checks.check_solve(text, **kwargs)
        ids = [int(x) for x in checks.rows(text)["SET"].split()]
        for key, value in [
            ("SIZE", str(self.optimum - 1)),
            ("SET", " ".join(map(str, ids[1:]))),
            ("SOLVER", "nd"),
            ("ANSWER", "no"),
        ]:
            self.assertRejects(checks.check_solve, replace_row(text, key, value), **kwargs)
        # a maximum set turns harmful when any other vertex joins it
        outsider = next(v for v in range(1, self.instance[0] + 1) if v not in ids)
        for bad in (ids + [outsider], ids + ids[:1], ids + [self.instance[0] + 1]):
            with self.assertRaises(CheckError):
                checks.witness({"SET": " ".join(map(str, bad))}, self.instance)

    def test_verify(self):
        chosen = [1, 2, 3]
        text = self.cli.run("verify", self.path, "--set", "1,2,3")
        checks.check_verify(text, instance=self.instance, chosen=chosen)
        found = checks.rows(text)
        slack = int(found["SLACK 1"])
        self.assertRejects(checks.check_verify, replace_row(text, "SLACK 1", str(slack + 1)),
                           instance=self.instance, chosen=chosen)
        flipped = "no" if found["VALID"] == "yes" else "yes"
        self.assertRejects(checks.check_verify, replace_row(text, "VALID", flipped),
                           instance=self.instance, chosen=chosen)

    def test_analyze(self):
        rng = random.Random(6)
        n = 120
        edges = F.sparse_connected(rng, n, 2 * n)
        instance = (n, edges, F.majority(n, edges))
        text = self.cli.run("analyze", self.cli.write(F.render_instance(instance)))
        checks.check_analyze(text, instance=instance)
        classes = int(checks.rows(text)["CLASSES"])
        for key, value in [("EDGES", str(len(edges) - 1)), ("TMAX", "99"),
                           ("CLASSES", str(classes - 1)), ("COVER", "8")]:
            corrupted = replace_row(text, key, value)
            self.assertRejects(checks.check_analyze, corrupted, instance=instance)

    def test_twin_classes_merge_true_and_false_twins(self):
        # 1, 2 and 5 are false twins (all see 3, 4); 3 and 4 are true twins
        instance = (5, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (3, 5)], [1] * 5)
        self.assertEqual(len(checks.twin_classes(instance)), 2)

    def test_planar(self):
        instance = F.path(200, 3)
        path = self.cli.write(F.render_instance(instance))
        hit = self.cli.run("solve", path, "--algo", "planar", "--k", "30")
        checks.check_planar(hit, instance=instance, k=30, optimum=200, rule="diameter")
        ids = checks.rows(hit)["SET"].split()
        self.assertRejects(checks.check_planar, replace_row(hit, "SET", " ".join(ids[:29])),
                           instance=instance, k=30, optimum=200, rule="diameter")
        self.assertRejects(checks.check_planar, replace_row(hit, "ANSWER", "no"),
                           instance=instance, k=30, optimum=None, rule="diameter")
        self.assertRejects(checks.check_planar, replace_row(hit, "RULE", "kernel"),
                           instance=instance, k=30, optimum=200, rule="diameter")

        rng = random.Random(3)
        instance = F.domino_path(rng, 4, 5, 10)
        optimum = checks.component_optimum(instance)
        path = self.cli.write(F.render_instance(instance))
        for k in (optimum, optimum + 1):
            text = self.cli.run("solve", path, "--algo", "planar", "--k", str(k))
            kwargs = dict(instance=instance, k=k, optimum=optimum, rule="kernel")
            checks.check_planar(text, **kwargs)
            corrupted = replace_row(text, "SIZE", str(optimum + 1))
            self.assertRejects(checks.check_planar, corrupted, **kwargs)

    def test_generated(self):
        source = self.cli.write("p mmo 2 1 3\ne 1 2 2\n")
        out = source + ".hs"
        self.assertEqual(self.cli.run("generate", "mmo", source, "--out", out), "")
        checks.check_generated("", path=out)
        text = self.cli.run("solve", out)
        checks.check_generated_solve(text, path=out, feasible=True)
        size = int(checks.rows(text)["SIZE"])
        self.assertRejects(checks.check_generated_solve, text, path=out, feasible=False)
        self.assertRejects(checks.check_generated_solve, replace_row(text, "SIZE", str(size + 1)),
                           path=out, feasible=True)
        with open(out, encoding="utf-8") as handle:
            edge = next(line for line in handle if line.startswith("e "))
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(edge)
        self.assertRejects(checks.check_generated, "", path=out)

    def test_source_deciders(self):
        self.assertTrue(checks.mmo_feasible(2, [(1, 2, 2)], 3))
        self.assertFalse(checks.mmo_feasible(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)], 2))
        self.assertTrue(checks.mrss_feasible([(2, 1), (1, 2)], (2, 2), 2))
        self.assertFalse(checks.mrss_feasible([(2, 1), (1, 2)], (2, 2), 1))


if __name__ == "__main__":
    unittest.main()
