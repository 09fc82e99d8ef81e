"""Closed-loop benchmark of the `harmless` command line.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0

One caller in one process calls `harmless.cli.main([...])` in-process,
each call only after the last has returned, on input files written from
the seed.  Stdout is captured and checked by the benchmark's own code
after the timed loop.  A run repeats the complete seeded list of
operations in whole rounds until `--seconds` have passed, so every run
has the same mix.  The last line printed is one JSON object: with
`--trace 0` it holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of traced rounds run in turn with untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")
TRACES = os.path.join(HERE, "_traces")
SETUP_PROBES = 9  # fresh interpreters timed per run; setup_s is their median

sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402


def import_cli():
    """The package from this checkout's src/, never one installed elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import harmless
        import harmless.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import harmless from {SRC}: {exc}")
    if not os.path.abspath(harmless.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: harmless was imported from {harmless.__file__}, not {SRC}")
    return harmless.cli


def setup(workload: str, seed: int, workdir: str):
    """All a fresh interpreter does before its first operation."""
    cli = import_cli()
    ops = workloads.build(workload, seed, workdir)
    return cli, ops


def empty(workdir: str) -> str:
    """Remove what an earlier run wrote, so that set-up writes its inputs
    as new files, as in a fresh checkout; rewriting the files an earlier
    run left took twice as long on a 2-vCPU ext4 virtual machine."""
    shutil.rmtree(workdir, ignore_errors=True)
    return workdir


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to the end of its set-up."""
    workdir = os.path.join(WORK, f"{workload}-setup")
    times = []
    for _ in range(SETUP_PROBES):
        empty(workdir)
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only", workdir],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    empty(workdir)
    return statistics.median(times)


def call(cli, argv) -> tuple[int | None, str, float]:
    """One operation: exit code (None for an exception), stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = None
        elapsed = perf_counter() - start
    if code != 0:
        print(f"bench: failed ({code}) {' '.join(argv)}: {err.getvalue().strip()[-300:]}",
              file=sys.stderr)
    return code, out.getvalue(), elapsed


class Loop:
    """Samples and outputs of whole rounds of the operation list."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.samples: list[float] = []
        self.outputs: list[set[str]] = [set() for _ in ops]
        self.attempted = self.failed = self.rounds = 0
        self.busy = 0.0

    def round(self, tracer=None):
        for i, op in enumerate(self.ops):
            # each operation starts from a collected heap, as a fresh
            # process would, whatever garbage the ones before it left
            gc.collect()
            if tracer is None:
                code, text, elapsed = call(self.cli, op.argv)
            else:
                code, text, elapsed = tracer.call(ROOT, call, self.cli, op.argv)
            self.attempted += 1
            # a failed operation's time still counts, so failing fast
            # cannot raise the rate of answers
            self.busy += elapsed
            if code != 0:
                self.failed += 1
                continue
            self.samples.append(elapsed)
            self.outputs[i].add(text)
        self.rounds += 1

    def run(self, seconds: float):
        """Whole rounds until `seconds` have passed."""
        start = perf_counter()
        while self.rounds == 0 or perf_counter() - start < seconds:
            self.round()
        return self

    def wrong(self) -> int:
        """Distinct outputs that fail their check, each reported once."""
        bad = 0
        for op, texts in zip(self.ops, self.outputs):
            for text in texts:
                try:
                    op.check(text)
                except checks.CheckError as exc:
                    bad += 1
                    print(f"bench: wrong output of {' '.join(op.argv)}: {exc}", file=sys.stderr)
        return bad


def tail_percentile(ops_per_round: int) -> int:
    """Highest whole percentile with at least ten samples of one round
    beyond it; a run of r rounds has 10r samples beyond it."""
    return max(50, math.floor(100 * (ops_per_round - 10) / ops_per_round))


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(loop: Loop, ops, setup_s: float) -> dict:
    if not loop.samples:
        raise SystemExit("bench: no operation was answered")
    return {
        "setup_s": (setup_s, "s"),
        "answered_per_s": (len(loop.samples) / loop.busy, "1/s"),
        "lat_p50_ms": (statistics.median(loop.samples) * 1e3, "ms"),
        "lat_tail_ms": (percentile(loop.samples, tail_percentile(len(ops))) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_TIMES = [
    "core.parse", "core.verify", "nd.partition", "nd.solve", "twincover.find_cover",
    "twincover.solve", "ilp.solve", "oracle.search", "cliquewidth.parse",
    "cliquewidth.check", "cliquewidth.dp", "planar.reduce", "planar.scan",
    "reductions.build", "cli.other",
]
LAYER_COUNTS = [
    "nd.guesses", "twincover.guesses", "twincover.dead_guesses", "ilp.calls", "ilp.nodes",
    "oracle.nodes", "cliquewidth.max_keys", "planar.deleted",
]


def per_layer(cli, ops, seconds: float, workload: str, seed: int) -> tuple[dict, list[Loop]]:
    """Untraced and traced rounds in turn, until each side has had
    `seconds`; the side that goes first alternates, so a drift in the
    machine's speed does not land on one side.  Figures are per traced
    round."""
    plain, traced = Loop(cli, ops), Loop(cli, ops)
    tracer = Tracer()

    def traced_round():
        tracer.install()
        try:
            traced.round(tracer)
        finally:
            tracer.uninstall()

    start = perf_counter()
    while traced.rounds == 0 or perf_counter() - start < 2 * seconds:
        for side in (plain.round, traced_round)[:: 1 if traced.rounds % 2 == 0 else -1]:
            side()
    os.makedirs(TRACES, exist_ok=True)
    tracer.write(os.path.join(TRACES, f"{workload}-seed{seed}.json"))
    rounds = traced.rounds
    self_s = tracer.self_times()
    metrics = {f"{name}_ms": (self_s.get(name, 0.0) * 1e3 / rounds, "ms") for name in LAYER_TIMES}
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) / rounds, "count")
    search_s = tracer.total_time("oracle.search")
    metrics["oracle.nodes_per_s"] = (
        tracer.counts.get("oracle.nodes", 0) / search_s if search_s else 0.0, "1/s")
    metrics["trace.overhead_pct"] = (100 * (traced.busy - plain.busy) / plain.busy, "%")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        print(perf_counter())
        return 0

    import_cli()  # fail fast where the package source is missing
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else 0.0
    cli, ops = setup(args.workload, args.seed, empty(os.path.join(WORK, args.workload)))
    call(cli, ops[0].argv)  # warm-up, not timed
    # the benchmark's own objects stay out of the collections the
    # operations trigger
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, loops = per_layer(cli, ops, args.seconds, args.workload, args.seed)
    else:
        loops = [Loop(cli, ops).run(args.seconds)]
        metrics = end_to_end(loops[0], ops, setup_s)
    wrong = sum(loop.wrong() for loop in loops)
    rounds = sum(loop.rounds for loop in loops)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} "
          f"operations, {attempted} attempted, {failed} failed, {wrong} wrong outputs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    # every workload is built to have no failed operation
    correct = wrong == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
