"""Spans and counts around each layer of the package, from outside it.

`Tracer.install()` rebinds, in the module that calls them, the public
functions each layer exposes (for example `harmless.cli.parse_instance`
or `harmless.nd.maximize`) to wrappers that record a span and read the
work counts the call returns.  The package itself is not edited, and
`uninstall()` puts every original back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); a layer called from several modules is
# wrapped in each, so every call site is seen.
WRAPPED = [
    ("harmless.cli", "parse_instance", "core.parse"),
    ("harmless.cli", "parse_mmo", "core.parse"),
    ("harmless.cli", "parse_mrss", "core.parse"),
    ("harmless.cli", "slack", "core.verify"),
    ("harmless.nd", "is_harmless", "core.verify"),
    ("harmless.twincover", "is_harmless", "core.verify"),
    ("harmless.cliquewidth", "is_harmless", "core.verify"),
    ("harmless.planar", "is_harmless", "core.verify"),
    ("harmless.cli", "nd_partition", "nd.partition"),
    ("harmless.nd", "nd_partition", "nd.partition"),
    ("harmless.cli", "solve_nd", "nd.solve"),
    ("harmless.cli", "find_twin_cover", "twincover.find_cover"),
    ("harmless.cli", "solve_twincover", "twincover.solve"),
    ("harmless.nd", "maximize", "ilp.solve"),
    ("harmless.twincover", "maximize", "ilp.solve"),
    ("harmless.cli", "max_harmless_bruteforce", "oracle.search"),
    ("harmless.planar", "max_harmless_bruteforce", "oracle.search"),
    ("harmless.cli", "parse_cexpr", "cliquewidth.parse"),
    ("harmless.cliquewidth", "eval_cexpr", "cliquewidth.check"),
    ("harmless.cliquewidth", "check_irredundant", "cliquewidth.check"),
    ("harmless.cli", "solve_cliquewidth", "cliquewidth.dp"),
    ("harmless.cli", "solve_planar", "planar.scan"),
    ("harmless.planar", "apply_reduction1", "planar.reduce"),
    ("harmless.cli", "reduce_mmo", "reductions.build"),
    ("harmless.cli", "reduce_mrss", "reductions.build"),
    ("harmless.cli", "render_mmo", "reductions.build"),
    ("harmless.cli", "render_mrss", "reductions.build"),
]

# span name -> [(count name, key in the returned stats)]
STAT_KEYS = {
    "nd.solve": [("nd.guesses", "guesses"), ("ilp.nodes", "ilp_nodes")],
    "twincover.solve": [
        ("twincover.guesses", "guesses"),
        ("twincover.dead_guesses", "dead_guesses"),
        ("ilp.nodes", "ilp_nodes"),
    ],
    "oracle.search": [("oracle.nodes", "nodes")],
    "cliquewidth.dp": [("cliquewidth.max_keys", "max_keys")],
    "planar.scan": [("planar.deleted", "deleted")],
}

# the span that stands for one whole operation; its self time is the
# part of the CLI no wrapped layer covers
ROOT = "cli.other"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrapper(self, name: str, fn):
        keys = STAT_KEYS.get(name, ())

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "ilp.solve":
                self.counts["ilp.calls"] += 1
            if keys:
                stats = getattr(result, "stats", None) or getattr(result, "kernel_stats", {})
                for count, key in keys:
                    self.counts[count] += stats.get(key, 0)
            return result

        return wrapper

    def install(self):
        import importlib

        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus the part of
        it that its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write(self, path: str):
        """Spans as [name, start_us, end_us, parent], times from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [
                        [n, round((s - t0) * 1e6), round((e - t0) * 1e6), p]
                        for n, s, e, p in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                handle,
                separators=(",", ":"),
            )
