"""The benchmark's tracer rebinds package attributes by name, so a
renamed or removed one would crash `bench/run.py --trace 1`; every name
it wraps must exist.  It also reads work counts from the stats those
calls return, where a renamed or dropped key would silently read 0, so
every key it reads must be there."""

import importlib
import importlib.util
import pathlib

from harmless import Graph, Instance

from families import path_expr

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

P4 = Instance(Graph(4, [(1, 2), (2, 3), (3, 4)]), (2, 2, 2, 2))

# arguments for the solver behind each span whose stats the tracer reads
SPAN_ARGS = {
    "nd.solve": (P4,),
    "twincover.solve": (P4, (2, 3)),
    "oracle.search": (P4,),
    "cliquewidth.dp": (P4, path_expr(4)[0]),
    "planar.scan": (P4, 2),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_exists():
    tracing = load_tracing()
    missing = [
        (module, attr)
        for module, attr, _ in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert len(tracing.WRAPPED) > 20 and missing == []


def test_every_read_stats_key_is_reported():
    tracing = load_tracing()
    assert set(tracing.STAT_KEYS) == set(SPAN_ARGS)
    for span, keys in tracing.STAT_KEYS.items():
        solvers = [
            getattr(importlib.import_module(module), attr)
            for module, attr, name in tracing.WRAPPED
            if name == span
        ]
        assert solvers, span
        for solve in solvers:
            result = solve(*SPAN_ARGS[span])
            # read the way the tracer reads them
            stats = getattr(result, "stats", None) or getattr(result, "kernel_stats", {})
            absent = [key for _, key in keys if key not in stats]
            assert absent == [], (span, solve.__module__)
