"""Core types and file format for harmless set instances.

A harmless set of a graph with per-vertex thresholds t is a vertex set S
such that every vertex v of the graph, inside or outside S, has strictly
fewer than t(v) neighbours in S.  This module holds the graph and
instance types, the membership test, threshold helpers, and the
plain-text instance format shared by the solvers and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class FormatError(ValueError):
    """Raised when an input file does not follow its documented format."""


class ReconstructionError(RuntimeError):
    """A solver's witness failed re-verification; never silently ignored."""


class Graph:
    """Undirected simple graph on vertices 1..n.

    Edges are stored both as sorted pairs and as per-vertex neighbour
    frozensets.
    """

    __slots__ = ("n", "edges", "neighbors")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        canonical = []
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
            canonical.append(e)
        canonical.sort()
        self.n = n
        self.edges = tuple(canonical)
        nbrs = [set() for _ in range(n)]
        for u, v in canonical:
            nbrs[u - 1].add(v)
            nbrs[v - 1].add(u)
        self.neighbors = tuple(frozenset(s) for s in nbrs)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v - 1])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u - 1]

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


class Instance:
    """A graph together with one threshold per vertex (all >= 1)."""

    __slots__ = ("graph", "thresholds")

    def __init__(self, graph: Graph, thresholds: Sequence[int]):
        thresholds = tuple(thresholds)
        if len(thresholds) != graph.n:
            raise ValueError(
                f"expected {graph.n} thresholds, got {len(thresholds)}"
            )
        for v, t in enumerate(thresholds, start=1):
            if t < 1:
                raise ValueError(f"vertex {v}: threshold {t} < 1")
        self.graph = graph
        self.thresholds = thresholds

    def threshold(self, v: int) -> int:
        return self.thresholds[v - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Instance)
            and self.graph == other.graph
            and self.thresholds == other.thresholds
        )

    def __hash__(self):
        return hash((self.graph, self.thresholds))

    def __repr__(self) -> str:
        return f"Instance({self.graph!r}, thresholds={self.thresholds})"


@dataclass
class SolveResult:
    """Outcome of an exact solve: maximum size, one witness, provenance."""

    size: int
    witness: tuple[int, ...]
    solver: str
    stats: dict = field(default_factory=dict)


def as_vertex_set(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    """Normalise an id collection into a sorted duplicate-free tuple.

    Raises ValueError when an id falls outside 1..n.
    """
    out = sorted(set(vertices))
    if out and not (1 <= out[0] and out[-1] <= n):
        bad = next(v for v in out if not (1 <= v <= n))
        raise ValueError(f"vertex id {bad} outside 1..{n}")
    return tuple(out)


def is_harmless(instance: Instance, vertices: Iterable[int]) -> bool:
    """True iff every vertex has fewer than t(v) neighbours in the set."""
    return all(x > 0 for x in slack(instance, vertices))


def slack(instance: Instance, vertices: Iterable[int]) -> tuple[int, ...]:
    """Per-vertex slack t(v) - |N(v) & S|; the set is harmless iff all > 0."""
    graph = instance.graph
    s = set(as_vertex_set(vertices, graph.n))
    return tuple(
        t - len(nbrs & s) for t, nbrs in zip(instance.thresholds, graph.neighbors)
    )


def majority_thresholds(graph: Graph) -> Instance:
    """Thresholds t(v) = max(1, ceil(d(v)/2)) for every vertex."""
    return Instance(graph, [max(1, (graph.degree(v) + 1) // 2) for v in graph.vertices()])


def clamp_thresholds(instance: Instance, k: int) -> Instance:
    """Cap every threshold at k+1; a set of size k never meets a higher one."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return Instance(
        instance.graph, [min(t, k + 1) for t in instance.thresholds]
    )


def validate(instance: Instance, strict: bool = False) -> list[str]:
    """Return human-readable violations; empty means the instance is valid.

    Thresholds below 1 are always rejected (the constructor enforces
    this too).  In strict mode a threshold above the vertex degree is
    also flagged; reduced instances legitimately break that bound, so it
    is opt-in.
    """
    problems = []
    for v in instance.graph.vertices():
        t = instance.threshold(v)
        if t < 1:
            problems.append(f"vertex {v}: threshold {t} < 1")
        elif strict and t > instance.graph.degree(v):
            problems.append(
                f"vertex {v}: threshold {t} exceeds degree {instance.graph.degree(v)}"
            )
    return problems


def parse_instance(text: str) -> Instance:
    """Parse the instance format.

    Layout: a `p hs <n> <m>` header, then `t <v> <threshold>` lines (one
    per vertex, or a single `t majority` line), then `e <u> <v>` lines.
    Lines starting with `#` and blank lines are ignored; t and e lines
    may interleave.
    """
    header = None
    thresholds: dict[int, int] = {}
    majority = False
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "p":
                raise FormatError(f"line {lineno}: expected `p hs <n> <m>` header")
            if len(fields) != 4 or fields[1] != "hs":
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer header counts") from None
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative header counts")
            header = (n, m)
            continue
        if fields[0] == "t":
            if len(fields) == 2 and fields[1] == "majority":
                if majority or thresholds:
                    raise FormatError(
                        f"line {lineno}: `t majority` must be the only threshold line"
                    )
                majority = True
                continue
            if majority:
                raise FormatError(
                    f"line {lineno}: threshold line after `t majority`"
                )
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: malformed threshold line {line!r}")
            try:
                v, t = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer threshold line") from None
            if not (1 <= v <= header[0]):
                raise FormatError(f"line {lineno}: vertex {v} outside 1..{header[0]}")
            if v in thresholds:
                raise FormatError(f"line {lineno}: duplicate threshold for vertex {v}")
            if t < 1:
                raise FormatError(f"line {lineno}: threshold {t} < 1")
            thresholds[v] = t
        elif fields[0] == "e":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer edge line") from None
            if not (1 <= u <= header[0] and 1 <= v <= header[0]):
                raise FormatError(
                    f"line {lineno}: edge ({u},{v}) outside 1..{header[0]}"
                )
            if u == v:
                raise FormatError(f"line {lineno}: self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise FormatError(f"line {lineno}: duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
            edges.append(e)
        else:
            raise FormatError(f"line {lineno}: unknown line type {fields[0]!r}")
    if header is None:
        raise FormatError("missing `p hs <n> <m>` header")
    n, m = header
    if len(edges) != m:
        raise FormatError(f"expected {m} edge lines, found {len(edges)}")
    graph = Graph(n, edges)
    if majority:
        return majority_thresholds(graph)
    if len(thresholds) != n:
        raise FormatError(f"expected {n} threshold lines, found {len(thresholds)}")
    return Instance(graph, [thresholds[v] for v in range(1, n + 1)])


def serialize_instance(instance: Instance) -> str:
    """Render an instance back into the file format (explicit thresholds)."""
    graph = instance.graph
    lines = [f"p hs {graph.n} {len(graph.edges)}"]
    for v in graph.vertices():
        lines.append(f"t {v} {instance.threshold(v)}")
    for u, v in graph.edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def format_solution(size: int, witness: Sequence[int], answer: bool | None = None) -> list[str]:
    """SIZE/SET/ANSWER output lines; SET is omitted for the empty set."""
    lines = [f"SIZE {size}"]
    if size > 0:
        lines.append("SET " + " ".join(str(v) for v in witness))
    if answer is not None:
        lines.append(f"ANSWER {'yes' if answer else 'no'}")
    return lines
