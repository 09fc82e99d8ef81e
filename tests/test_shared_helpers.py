"""Properties of the graph search and the line reader every module shares.

`bfs_distances` is compared with a level-by-level search written here
from scratch, and each text format must read the same object whatever
indentation, trailing spaces, blank lines and `#` comments surround its
lines, with error messages that still name the line as written.
"""

import pytest
from hypothesis import given, settings, strategies as st

from harmless import parse_instance, parse_mmo, parse_mrss
from harmless.core import FormatError, Graph, bfs_distances

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def reference_distances(n, edges, source, removed):
    """Grow the frontier one level at a time over an adjacency of lists."""
    adjacency = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = {}
    frontier = {source}
    level = 0
    while frontier:
        for v in frontier:
            dist[v] = level
        frontier = {
            w for v in frontier for w in adjacency[v] if w not in dist and w not in removed
        }
        level += 1
    return dist


@st.composite
def searches(draw):
    # the sparse densities leave isolated vertices
    n = draw(st.integers(1, 16))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, x in zip(pairs, keep) if x < density]
    source = draw(st.integers(1, n))
    removed = draw(st.sets(st.integers(1, n))) - {source}
    return n, edges, source, removed


@PROPERTY
@given(searches())
def test_bfs_distances_matches_reference(case):
    n, edges, source, removed = case
    graph = Graph(n, edges)
    expected = reference_distances(n, edges, source, removed)
    assert bfs_distances(graph, source, removed) == expected
    assert bfs_distances(graph, source, frozenset(removed)) == expected
    assert bfs_distances(graph, source) == reference_distances(n, edges, source, set())


# parser, clean text, and bad lines with their messages minus the line number
FORMATS = {
    "hs": (
        parse_instance,
        "p hs 5 4\nt majority\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n",
        [
            ("e  1 2  3", "malformed edge line 'e  1 2  3'"),
            ("e 1 1", "self-loop at vertex 1"),
            ("e 1 9", "edge (1,9) has an endpoint outside 1..5"),
        ],
    ),
    "mmo": (
        parse_mmo,
        "p mmo 3 2 3\ne 1 2 2\ne 2 3 1\n",
        [("e 1 x 2", "non-integer edge line"), ("e 1 1 2", "self-loop at vertex 1")],
    ),
    "mrss": (
        parse_mrss,
        "p mrss 2 3 2\nt 3 3\ns 2 1\ns 1 1\ns 1 2\n",
        [("q  1 2", "unknown line type 'q'")],
    ),
}

PADDING = st.sampled_from(["", " ", "  ", "\t", " \t "])
FILLER = st.lists(st.sampled_from(["", "   ", "\t", "#", "# note", "  # indented", "#p hs 1 0"]))


@st.composite
def noisy(draw, lines):
    """The lines padded and interleaved with filler, plus the 1-based
    position each original line ends up at."""
    out, positions = [], []
    for line in lines:
        out += draw(FILLER)
        out.append(draw(PADDING) + line + draw(PADDING))
        positions.append(len(out))
    out += draw(FILLER)
    return out, positions


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@PROPERTY
@given(data=st.data())
def test_formats_ignore_padding_blanks_and_comments(fmt, data):
    parse, clean, _ = FORMATS[fmt]
    lines, _ = data.draw(noisy(clean.splitlines()))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    assert parse(newline.join(lines)) == parse(clean)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@PROPERTY
@given(data=st.data())
def test_format_errors_keep_line_numbers(fmt, data):
    parse, clean, bad_lines = FORMATS[fmt]
    good = clean.splitlines()
    for bad, message in bad_lines:
        at = data.draw(st.integers(1, len(good)))
        lines, positions = data.draw(noisy(good[:at] + [bad] + good[at:]))
        with pytest.raises(FormatError) as info:
            parse("\n".join(lines))
        assert str(info.value) == f"line {positions[at]}: {message}"
