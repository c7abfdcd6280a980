"""The one-pass TSV graph loader against a per-line reference parser, and the
line each malformed file is reported at."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from envgnn.graphdata import Graph, ParseError, canonical_edges, load_graph, save_graph

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_load_graph(directory, num_classes):
    """The per-line loop ``load_graph`` used before the one-pass read: the oracle
    for files both accept."""
    features, width = [], None
    with open(os.path.join(directory, "features.tsv")) as fh:
        for raw in fh:
            raw = raw.rstrip("\n")
            if raw:
                row = raw.split("\t")
                width = width or len(row)
                assert len(row) == width
                features.append([float(x) for x in row])
    with open(os.path.join(directory, "labels.tsv")) as fh:
        labels = [int(raw) for raw in map(str.strip, fh) if raw]
    edges = []
    with open(os.path.join(directory, "edges.tsv")) as fh:
        for raw in fh:
            raw = raw.rstrip("\n")
            if raw:
                u, v = raw.split("\t")
                edges.append((int(u), int(v)))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return Graph(len(features), np.asarray(features, dtype=np.float64),
                 np.asarray(labels, dtype=np.int64), edges, num_classes)


def reference_canonical_edges(n, edges):
    """``canonical_edges`` as the lexicographic ``np.unique(axis=0)`` of (lo, hi) pairs."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    if not len(lo):
        return np.zeros((0, 2), dtype=np.int64)
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# equivalence with the reference parser
# ---------------------------------------------------------------------------

FLOAT_FORMATS = [repr, "{:.25g}".format, "{:.6e}".format, " {!r} ".format]


@st.composite
def graph_files(draw):
    """A random graph as ``save_graph`` writes it, then with blank lines, extra
    duplicate, reversed and self-loop edges, re-formatted floats and CRLF ends."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    c = draw(st.integers(1, 3))
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    features = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                      min_size=n, max_size=n)), dtype=np.float64)
    labels = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    graph = Graph(n, features, labels, pairs, c)
    extra = [(v, u) for u, v in pairs] + pairs + [(u, u) for u, _ in pairs]
    extra = draw(st.lists(st.sampled_from(extra), max_size=6)) if extra else []
    formats = draw(st.lists(st.sampled_from(FLOAT_FORMATS), min_size=d, max_size=d))
    return graph, extra, formats, draw(st.randoms(use_true_random=False)), draw(st.booleans())


def rewrite(path, lines, rnd, crlf):
    for _ in range(rnd.randint(0, 3)):
        lines.insert(rnd.randint(0, len(lines)), "")
    with open(path, "wb") as fh:
        fh.write("".join(line + ("\r\n" if crlf else "\n") for line in lines).encode())


@PROPERTY
@given(case=graph_files())
def test_load_graph_equals_reference_parser_bitwise(case):
    graph, extra, formats, rnd, crlf = case
    with tempfile.TemporaryDirectory() as d:
        save_graph(d, graph)
        with open(os.path.join(d, "edges.tsv")) as fh:
            edges = fh.read().splitlines() + [f"{u}\t{v}" for u, v in extra]
        rnd.shuffle(edges)
        rewrite(os.path.join(d, "edges.tsv"), edges, rnd, crlf)
        rows = ["\t".join(fmt(float(x)) for fmt, x in zip(formats, row))
                for row in graph.features]
        rewrite(os.path.join(d, "features.tsv"), rows, rnd, crlf)
        with open(os.path.join(d, "labels.tsv")) as fh:
            rewrite(os.path.join(d, "labels.tsv"), fh.read().splitlines(), rnd, crlf)
        got = load_graph(d, graph.num_classes)
        want = reference_load_graph(d, graph.num_classes)
    for name in ("features", "labels", "edges", "degrees"):
        assert_same_bytes(getattr(got, name), getattr(want, name))
    assert got.n == want.n and got.num_classes == want.num_classes


@PROPERTY
@given(n=st.integers(1, 40), data=st.data())
def test_canonical_edges_equals_unique_rows(n, data):
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=60))
    assert_same_bytes(canonical_edges(n, np.array(edges, dtype=np.int64)),
                      reference_canonical_edges(n, edges))


@pytest.mark.parametrize("n, edges", [(1, []), (1, [(0, 0)]), (5, []), (3, [(2, 1), (1, 2)])])
def test_canonical_edges_small_cases(n, edges):
    assert_same_bytes(canonical_edges(n, edges), reference_canonical_edges(n, edges))


# ---------------------------------------------------------------------------
# where a malformed file is reported
# ---------------------------------------------------------------------------

GOOD = {
    "features.tsv": "1.0\t2.0\n3.0\t4.0\n5.0\t6.0\n",
    "labels.tsv": "0\n1\n0\n",
    "edges.tsv": "0\t1\n1\t2\n",
}


@pytest.mark.parametrize("name, text, line, message", [
    pytest.param("features.tsv", "1.0\t2.0\n\n3.0\n4.0\t5.0\n", 3,
                 "ragged feature row: 1 != 2", id="ragged-row"),
    pytest.param("features.tsv", "1.0\t2.0\n3.0\tx\n4.0\t5.0\n", 2,
                 "non-numeric feature value", id="non-numeric-feature"),
    pytest.param("features.tsv", "1.0\t2.0\t\n3.0\t4.0\t\n4.0\t5.0\t\n", 1,
                 "non-numeric feature value", id="trailing-tab"),
    pytest.param("features.tsv", "# a comment\n1.0\t2.0\n3.0\t4.0\n4.0\t5.0\n", 1,
                 "non-numeric feature value", id="comment-feature-line"),
    pytest.param("features.tsv", "1.0\t2.0\n3.0\t4_0\n4.0\t5.0\n", 2,
                 "non-numeric feature value", id="underscore-feature"),
    pytest.param("edges.tsv", "0\t1\n# a comment\n", 2,
                 "expected 'u<TAB>v', got '# a comment'", id="comment-edge-line"),
    pytest.param("edges.tsv", "0\t1\n1\t2\t0\n", 2,
                 "expected 'u<TAB>v', got '1\\t2\\t0'", id="three-column-edge"),
    pytest.param("edges.tsv", "0\t1\n1\tx\n", 2, "non-integer node id: 'x'", id="non-integer-id"),
    pytest.param("edges.tsv", "0\t1\n1\t1.0\n", 2, "non-integer node id: '1.0'", id="float-id"),
    pytest.param("edges.tsv", "\n\n0\t1\n\n1\t9\n", 5,
                 "node id out of range [0, 3): (1, 9)", id="out-of-range-after-blanks"),
    pytest.param("edges.tsv", "1\t2\n1\t-1\n", 2,
                 "node id out of range [0, 3): (1, -1)", id="negative-id"),
    pytest.param("edges.tsv", "0\t1_0\n", 1, "non-integer node id: '1_0'", id="underscore-id"),
    pytest.param("edges.tsv", "0\t١\n", 1, "non-integer node id: '١'", id="non-ascii-digit-id"),
    pytest.param("edges.tsv", "0\t1\n0\t9223372036854775808\n", 2,
                 "non-integer node id: '9223372036854775808'", id="id-beyond-int64"),
    pytest.param("labels.tsv", "0\n1\n", 3, "expected 3 labels, got 2", id="too-few-labels"),
    pytest.param("labels.tsv", "0\n1\n\n0\n1\n", 5,
                 "expected 3 labels, got 4", id="too-many-labels"),
    pytest.param("labels.tsv", "\n0\n1\n7\n", 4,
                 "label 7 out of range [0, 2)", id="label-out-of-range-after-blank"),
    pytest.param("labels.tsv", "0\n-1\n1\n", 2,
                 "label -1 out of range [0, 2)", id="negative-label"),
    pytest.param("labels.tsv", "0\n   \n1\n0\n", 2,
                 "non-integer label: ''", id="whitespace-only-label"),
    pytest.param("labels.tsv", "0\n1\t0\n1\n", 2,
                 "non-integer label: '1\\t0'", id="two-column-label"),
    pytest.param("labels.tsv", "0\nb\n1\n", 2, "non-integer label: 'b'", id="non-integer-label"),
    # numpy's integer parser may crash on these: C isdigit indexes a table with them
    pytest.param("labels.tsv", "0\n\U000cec9e\n1\n", 2,
                 f"non-integer label: {chr(0xCEC9E)!r}", id="label-char-beyond-8-bits"),
    pytest.param("edges.tsv", "0\t1\U000cec9e\n", 1,
                 f"non-integer node id: {'1' + chr(0xCEC9E)!r}", id="id-char-beyond-8-bits"),
])
def test_parse_error_names_file_and_physical_line(tmp_path, name, text, line, message):
    d = tmp_path / "g"
    d.mkdir()
    for file, good in GOOD.items():
        (d / file).write_text(text if file == name else good)
    with pytest.raises(ParseError) as exc:
        load_graph(str(d), num_classes=2)
    assert exc.value.path == str(d / name)
    assert exc.value.line == line
    assert str(exc.value) == f"{d / name}:{line}: {message}"


def test_first_bad_line_wins_across_kinds_of_error(tmp_path):
    # a range error on line 1 precedes a parse error on line 2, as a line-by-line read finds it
    d = tmp_path / "g"
    d.mkdir()
    for file, good in GOOD.items():
        (d / file).write_text(good)
    (d / "edges.tsv").write_text("0\t7\n0\tx\n")
    with pytest.raises(ParseError, match=r"edges.tsv:1: node id out of range"):
        load_graph(str(d))


def test_blank_and_crlf_lines_are_accepted(tmp_path):
    d = tmp_path / "g"
    d.mkdir()
    for file, good in GOOD.items():
        (d / file).write_bytes(("\n" + good.replace("\n", "\r\n") + "\r\n").encode())
    g = load_graph(str(d), num_classes=2)
    assert g.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert g.labels.tolist() == [0, 1, 0]
    assert g.edges.tolist() == [[0, 1], [1, 2]]
