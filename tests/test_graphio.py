"""Graph container, text IO, normalized adjacency, and split tests."""

import json
import os

import numpy as np
import pytest

from envgnn.graphdata import (
    Dataset,
    Graph,
    ParseError,
    SplitSpec,
    build_norm_adj,
    canonical_edges,
    dataset_manifest_hash,
    load_dataset,
    load_graph,
    save_dataset,
    save_graph,
    split_random,
)
from envgnn.trainer import disjoint_union


def path_graph():
    """The 3-node path fixture 0 - 1 - 2."""
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return Graph(3, feats, [0, 1, 0], [[0, 1], [1, 2]], 2)


def write_graph_files(d, edges, features, labels):
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "edges.tsv"), "w") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in edges))
    with open(os.path.join(d, "features.tsv"), "w") as fh:
        fh.write("".join("\t".join(str(x) for x in row) + "\n" for row in features))
    with open(os.path.join(d, "labels.tsv"), "w") as fh:
        fh.write("".join(f"{y}\n" for y in labels))


# ---------------------------------------------------------------------------
# Graph container
# ---------------------------------------------------------------------------


def test_path_graph_degrees():
    g = path_graph()
    assert np.array_equal(g.degrees, [1, 2, 1])


def test_canonical_edges_dedup_and_self_loops():
    edges = canonical_edges(4, np.array([[1, 0], [0, 1], [2, 2], [3, 1]]))
    assert np.array_equal(edges, [[0, 1], [1, 3]])


def test_edge_endpoint_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, np.zeros((2, 1)), [0, 0], [[0, 5]], 1)


def test_label_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, np.zeros((2, 1)), [0, 3], [[0, 1]], 2)


def test_feature_row_count_mismatch():
    with pytest.raises(ValueError):
        Graph(3, np.zeros((2, 1)), [0, 0, 0], [], 1)


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------


def test_load_path_graph(tmp_path):
    d = str(tmp_path / "g")
    write_graph_files(d, [(0, 1), (1, 2)],
                      [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1, 0])
    g = load_graph(d)
    assert g.n == 3
    assert np.array_equal(g.degrees, [1, 2, 1])
    assert g.num_classes == 2


def test_load_rejects_out_of_range_label(tmp_path):
    d = str(tmp_path / "g")
    write_graph_files(d, [(0, 1)], [[0.0], [0.0]], [0, 7])
    with pytest.raises(ParseError) as exc:
        load_graph(d, num_classes=7)
    assert "out of range" in str(exc.value)
    assert exc.value.line == 2


def test_load_reports_line_of_bad_feature(tmp_path):
    d = str(tmp_path / "g")
    write_graph_files(d, [], [[0.0], ["oops"]], [0, 0])
    with pytest.raises(ParseError) as exc:
        load_graph(d)
    assert exc.value.line == 2


def test_load_rejects_ragged_features(tmp_path):
    d = str(tmp_path / "g")
    os.makedirs(d)
    with open(os.path.join(d, "features.tsv"), "w") as fh:
        fh.write("1.0\t2.0\n1.0\n")
    with open(os.path.join(d, "edges.tsv"), "w") as fh:
        fh.write("")
    with open(os.path.join(d, "labels.tsv"), "w") as fh:
        fh.write("0\n0\n")
    with pytest.raises(ParseError):
        load_graph(d)


def test_load_rejects_bad_edge_line(tmp_path):
    d = str(tmp_path / "g")
    write_graph_files(d, [], [[0.0], [0.0]], [0, 0])
    with open(os.path.join(d, "edges.tsv"), "w") as fh:
        fh.write("0\t1\t2\n")
    with pytest.raises(ParseError) as exc:
        load_graph(d)
    assert exc.value.line == 1


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_graph(str(tmp_path / "absent"))


def test_save_load_roundtrip(tmp_path):
    g = path_graph()
    d = str(tmp_path / "g")
    save_graph(d, g)
    back = load_graph(d, num_classes=2)
    assert back.n == g.n
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.labels, g.labels)
    assert np.array_equal(back.features, g.features)


def test_roundtrip_preserves_floats_exactly(tmp_path):
    feats = np.array([[np.pi], [1e-17], [-3.7e300]])
    g = Graph(3, feats, [0, 0, 0], [], 1)
    d = str(tmp_path / "g")
    save_graph(d, g)
    assert np.array_equal(load_graph(d, 1).features, feats)


# ---------------------------------------------------------------------------
# normalized adjacency
# ---------------------------------------------------------------------------


def test_norm_adj_single_edge():
    g = Graph(2, np.zeros((2, 1)), [0, 0], [[0, 1]], 1)
    adj = build_norm_adj(g)
    assert adj.csr[0, 1] == 1.0
    assert adj.csr[1, 0] == 1.0


def test_norm_adj_triangle():
    g = Graph(3, np.zeros((3, 1)), [0, 0, 0], [[0, 1], [1, 2], [0, 2]], 1)
    adj = build_norm_adj(g)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        assert abs(adj.csr[u, v] - 0.5) <= 1e-15
        assert abs(adj.csr[v, u] - 0.5) <= 1e-15


def test_norm_adj_star_center_leaf():
    edges = [[0, i] for i in range(1, 5)]
    g = Graph(5, np.zeros((5, 1)), [0] * 5, edges, 1)
    adj = build_norm_adj(g)
    assert abs(adj.csr[0, 1] - 0.5) <= 1e-15  # 1/sqrt(4*1)


def test_norm_adj_self_loops():
    g = Graph(2, np.zeros((2, 1)), [0, 0], [[0, 1]], 1)
    adj = build_norm_adj(g, add_self_loops=True)
    # degrees become 2 after the loop: off-diagonal 1/2, diagonal 1/2
    assert abs(adj.csr[0, 1] - 0.5) <= 1e-15
    assert abs(adj.csr[0, 0] - 0.5) <= 1e-15
    assert adj.nnz == 4


def test_norm_adj_isolated_node_empty_row():
    g = Graph(3, np.zeros((3, 1)), [0, 0, 0], [[0, 1]], 1)
    adj = build_norm_adj(g)
    assert adj.csr[2].nnz == 0


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_100_nodes():
    s = split_random(np.arange(100), seed=0)
    assert (len(s.train), len(s.valid), len(s.test_id)) == (50, 25, 25)


def test_split_7_nodes_remainder_to_train():
    s = split_random(np.arange(7), seed=0)
    assert (len(s.train), len(s.valid), len(s.test_id)) == (5, 1, 1)


def test_split_deterministic():
    a = split_random(np.arange(40), seed=3)
    b = split_random(np.arange(40), seed=3)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.valid, b.valid)
    assert np.array_equal(a.test_id, b.test_id)


def test_split_partitions_universe():
    s = split_random(np.arange(33), seed=1)
    merged = np.sort(np.concatenate([s.train, s.valid, s.test_id]))
    assert np.array_equal(merged, np.arange(33))


@pytest.mark.parametrize("n, part", [(0, "train"), (1, "valid"), (3, "valid")])
def test_split_refuses_an_empty_part(n, part):
    # every later command refuses a dataset whose train, valid or test_id is empty
    with pytest.raises(ValueError, match=f"a split of {n} ID nodes .* leaves '{part}' empty"):
        split_random(np.arange(n), seed=0)


def test_splitspec_rejects_overlap():
    with pytest.raises(ValueError):
        SplitSpec([0, 1], [1, 2], [3])


# ---------------------------------------------------------------------------
# dataset IO
# ---------------------------------------------------------------------------


def make_dataset():
    rng = np.random.default_rng(0)
    graphs = [
        Graph(6, rng.normal(size=(6, 3)), rng.integers(0, 2, 6), [[0, 1], [2, 3]], 2)
        for _ in range(3)
    ]
    split = split_random(np.arange(12), seed=0)
    return Dataset(graphs[:2], graphs[2:], split, {"name": "toy", "metric": "accuracy"})


def test_dataset_save_load_roundtrip(tmp_path):
    ds = make_dataset()
    d = str(tmp_path / "ds")
    save_dataset(d, ds)
    back = load_dataset(d)
    assert len(back.id_graphs) == 2 and len(back.ood_graphs) == 1
    assert back.num_classes == 2 and back.num_features == 3
    assert back.metric == "accuracy"
    assert np.array_equal(back.split.train, ds.split.train)
    for a, b in zip(back.id_graphs + back.ood_graphs, ds.id_graphs + ds.ood_graphs):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.edges, b.edges)


def test_dataset_content_hash_stable(tmp_path):
    ds = make_dataset()
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    save_dataset(d1, ds)
    save_dataset(d2, ds)
    assert dataset_manifest_hash(d1) == dataset_manifest_hash(d2)


def test_dataset_content_hash_detects_edits(tmp_path):
    from envgnn.graphdata import _content_hash

    ds = make_dataset()
    d = str(tmp_path / "ds")
    save_dataset(d, ds)
    with open(os.path.join(d, "dataset.json")) as fh:
        manifest = json.load(fh)
    dirs = manifest["id_graphs"] + manifest["ood_graphs"]
    assert _content_hash(d, dirs) == manifest["content_hash"]
    with open(os.path.join(d, "id_0", "labels.tsv"), "a") as fh:
        fh.write("0\n")
    assert _content_hash(d, dirs) != manifest["content_hash"]


def test_load_dataset_rejects_out_of_range_split_index(tmp_path):
    d = str(tmp_path / "ds")
    save_dataset(d, make_dataset())
    spath = os.path.join(d, "splits.json")
    with open(spath) as fh:
        splits = json.load(fh)
    splits["valid"].append(12)  # the two ID graphs hold nodes 0..11
    with open(spath, "w") as fh:
        json.dump(splits, fh)
    with pytest.raises(ParseError, match="splits.json") as exc:
        load_dataset(d)
    assert exc.value.path == spath


def _edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda m: m.pop("C"), "missing field 'C'", id="missing-C"),
    pytest.param(lambda m: m.pop("id_graphs"), "missing field 'id_graphs'", id="missing-id"),
    pytest.param(lambda m: m.pop("ood_graphs"), "missing field 'ood_graphs'",
                 id="missing-ood"),
    pytest.param(lambda m: m.__setitem__("C", "2"), "field 'C'", id="C-string"),
    pytest.param(lambda m: m.__setitem__("C", 0), "field 'C'", id="C-zero"),
    pytest.param(lambda m: m.__setitem__("id_graphs", "id_0"), "field 'id_graphs'",
                 id="id-not-list"),
    pytest.param(lambda m: m.__setitem__("ood_graphs", [0]), "field 'ood_graphs'",
                 id="ood-not-names"),
    pytest.param(lambda m: m.__setitem__("id_graphs", []), "'id_graphs' is empty",
                 id="id-empty"),
    pytest.param(lambda m: m.__setitem__("metric", "f1"), "field 'metric' must be one of",
                 id="metric-unknown"),
    pytest.param(lambda m: m.__setitem__("metric", 5), "field 'metric' must be one of",
                 id="metric-number"),
    pytest.param(lambda m: m.update(metric="roc_auc", C=3), "'roc_auc' needs C == 2",
                 id="roc-auc-multiclass"),
])
def test_load_dataset_rejects_bad_manifest_field(tmp_path, edit, named):
    d = str(tmp_path / "ds")
    save_dataset(d, make_dataset())
    mpath = os.path.join(d, "dataset.json")
    _edit_json(mpath, edit)
    with pytest.raises(ParseError, match=named) as exc:
        load_dataset(d)
    assert exc.value.path == mpath


@pytest.mark.parametrize("name, text", [
    ("dataset.json", "[1, 2]"),
    ("dataset.json", "{not json"),
    ("splits.json", "null"),
])
def test_load_dataset_rejects_non_object_json(tmp_path, name, text):
    d = str(tmp_path / "ds")
    save_dataset(d, make_dataset())
    with open(os.path.join(d, name), "w") as fh:
        fh.write(text)
    with pytest.raises(ParseError, match=name):
        load_dataset(d)


@pytest.mark.parametrize("value", [[0.5], ["1"], [[1]], [True], 3])
def test_load_dataset_rejects_non_integer_split(tmp_path, value):
    d = str(tmp_path / "ds")
    save_dataset(d, make_dataset())
    _edit_json(os.path.join(d, "splits.json"), lambda s: s.__setitem__("train", value))
    with pytest.raises(ParseError, match="field 'train' must be a list of node indices"):
        load_dataset(d)


@pytest.mark.parametrize("metric", ["accuracy", "macro_f1", "roc_auc"])
def test_load_dataset_accepts_every_metric_on_a_binary_task(tmp_path, metric):
    d = str(tmp_path / "ds")
    save_dataset(d, make_dataset())
    _edit_json(os.path.join(d, "dataset.json"), lambda m: m.__setitem__("metric", metric))
    assert load_dataset(d).metric == metric


@pytest.mark.parametrize("key", ["train", "valid", "test_id"])
def test_load_dataset_rejects_empty_split(tmp_path, key):
    d = str(tmp_path / "ds")
    save_dataset(d, make_dataset())
    spath = os.path.join(d, "splits.json")
    _edit_json(spath, lambda s: s.__setitem__(key, []))
    with pytest.raises(ParseError, match=f"'{key}' is empty") as exc:
        load_dataset(d)
    assert exc.value.path == spath


@pytest.mark.parametrize("key", ["train", "valid", "test_id"])
def test_load_dataset_rejects_repeated_split_index(tmp_path, key):
    d = str(tmp_path / "ds")
    save_dataset(d, make_dataset())
    spath = os.path.join(d, "splits.json")
    with open(spath) as fh:
        repeated = json.load(fh)[key][-1]
    _edit_json(spath, lambda s: s[key].insert(0, repeated))
    with pytest.raises(ParseError, match=f"'{key}' repeats index {repeated}") as exc:
        load_dataset(d)
    assert exc.value.path == spath


def test_load_dataset_rejects_overlapping_splits(tmp_path):
    d = str(tmp_path / "ds")
    save_dataset(d, make_dataset())
    spath = os.path.join(d, "splits.json")
    _edit_json(spath, lambda s: s["valid"].append(s["train"][0]))
    with pytest.raises(ParseError, match="disjoint") as exc:
        load_dataset(d)
    assert exc.value.path == spath


@pytest.mark.parametrize("text, named", [
    ("", "no feature rows"),
    ("1.0\t2.0\nnan\t0.5\n", "non-finite feature value in row 2"),
    ("1.0\t1e999\n", "non-finite feature value in row 1"),
])
def test_load_graph_rejects_empty_or_non_finite_features(tmp_path, text, named):
    d = str(tmp_path / "g")
    save_graph(d, path_graph())
    with open(os.path.join(d, "features.tsv"), "w") as fh:
        fh.write(text)
    with pytest.raises(ParseError, match=named):
        load_graph(d)


def test_dataset_rejects_mixed_dims():
    g1 = Graph(2, np.zeros((2, 3)), [0, 0], [], 1)
    g2 = Graph(2, np.zeros((2, 4)), [0, 0], [], 1)
    with pytest.raises(ValueError, match="share D and C"):
        Dataset([g1], [g2], SplitSpec([0, 1], [], []), {})


def test_dataset_offsets_and_pooled_labels():
    ds = make_dataset()
    assert sum(g.n for g in ds.id_graphs) == 12
    union = disjoint_union(ds.id_graphs)
    assert union.n == 12
    assert np.array_equal(union.labels,
                          np.concatenate([ds.id_graphs[0].labels, ds.id_graphs[1].labels]))
    # the second graph's edges start at offset 6
    assert np.array_equal(union.edges, np.vstack([ds.id_graphs[0].edges,
                                                  ds.id_graphs[1].edges + 6]))
