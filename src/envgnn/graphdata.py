"""Graph container, text-format IO, normalized adjacency, and split construction.

File formats (all plain text, diffable):

* ``edges.tsv``    one ``u<TAB>v`` per line, 0-based integer ids, undirected
* ``features.tsv`` one node per line, D tab-separated decimal floats
* ``labels.tsv``   one integer class per line
* ``splits.json``  {"train": [...], "valid": [...], "test_id": [...],
                    "ood_groups": ["dir", ...]}; node lists nonempty, no
                    repeats; ``ood_groups`` is written, never read
* ``dataset.json`` {name, C, D, metric, id_graphs, ood_graphs, generator};
                    ``metric`` in ``metrics.METRICS``, roc_auc needs C == 2

The TSV files hold decimal numbers as ``np.loadtxt`` reads them: an integer
is an optional sign and ASCII digits within int64; a float is anything
numpy's float parser takes (``1.5``, ``-2e-3``, ``inf``, ``nan``), and must
then be finite. Fields are separated by single tabs and may carry
surrounding spaces. Blank lines are skipped and CRLF line ends are
accepted. There are no comments: a line starting with ``#`` is an error.
Underscores (``1_0``), non-ASCII digits and integers beyond int64 are
rejected, although Python's ``int()``/``float()`` accept them, and so is a
label line of spaces only or with a stray tab. An integer field with a
non-ASCII character is rejected unparsed: numpy's integer parser passes each
character to C ``isdigit``, which can crash past 8 bits. A rejected file raises
``ParseError`` naming the file and the physical (1-based, blank lines
counted) line.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .metrics import METRICS
from .rng import STREAM_SPLIT, Rng
from .sparse import SparseAdj

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """A data file failed validation; carries file name and, when known, line number."""

    def __init__(self, path: str, line: int | None, message: str):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


@dataclass
class Graph:
    """An undirected graph with node features and integer labels.

    Edges are stored canonically (u < v, each pair once); ``degrees``,
    computed from them, counts stored incidences per node. Isolated nodes are
    permitted.
    """

    n: int
    features: np.ndarray
    labels: np.ndarray
    edges: np.ndarray
    num_classes: int
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.edges = canonical_edges(self.n, self.edges)
        if self.features.shape[0] != self.n:
            raise ValueError("feature rows must equal node count")
        if self.labels.shape != (self.n,):
            raise ValueError("labels must be one integer per node")
        if self.n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")
        self.degrees = compute_degrees(self.n, self.edges)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def canonical_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """Drop self loops and duplicates; store each undirected pair as (u<v), sorted.

    Sorting the 1-D key ``u * n + v`` gives the lexicographic order of the pairs.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = np.unique((lo * n + hi)[lo != hi])
    return np.stack([key // n, key % n], axis=1)


def compute_degrees(n: int, edges: np.ndarray) -> np.ndarray:
    return np.bincount(edges[:, 0], minlength=n) + np.bincount(edges[:, 1], minlength=n)


@dataclass
class SplitSpec:
    """Disjoint train/valid/test_id node sets over the pooled ID nodes."""

    train: np.ndarray
    valid: np.ndarray
    test_id: np.ndarray

    def __post_init__(self):
        self.train = np.asarray(self.train, dtype=np.int64)
        self.valid = np.asarray(self.valid, dtype=np.int64)
        self.test_id = np.asarray(self.test_id, dtype=np.int64)
        parts = [set(self.train.tolist()), set(self.valid.tolist()), set(self.test_id.tolist())]
        total = sum(len(p) for p in parts)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise ValueError("train/valid/test_id must be pairwise disjoint")


@dataclass
class Dataset:
    """One or more ID graphs, OOD graphs, a split over pooled ID nodes, metadata."""

    id_graphs: list
    ood_graphs: list
    split: SplitSpec
    metadata: dict

    def __post_init__(self):
        dims = {g.num_features for g in self.id_graphs + self.ood_graphs}
        classes = {g.num_classes for g in self.id_graphs + self.ood_graphs}
        if len(dims) != 1 or len(classes) != 1:
            raise ValueError("all graphs in a dataset must share D and C")

    @property
    def num_classes(self) -> int:
        return self.id_graphs[0].num_classes

    @property
    def num_features(self) -> int:
        return self.id_graphs[0].num_features

    @property
    def metric(self) -> str:
        return self.metadata.get("metric", "accuracy")


# ---------------------------------------------------------------------------
# graph file IO
# ---------------------------------------------------------------------------


def _read_table(path: str, dtype, line_error, valid=lambda table: True) -> np.ndarray:
    """The TSV file ``path`` as a 2-D ``dtype`` array, read in one ``np.loadtxt`` pass.

    If that fails or ``valid(table)`` is false, raises a ``ParseError`` at the first
    non-blank line for which ``line_error(raw, values)`` returns a message; ``values``
    are the line's fields, each read alone by the same ``np.loadtxt`` (None if rejected).
    """
    read = functools.partial(np.loadtxt, dtype=dtype, delimiter="\t", comments=None, ndmin=2)
    ints = np.issubdtype(dtype, np.integer)  # parsed only if ASCII (module docstring)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # raised for input with no rows
        with contextlib.suppress(ValueError):
            with open(path, "rb") as fh:
                parsable = not ints or fh.read().isascii()
            if parsable and valid(table := read(path)):
                return table
        with open(path) as fh:
            for i, raw in enumerate(fh, start=1):
                raw, values = raw.rstrip("\n"), []
                for text in raw.split("\t") if raw else ():
                    try:
                        if ints and not text.isascii():
                            raise ValueError(text)
                        values.append(read([text])[0, 0])
                    except (ValueError, IndexError):  # IndexError: an empty field is no row
                        values.append(None)
                message = values and line_error(raw, values)
                if message:
                    raise ParseError(path, i, message)
    raise ParseError(path, None, "not a table, yet no line is at fault")


def load_graph(directory: str, num_classes: int | None = None) -> Graph:
    """Load and validate a graph directory (edges/features/labels TSVs)."""
    epath, fpath, lpath = (os.path.join(directory, f"{name}.tsv")
                           for name in ("edges", "features", "labels"))
    for p in (epath, fpath, lpath):
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing graph file: {p}")

    widths = []  # field count of each line scanned; the first line sets the width

    def feature_error(raw, values):
        widths.append(len(values))
        if widths[-1] != widths[0]:
            return f"ragged feature row: {widths[-1]} != {widths[0]}"
        return "non-numeric feature value" if None in values else None

    features = _read_table(fpath, np.float64, feature_error)
    if not len(features):
        raise ParseError(fpath, None, "no feature rows")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ParseError(fpath, None, f"non-finite feature value in row {np.argmin(finite) + 1}")
    n = features.shape[0]

    labels = _read_table(lpath, np.int64, lambda raw, v: f"non-integer label: {raw.strip()!r}"
                         if len(v) != 1 or v[0] is None else None, lambda t: t.shape[1] == 1)[:, 0]
    if len(labels) != n:
        raise ParseError(lpath, len(labels) + 1, f"expected {n} labels, got {len(labels)}")
    num_classes = int(labels.max()) + 1 if num_classes is None else num_classes
    if labels.min() < 0 or labels.max() >= num_classes:  # rescan to name the line
        _read_table(lpath, np.int64, lambda raw, v: None if 0 <= v[0] < num_classes
                    else f"label {v[0]} out of range [0, {num_classes})", lambda table: False)

    def edge_error(raw, ids):
        if len(ids) != 2:
            return f"expected 'u<TAB>v', got {raw!r}"
        for token, v in zip(raw.split("\t"), ids):
            if v is None:
                return f"non-integer node id: {token!r}"
        if not all(0 <= v < n for v in ids):
            return f"node id out of range [0, {n}): ({ids[0]}, {ids[1]})"
        return None

    edges = _read_table(epath, np.int64, edge_error, lambda table: not table.size or (
        table.shape[1] == 2 and table.min() >= 0 and table.max() < n))
    return Graph(n, features, labels, edges, num_classes)


def save_graph(directory: str, g: Graph) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "edges.tsv"), "w") as fh:
        for u, v in g.edges:
            fh.write(f"{u}\t{v}\n")
    with open(os.path.join(directory, "features.tsv"), "w") as fh:
        for row in g.features:
            fh.write("\t".join(repr(float(x)) for x in row) + "\n")
    with open(os.path.join(directory, "labels.tsv"), "w") as fh:
        for y in g.labels:
            fh.write(f"{y}\n")


# ---------------------------------------------------------------------------
# normalized adjacency
# ---------------------------------------------------------------------------


def build_norm_adj(g: Graph, add_self_loops: bool = False) -> SparseAdj:
    """Symmetric CSR with entries 1/sqrt(d_u d_v), the one sparse operand of
    both backbones: GAT attends over the self-looped structure and ignores
    the values.

    Degrees are taken after optional self-loop insertion; self-loop mode adds
    stored entries (u, u). Zero-degree nodes without self-loops get an empty
    row (their embeddings flow only through the model's self-transform path).
    """
    deg = g.degrees.astype(np.float64)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]]) if len(g.edges) else np.zeros(0, dtype=np.int64)
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]]) if len(g.edges) else np.zeros(0, dtype=np.int64)
    if add_self_loops:
        deg = deg + 1.0
        rows = np.concatenate([rows, np.arange(g.n)])
        cols = np.concatenate([cols, np.arange(g.n)])
    isolated = np.nonzero(deg == 0)[0]
    if len(isolated):
        log.info("build_norm_adj: %d zero-degree node(s) get empty rows", len(isolated))
    safe = np.where(deg > 0, deg, 1.0)
    vals = 1.0 / np.sqrt(safe[rows] * safe[cols]) if len(rows) else np.zeros(0)
    return SparseAdj.from_coo(g.n, rows, cols, vals)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


# the train/valid/test_id shares of the ID nodes in a generated split
ID_RATIOS = (0.5, 0.25, 0.25)


def split_random(universe, seed: int) -> SplitSpec:
    """Random disjoint train/valid/test split by ``ID_RATIOS``; floors,
    remainder to train. Refuses a split with an empty part, which no dataset
    loader accepts."""
    universe = np.asarray(universe, dtype=np.int64)
    n = universe.size
    n_valid = math.floor(ID_RATIOS[1] * n)
    n_test = math.floor(ID_RATIOS[2] * n)
    n_train = n - n_valid - n_test  # floor(train) + all remainder
    for part, size in (("train", n_train), ("valid", n_valid), ("test_id", n_test)):
        if size == 0:
            raise ValueError(f"a split of {n} ID nodes by ratios {ID_RATIOS} "
                             f"leaves '{part}' empty")
    perm = universe[Rng(seed).substream(STREAM_SPLIT).permutation(n)]
    train = np.sort(perm[:n_train])
    valid = np.sort(perm[n_train : n_train + n_valid])
    test = np.sort(perm[n_train + n_valid :])
    return SplitSpec(train, valid, test)


# ---------------------------------------------------------------------------
# dataset IO
# ---------------------------------------------------------------------------


def save_dataset(directory: str, ds: Dataset) -> None:
    os.makedirs(directory, exist_ok=True)
    id_dirs = [f"id_{i}" for i in range(len(ds.id_graphs))]
    ood_dirs = [f"ood_{i}" for i in range(len(ds.ood_graphs))]
    for sub, g in zip(id_dirs + ood_dirs, ds.id_graphs + ds.ood_graphs):
        save_graph(os.path.join(directory, sub), g)
    splits = {
        "train": ds.split.train.tolist(),
        "valid": ds.split.valid.tolist(),
        "test_id": ds.split.test_id.tolist(),
        "ood_groups": ood_dirs,
    }
    write_json(os.path.join(directory, "splits.json"), splits, indent=1)
    manifest = dict(ds.metadata)
    manifest.update(
        {
            "C": ds.num_classes,
            "D": ds.num_features,
            "id_graphs": id_dirs,
            "ood_graphs": ood_dirs,
        }
    )
    manifest["content_hash"] = _content_hash(directory, id_dirs + ood_dirs)
    write_json(os.path.join(directory, "dataset.json"), manifest, indent=1, sort_keys=True)


def _content_hash(directory: str, graph_dirs: list[str]) -> str:
    h = hashlib.sha256()
    files = ["splits.json"] + [
        os.path.join(d, f)
        for d in sorted(graph_dirs)
        for f in ("edges.tsv", "features.tsv", "labels.tsv")
    ]
    for rel in files:
        h.update(rel.encode())
        with open(os.path.join(directory, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_json(path: str, obj, **kwargs) -> None:
    """Write ``obj`` to ``path`` as strict JSON. NaN or an infinity raises
    ``ValueError`` before the file is opened, so no partial file is left."""
    text = json.dumps(obj, allow_nan=False, **kwargs)
    with open(path, "w") as fh:
        fh.write(text)


def read_json_object(path: str) -> dict:
    """The JSON object stored in ``path``; anything else is a ``ParseError``."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # malformed JSON or bytes that are not text
            raise ParseError(path, None, f"not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ParseError(path, None, f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _field(obj: dict, key: str, path: str, ok, what: str):
    if key not in obj:
        raise ParseError(path, None, f"missing field '{key}'")
    if not ok(obj[key]):
        raise ParseError(path, None,
                         f"field '{key}' must be {what}, got {type(obj[key]).__name__}")
    return obj[key]


def _is_list_of(v, kind: type) -> bool:
    # ``type(x) is int`` also rejects JSON booleans, which are ints in Python
    return isinstance(v, list) and all(type(x) is kind for x in v)


def load_dataset(directory: str) -> Dataset:
    mpath = os.path.join(directory, "dataset.json")
    if not os.path.exists(mpath):
        raise FileNotFoundError(f"missing dataset manifest: {mpath}")
    manifest = read_json_object(mpath)
    c = _field(manifest, "C", mpath, lambda v: type(v) is int and v >= 1, "a positive integer")
    id_dirs, ood_dirs = (
        _field(manifest, key, mpath, lambda v: _is_list_of(v, str), "a list of directory names")
        for key in ("id_graphs", "ood_graphs")
    )
    if not id_dirs:
        raise ParseError(mpath, None, "field 'id_graphs' is empty")
    metric = manifest.get("metric", "accuracy")
    if metric not in METRICS:
        raise ParseError(mpath, None, f"field 'metric' must be one of {METRICS}, got {metric!r}")
    if metric == "roc_auc" and c != 2:
        raise ParseError(mpath, None, f"metric 'roc_auc' needs C == 2, got C = {c}")
    id_graphs = [load_graph(os.path.join(directory, d), c) for d in id_dirs]
    ood_graphs = [load_graph(os.path.join(directory, d), c) for d in ood_dirs]
    spath = os.path.join(directory, "splits.json")
    splits = read_json_object(spath)
    n_id = sum(g.n for g in id_graphs)
    for key in ("train", "valid", "test_id"):
        idx = _field(splits, key, spath, lambda v: _is_list_of(v, int), "a list of node indices")
        if not idx:
            raise ParseError(spath, None, f"'{key}' is empty")
        if not (min(idx) >= 0 and max(idx) < n_id):
            bad = next(i for i in idx if not 0 <= i < n_id)
            raise ParseError(spath, None, f"'{key}' index {bad} out of range [0, {n_id})")
        if len(set(idx)) < len(idx):
            values, counts = np.unique(idx, return_counts=True)
            raise ParseError(spath, None, f"'{key}' repeats index {values[counts > 1][0]}")
    try:
        split = SplitSpec(splits["train"], splits["valid"], splits["test_id"])
    except ValueError as exc:
        raise ParseError(spath, None, str(exc)) from None
    return Dataset(id_graphs, ood_graphs, split, manifest)


def dataset_manifest_hash(directory: str) -> str:
    with open(os.path.join(directory, "dataset.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
