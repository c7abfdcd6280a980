"""Property tests: malformed dataset, split, TSV and checkpoint files fed
through ``envgnn eval`` end in a documented exit code (2 usage, 3 I/O,
5 compatibility) with a one-line reason, never in a traceback.

Every mutation is malformed by construction (candidates a loader would
accept are filtered out), so exit 0 is not an allowed outcome either.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from envgnn.cli import EXIT_COMPAT, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from envgnn.config import TrainConfig
from envgnn.metrics import METRICS

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])
REASONS = ("usage error: ", "I/O error: ", "invalid input: ", "incompatible checkpoint: ",
           "checkpoint incompatible with dataset")
GRAPHS = [f"{kind}_{i}" for kind in ("id", "ood") for i in range(3)]
CLASSES = 2


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A small planted dataset and a GAT canet checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    data, run = str(root / "data"), str(root / "run")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["gen-data", "--kind", "planted", "--out", data, "--seed", "1",
                     "--n-per-domain", "12", "--classes", str(CLASSES),
                     "--stable-dim", "2", "--spurious-dim", "2"]) == EXIT_OK
        assert main(["train", "--data", data, "--out", run, "--epochs", "1",
                     "--hidden", "4", "--branches", "2", "--layers", "1",
                     "--backbone", "gat"]) == EXIT_OK
    return data, os.path.join(run, "checkpoint.json")


def run_eval(data, checkpoint):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["eval", "--data", data, "--checkpoint", checkpoint, "--out", out])
    return rc, err.getvalue()


def assert_clean_failure(rc, err):
    assert rc in (EXIT_USAGE, EXIT_IO, EXIT_COMPAT), (rc, err)
    assert err.splitlines()[0].startswith(REASONS), err
    assert "Traceback" not in err


@contextlib.contextmanager
def dataset_copy(data):
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "data")
        shutil.copytree(data, copy)
        yield copy


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write(path, payload):
    mode = "wb" if isinstance(payload, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(payload if isinstance(payload, (bytes, str)) else json.dumps(payload))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def parses(kind, token, lo=None, hi=None):
    try:
        v = kind(token)
    except ValueError:
        return False
    if kind is float:
        return v - v == 0.0  # finite
    return lo <= v < hi


def is_json_object(raw: bytes):
    try:
        return isinstance(json.loads(raw), dict)
    except ValueError:
        return False


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=5,
)
# a file that is not a JSON object: arbitrary bytes, or JSON of another type
not_an_object = (st.binary(max_size=40).filter(lambda b: not is_json_object(b))
                 | json_values.filter(lambda v: not isinstance(v, dict)).map(json.dumps))
# one TSV cell; tab and line breaks would change the row structure instead
tokens = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                 max_size=6)


def differs(v, original):
    return type(v) is not type(original) or v != original


# ---------------------------------------------------------------------------
# dataset.json
# ---------------------------------------------------------------------------

manifest_edits = st.one_of(
    st.tuples(st.just("replace-file"), not_an_object),
    st.tuples(st.just("drop"), st.sampled_from(["C", "id_graphs", "ood_graphs"])),
    st.tuples(st.just("C"), json_values.filter(lambda v: differs(v, CLASSES))),
    st.tuples(st.sampled_from(["id_graphs", "ood_graphs"]),
              json_values.filter(lambda v: not (isinstance(v, list)
                                                and all(isinstance(d, str) for d in v)))),
    st.tuples(st.just("missing-graph"), st.sampled_from(["id_graphs", "ood_graphs"])),
    st.tuples(st.just("metric"), json_values.filter(lambda v: v not in METRICS)),
)


@FUZZ
@given(edit=manifest_edits)
def test_malformed_manifest_is_a_clean_failure(served, edit):
    data, checkpoint = served
    kind, arg = edit
    with dataset_copy(data) as d:
        path = os.path.join(d, "dataset.json")
        manifest = read_json(path)
        if kind == "replace-file":
            manifest = arg
        elif kind == "drop":
            del manifest[arg]
        elif kind == "missing-graph":
            manifest[arg].append("no_such_graph")
        else:
            manifest[kind] = arg
        write(path, manifest)
        assert_clean_failure(*run_eval(d, checkpoint))


# ---------------------------------------------------------------------------
# splits.json
# ---------------------------------------------------------------------------

SPLITS = ["train", "valid", "test_id"]
split_edits = st.one_of(
    st.tuples(st.just("replace-file"), not_an_object),
    st.tuples(st.just("drop"), st.sampled_from(SPLITS)),
    st.tuples(st.sampled_from(SPLITS),
              json_values.filter(lambda v: not (isinstance(v, list) and all(map(is_int, v))))),
    st.tuples(st.just("out-of-range"),
              st.tuples(st.sampled_from(SPLITS),
                        st.integers().filter(lambda i: not 0 <= i < 36))),
    st.tuples(st.just("overlap"), st.sampled_from(SPLITS[1:])),
    st.tuples(st.sampled_from(["empty", "repeat"]), st.sampled_from(SPLITS)),
)


@FUZZ
@given(edit=split_edits)
def test_malformed_splits_are_a_clean_failure(served, edit):
    data, checkpoint = served
    kind, arg = edit
    with dataset_copy(data) as d:
        path = os.path.join(d, "splits.json")
        splits = read_json(path)
        if kind == "replace-file":
            splits = arg
        elif kind == "drop":
            del splits[arg]
        elif kind == "out-of-range":  # the three ID graphs hold nodes 0..35
            splits[arg[0]].append(arg[1])
        elif kind == "overlap":
            splits[arg].append(splits["train"][0])
        elif kind == "empty":
            splits[arg] = []
        elif kind == "repeat":
            splits[arg].append(splits[arg][0])
        else:
            splits[kind] = arg
        write(path, splits)
        assert_clean_failure(*run_eval(d, checkpoint))


# ---------------------------------------------------------------------------
# TSV files
# ---------------------------------------------------------------------------

tsv_edits = st.one_of(
    st.tuples(st.just("features.tsv"), st.just("cell"),
              st.sampled_from(["nan", "-inf", "1e999"]) | tokens.filter(
                  lambda t: not parses(float, t))),
    st.tuples(st.just("features.tsv"), st.sampled_from(["drop-line", "drop-cell", "add-cell"]),
              st.just(None)),
    st.tuples(st.just("labels.tsv"), st.just("cell"),
              tokens.filter(lambda t: not parses(int, t, 0, CLASSES))),
    st.tuples(st.just("labels.tsv"), st.sampled_from(["drop-line", "add-line"]), st.just(None)),
    st.tuples(st.just("edges.tsv"), st.just("add-line"),
              st.lists(tokens, min_size=1, max_size=3).map("\t".join).filter(
                  lambda line: line and not (
                      line.count("\t") == 1
                      and all(parses(int, t, 0, 12) for t in line.split("\t"))))),
)


@FUZZ
@given(graph=st.sampled_from(GRAPHS), edit=tsv_edits, where=st.integers(0, 10**6))
def test_malformed_tsv_is_a_clean_failure(served, graph, edit, where):
    data, checkpoint = served
    name, kind, token = edit
    with dataset_copy(data) as d:
        path = os.path.join(d, graph, name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        i = where % len(lines) if lines else 0
        if kind == "cell":  # features and labels files have one row per node
            cells = lines[i].split("\t")
            cells[where % len(cells)] = token
            lines[i] = "\t".join(cells)
        elif kind == "drop-line":
            del lines[i]
        elif kind == "drop-cell":  # the planted features have four columns
            lines[i] = lines[i].rsplit("\t", 1)[0]
        elif kind == "add-cell":
            lines[i] += "\t0.5"
        elif name == "labels.tsv":
            lines.insert(i, "0")
        else:
            lines.insert(i, token)
        write(path, "".join(line + "\n" for line in lines))
        assert_clean_failure(*run_eval(d, checkpoint))


# ---------------------------------------------------------------------------
# checkpoint.json
# ---------------------------------------------------------------------------

FIELDS = ["config", "in_dim", "num_classes", "params"]
PARAMS = ["phi_in", "l1.w_d", "l1.w_a", "l1.b", "l1.w_env", "phi_out"]
FLOAT_FIELDS = sorted(f.name for f in dataclasses.fields(TrainConfig) if f.type.startswith("float"))
# written by json.dumps as the tokens NaN, Infinity and -Infinity
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
checkpoint_edits = st.one_of(
    st.tuples(st.just("replace-file"), not_an_object),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("drop"), st.sampled_from(FIELDS)),
    st.tuples(st.just("config"), json_values.filter(lambda v: not isinstance(v, dict))),
    st.tuples(st.just("config-extra"), st.text(min_size=1, max_size=6)),
    st.tuples(st.sampled_from(["in_dim", "num_classes"]), json_values),
    st.tuples(st.just("params"), json_values.filter(lambda v: not isinstance(v, dict))),
    st.tuples(st.just("drop-param"), st.sampled_from(PARAMS)),
    st.tuples(st.just("extra-param"), st.text(min_size=1, max_size=6)),
    st.tuples(st.just("record"), st.tuples(st.sampled_from(PARAMS), json_values)),
    st.tuples(st.sampled_from(["shape", "values"]), st.tuples(st.sampled_from(PARAMS),
                                                              json_values)),
    st.tuples(st.just("non-finite-value"),
              st.tuples(st.sampled_from(PARAMS), st.integers(0, 10**6), non_finite)),
    st.tuples(st.just("non-finite-config"), st.tuples(st.sampled_from(FLOAT_FIELDS), non_finite)),
)


@FUZZ
@given(edit=checkpoint_edits)
@example(edit=("in_dim", 0))
@example(edit=("num_classes", "2"))
@example(edit=("non-finite-value", ("l1.w_d", 3, math.nan)))
@example(edit=("non-finite-config", ("tau", math.inf)))
def test_malformed_checkpoint_is_a_clean_failure(served, edit):
    data, checkpoint = served
    kind, arg = edit
    with open(checkpoint, "rb") as fh:
        raw = fh.read()
    payload = json.loads(raw)
    if kind == "replace-file":
        payload = arg
    elif kind == "truncate":
        payload = raw[: int(arg * len(raw))]
    elif kind == "drop":
        del payload[arg]
    elif kind == "config-extra":
        if arg in payload["config"]:
            return  # a known field, not an unknown one
        payload["config"][arg] = 1
    elif kind in ("in_dim", "num_classes"):
        if not differs(arg, payload[kind]):
            return
        payload[kind] = arg
    elif kind == "drop-param":
        del payload["params"][arg]
    elif kind == "extra-param":
        if arg in payload["params"]:
            return
        payload["params"][arg] = payload["params"]["phi_in"]
    elif kind == "record":
        name, value = arg
        if isinstance(value, dict) and {"shape", "values"} <= set(value):
            return  # may be a well-formed record
        payload["params"][name] = value
    elif kind in ("shape", "values"):
        name, value = arg
        rec = payload["params"][name]
        if kind == "shape" and not differs(value, rec["shape"]):
            return
        if kind == "values" and isinstance(value, list) and len(value) == len(rec["values"]):
            return  # the right size: may be valid values
        rec[kind] = value
    elif kind == "non-finite-value":
        name, where, value = arg
        values = payload["params"][name]["values"]
        values[where % len(values)] = value
    elif kind == "non-finite-config":
        payload["config"][arg[0]] = arg[1]
    else:
        payload[kind] = arg
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        write(path, payload)
        assert_clean_failure(*run_eval(data, path))
