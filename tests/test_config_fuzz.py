"""Property test: random ``envgnn train --config`` objects (wrong types,
out-of-range values, NaN and infinities, unknown keys) end in exit 0, 2
(usage) or 4 (numeric) with a one-line reason, never in a traceback; a
learning rate or weight decay out of range always ends in 2; a run that
succeeds writes only strict JSON. Valid draws hold only fields that
``TrainConfig`` has, so they train rather than end as unknown keys.

Sizes (layers, width, branches, epochs) are drawn small or non-positive:
the configuration has no upper bound on them, and a large one only makes a
run long or its arrays large.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from envgnn.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from envgnn.config import BACKBONES, METHODS, TrainConfig

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])
REASONS = ("usage error: ", "invalid input: ", "numerical abort: ", "numerical failure: ")
FLAGS = ("mean_pool_env", "deterministic_eval", "exact_kl")

GOOD = {
    "num_layers": st.integers(1, 2),
    "hidden": st.integers(1, 8),
    "num_branches": st.integers(1, 3),
    "tau": st.floats(0.05, 5.0),
    "reg_weight": st.floats(0.0, 5.0),
    "lr": st.floats(1e-4, 1.0),
    "weight_decay": st.floats(0.0, 0.01),
    "dropout": st.floats(0.0, 0.9),
    "epochs": st.integers(1, 2),
    "backbone": st.sampled_from(BACKBONES),
    "method": st.sampled_from(METHODS),
    "seed": st.integers(0, 2**40),
    **{flag: st.booleans() for flag in FLAGS},
}
FLOAT_FIELDS = {f.name for f in dataclasses.fields(TrainConfig) if f.type.startswith("float")}
json_scalars = (st.none() | st.booleans() | st.integers(-3, 0) | st.text(max_size=3)
                | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]))
# a value of the wrong type or out of range, or NaN or an infinity; ints stay
# small so that a size field never gets a large value
bad_values = json_scalars | st.lists(st.integers(0, 2), max_size=2)
# numbers out of a rate's range; each must be refused with exit 2
OUT_OF_RANGE = {
    "lr": lambda v: v <= 0,
    "weight_decay": lambda v: v < 0,
}


def test_valid_draws_cover_exactly_the_config_fields():
    # a drawn key TrainConfig lacks is refused as unknown, and the run never trains
    assert set(GOOD) == {f.name for f in dataclasses.fields(TrainConfig)}


def out_of_range(cfg):
    return any(isinstance(cfg.get(name), (int, float)) and not isinstance(cfg[name], bool)
               and below(cfg[name]) for name, below in OUT_OF_RANGE.items())


@st.composite
def configs(draw):
    cfg = draw(st.fixed_dictionaries({"epochs": GOOD["epochs"]},
                                     optional={k: v for k, v in GOOD.items() if k != "epochs"}))
    kind = draw(st.sampled_from(["valid", "bad-value", "unknown-key"]))
    if kind == "bad-value":
        name = draw(st.sampled_from(sorted(GOOD)))
        extra = st.just(10**400) if name in FLOAT_FIELDS else st.nothing()
        cfg[name] = draw(bad_values | extra)
    elif kind == "unknown-key":
        cfg[draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in GOOD))] = \
            draw(json_scalars)
    return cfg


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cfgfuzz") / "data")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["gen-data", "--kind", "planted", "--out", out, "--seed", "2",
                     "--n-per-domain", "12", "--classes", "2",
                     "--stable-dim", "2", "--spurious-dim", "2"]) == EXIT_OK
    return out


def strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


@FUZZ
@given(cfg=configs())
@example(cfg={"epochs": 1, "tau": math.nan})
@example(cfg={"epochs": 1, "lr": math.inf})
@example(cfg={"epochs": 0})
@example(cfg={"epochs": 1, "lr": 10**400})
@example(cfg={"epochs": 1, "seed": -1})
@example(cfg={"epochs": 2, "lr": 1e308})
@example(cfg={"epochs": 1, "lr": -0.01})
@example(cfg={"epochs": 1, "lr": 0})
@example(cfg={"epochs": 1, "weight_decay": -1})
def test_random_config_is_run_or_refused_cleanly(data, cfg):
    out_text, err_text = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, run = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "run")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err_text):
            rc = main(["train", "--data", data, "--config", path, "--out", run])
        err = err_text.getvalue()
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), (rc, err)
        assert "Traceback" not in err
        if out_of_range(cfg):
            assert rc == EXIT_USAGE, (rc, err)
        if rc != EXIT_OK:
            assert len([line for line in err.splitlines() if line.startswith(REASONS)]) == 1, err
            return
        for line in out_text.getvalue().splitlines():
            strict_loads(line)
        for name in os.listdir(run):
            with open(os.path.join(run, name)) as fh:
                strict_loads(fh.read())
