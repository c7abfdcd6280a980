"""Outside-in tracing of envgnn for the benchmark's traced run.

``instrument`` wraps the public functions of each layer module of the
package from the outside and puts every original back when it exits; the
package source is never edited. Every wrapped call records a span
``(name, start, end, parent span, run id)`` in memory. Spans are named
``<layer>.<function>``; tape primitives are ``autodiff.op.<op>`` and their
backward closures ``autodiff.op.<op>.bwd``. A training-mode ``model.forward``
is one training step, and the tracer records per step the grad-carrying tape
nodes, the stored-edge touches and the random values drawn.

Tracing adds a call layer to every primitive, so traced times are only
comparable with other traced times, as shares of the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "envgnn"
LAYERS = ("cli", "graphdata", "sparse", "model", "autodiff", "trainer", "optim",
          "metrics", "rng")

# Leaf constructors that every primitive reaches through ``_lift``: a span
# there would time the tracer more than the work.
SKIP = {("autodiff", "constant"), ("autodiff", "parameter")}
# Private, but its time is reported on its own: the per-epoch eval forward.
EXTRA = {("trainer", "_eval_forward")}
# Rng methods that draw; ``gumbel`` draws through ``open_uniform``.
DRAW_METHODS = ("uniform", "open_uniform", "normal", "permutation", "integers")


class Tracer:
    """Spans and per-step counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.arms: list[str] = []  # label of each run id
        self.steps: list[list[dict]] = []  # per run id, one record per training step
        self.draws = 0
        self._stack: list[int] = []

    @property
    def run_id(self) -> int:
        return len(self.arms) - 1

    def begin_run(self, arm: str):
        """Spans recorded from now on belong to a new run labelled ``arm``."""
        self.arms.append(arm)
        self.steps.append([])

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, self._stack[-1] if self._stack else -1,
                               self.run_id)

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "names": names,
            "arms": self.arms,
            "steps": self.steps,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def tape_size(root) -> int:
    """Nodes the backward pass visits from ``root``: itself and every
    grad-carrying ancestor, each once."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop().parents:
            if p.needs_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _op(tracer: Tracer, op: str, fn, tensor_type):
    """A primitive: time the forward call and wrap the backward closure it
    attaches to the new node. A primitive that hands back one of its inputs
    (dropout in eval mode) created no node."""
    name = f"autodiff.op.{op}"
    bwd_name = name + ".bwd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if isinstance(out, tensor_type) and all(out is not a for a in args):
            closure = out._backward
            if closure is not None and not getattr(closure, "perfbench_traced", False):
                def bwd(g):
                    return tracer.call(bwd_name, closure, (g,), {})

                bwd.perfbench_traced = True
                out._backward = bwd
        return out

    return wrapper


def _forward(tracer: Tracer, fn, edge_counter):
    """``model.forward``: a training-mode call is one step; eval-mode calls
    get their own span name."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not sig.bind(*args, **kwargs).arguments["training"]:
            return tracer.call("model.forward_eval", fn, args, kwargs)
        edges0, draws0 = edge_counter.count, tracer.draws
        out = tracer.call("model.forward", fn, args, kwargs)
        tracer.steps[tracer.run_id].append({
            "edge_touches": edge_counter.count - edges0,
            "draws": tracer.draws - draws0,
        })
        return out

    return wrapper


def _backward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(loss, params):
        steps = tracer.steps[tracer.run_id]
        if steps:
            steps[-1]["nodes"] = tape_size(loss)
        return tracer.call("autodiff.backward", fn, (loss, params), {})

    return wrapper


def _draw(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        out = fn(self, *args, **kwargs)
        tracer.draws += int(np.size(out))
        return out

    return wrapper


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def _layer_modules() -> dict:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def snapshot() -> dict:
    """Every attribute of every loaded package module and of every class
    they define, by identity; ``instrument`` must leave it unchanged."""
    state = {}
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            state[(mod.__name__, attr)] = val
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    state[(mod.__name__, attr, cattr)] = cval
    return state


def _wrappers(tracer: Tracer, mods: dict) -> dict:
    """Original module-level function -> its wrapper."""
    ad, model = mods["autodiff"], mods["model"]
    out = {}
    for layer, mod in mods.items():
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if (attr.startswith("_") and (layer, attr) not in EXTRA) or (layer, attr) in SKIP:
                continue
            if mod is ad and attr == "backward":
                out[fn] = _backward(tracer, fn)
            elif mod is ad:
                out[fn] = _op(tracer, attr, fn, ad.Tensor)
            elif mod is model and attr == "forward":
                out[fn] = _forward(tracer, fn, ad.edge_touches)
            else:
                out[fn] = _span(tracer, f"{layer}.{attr}", fn)
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the package's layer functions through ``tracer`` inside the block.

    A function is rebound in every package module that imported it by name,
    so ``from .model import forward`` call sites are traced too.
    """
    mods = _layer_modules()
    patches = []  # (owner, attribute, original), undone in reverse

    def patch(owner, attr, new):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        wrappers = _wrappers(tracer, mods)
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    patch(mod, attr, wrappers[val])
        for layer, mod in mods.items():
            for cls in list(vars(mod).values()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for attr, raw in list(vars(cls).items()):
                    if isinstance(raw, classmethod) and not attr.startswith("_"):
                        patch(cls, attr, classmethod(_span(tracer, f"{layer}.{attr}",
                                                           raw.__func__)))
        rng_cls = mods["rng"].Rng
        for attr in DRAW_METHODS:
            patch(rng_cls, attr, _draw(tracer, vars(rng_cls)[attr]))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children never overlap each other."""
    covered = [0.0] * len(spans)
    for _name, t0, t1, parent, _run in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def aggregate(spans: list, arms: list[str]) -> dict:
    """(arm, span name) -> [calls, inclusive seconds, self seconds]."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        name, t0, t1, _parent, run = span
        rec = out.setdefault((arms[run] if run >= 0 else "", name), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += t1 - t0
        rec[2] += own
    return out
