"""Nothing in the package stays that nothing uses: every public function is
referenced, and every public method called, from code outside the tests, and
every training setting can be given on the ``envgnn train`` command line."""

import argparse
import ast
import dataclasses
import glob
import os

import envgnn
from envgnn.cli import build_parser
from envgnn.config import TrainConfig

PACKAGE = os.path.dirname(envgnn.__file__)
REPO = os.path.dirname(os.path.dirname(PACKAGE))
CALLERS = [PACKAGE, os.path.join(REPO, "perfbench"), os.path.join(REPO, "demos")]

# names that only tests use, each kept for a reason the scan cannot see
ALLOWED = {
    "SparseAdj.densify": "the dense oracle that the sparse kernels are tested against",
    "kl_exact_rows": "the per-row KL that the epoch observer of ROADMAP item 4 will read",
}
# TrainConfig fields that no ``envgnn train`` flag sets, each kept for a reason;
# a field only a --config file can set is one no workload runs
FLAGLESS: dict[str, str] = {}
# decorators that make a method an attribute, which is read, not called
PROPERTIES = {"property", "cached_property"}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def public_surface() -> set[str]:
    """``name`` for each public module-level function of the package and
    ``Class.name`` for each public method; dunders and properties excluded."""
    names = set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                names |= {f"{node.name}.{f.name}" for f in node.body
                          if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                          and not any(isinstance(d, ast.Name) and d.id in PROPERTIES
                                      for d in f.decorator_list)}
    return names


def used_names() -> tuple[set[str], set[str]]:
    """Names read (variables, attributes, imports) and method names called,
    over every module of the package, ``perfbench/`` and ``demos/``."""
    read, called = set(), set()
    for root in CALLERS:
        for path in glob.glob(os.path.join(root, "*.py")):
            if os.path.basename(path).startswith("test_"):
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)
    return read, called


def test_every_public_function_and_method_has_a_non_test_caller():
    read, called = used_names()
    unused = {name for name in public_surface()
              if (name.split(".")[1] not in called if "." in name else name not in read)}
    assert unused == set(ALLOWED)


def test_the_scan_sees_the_package_and_its_callers():
    # a path that moved would let the scan pass on nothing
    surface = public_surface()
    assert {"train", "gcn_mixture", "SparseAdj.scatter_to_dst", "Rng.substream"} <= surface
    read, called = used_names()
    assert {"run_gradcheck", "main"} <= read and {"substream", "scatter_to_dst"} <= called


def test_every_train_setting_has_a_train_flag():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["train"]._actions}
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert fields - dests == set(FLAGLESS)
