"""Smoke test: every script in ``demos/`` runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import envgnn

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(tmp_path, demo):
    # TMPDIR and the working directory point into tmp_path, so whatever a
    # demo writes is removed with it
    src = os.path.dirname(os.path.dirname(envgnn.__file__))
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
