"""The narrative demos run to completion against the current public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from a scratch directory, so a demo that writes a file cannot dirty
    # the checkout; the package comes from this checkout's source tree
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert r.returncode == 0, r.stderr
