"""Smoke test: every script under demos/ runs to completion in a fresh
interpreter, with warnings turned into errors, and writes nothing to
stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(script):
    pythonpath = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])
    )
    env = dict(os.environ, PYTHONPATH=pythonpath)
    out = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=ROOT,
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
