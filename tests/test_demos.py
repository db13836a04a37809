"""Every demo under ``demos/`` runs to completion against ``src``."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_four_demos():
    assert [d.name for d in DEMOS] == [
        "bounds_tour.py", "cross_ratio_rewriting.py", "pgl2_obstructions.py",
        "tschirnhaus_reduction.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_cleanly(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr
    if demo.name == "cross_ratio_rewriting.py":
        lines = done.stdout.splitlines()
        assert not any("UNSOUND" in line for line in lines)
        assert sum("verified" in line for line in lines) == 3
