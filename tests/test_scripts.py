"""Smoke tests: each script under ``scripts/`` runs and prints something."""

import os
import subprocess
import sys
from pathlib import Path

from tests.conftest import DEMO_FOON

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_compare_search_algorithms_runs():
    result = run_script("compare_search_algorithms.py", "--instances", "20")
    assert result.returncode == 0, result.stderr
    assert "ids" in result.stdout and "gbfs_b" in result.stdout


def test_render_foon_dot_runs(tmp_path):
    foon = tmp_path / "recipes.txt"
    foon.write_text(DEMO_FOON)
    result = run_script("render_foon_dot.py", str(foon))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("digraph")
