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


def test_render_foon_dot_reports_a_missing_file(tmp_path):
    missing = tmp_path / "missing.txt"
    result = run_script("render_foon_dot.py", str(missing))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot read {missing}: ")
    assert "Traceback" not in result.stderr


def test_render_foon_dot_reports_a_unit_without_outputs(tmp_path):
    foon = tmp_path / "recipes.txt"
    foon.write_text("//\nO ice\nS whole\nM crush\n//\n")
    result = run_script("render_foon_dot.py", str(foon))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: unit 0: no output nodes\n"
