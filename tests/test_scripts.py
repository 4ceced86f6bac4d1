"""Smoke test: each script under ``scripts/`` runs and prints something."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
    assert re.search(r"^greedy trees equal to the IDS tree: \d+ of \d+$", result.stdout, re.M)
