"""Smoke tests: each script under ``scripts/`` runs and prints something;
the DOT renderer also holds its exit-code contract on malformed files."""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import event, given, settings

from foon import build_graph, export_dot, parse_foon_text, serialize_units
from tests.conftest import DEMO_FOON
from tests.malform import malformed
from tests.randgen import random_instance

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


def test_render_foon_dot_reports_a_parse_error_in_one_error_line(tmp_path):
    foon = tmp_path / "recipes.txt"
    foon.write_text("//\nO cup\nS empty\n//\n")
    result = run_script("render_foon_dot.py", str(foon))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"{foon}: line 2: error: block with no motion line",
        f"error: {foon}: FOON text did not parse",
    ]


def test_render_foon_dot_reports_a_unit_without_outputs(tmp_path):
    foon = tmp_path / "recipes.txt"
    foon.write_text("//\nO ice\nS whole\nM crush\n//\n")
    result = run_script("render_foon_dot.py", str(foon))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: unit 0: no output nodes\n"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RENDER_FOON_DOT = _load_script("render_foon_dot.py")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000))
def test_render_foon_dot_holds_the_exit_code_contract_on_malformed_files(data, seed):
    """Exit 0 or 1 and no traceback on a malformed randgen FOON file; on 1,
    exactly one ``error:`` line; on 0, the DOT of the file as parsed."""
    units = random_instance(seed, max_units=20, max_keys=10).graph.units
    kind, raw = data.draw(malformed(serialize_units(units).encode(), is_json=False))
    with tempfile.TemporaryDirectory() as tmp:
        foon = Path(tmp) / "recipes.txt"
        foon.write_bytes(raw)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = RENDER_FOON_DOT.main([str(foon)])
    event(f"{kind}: exit {code}")
    assert code in (0, 1), kind
    assert "Traceback" not in stderr.getvalue(), kind
    if code == 1:
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (kind, stderr.getvalue())
        assert stdout.getvalue() == "", kind
    else:
        parsed, _ = parse_foon_text(raw.decode("utf-8-sig"))
        assert stdout.getvalue() == export_dot(build_graph(parsed)), kind
