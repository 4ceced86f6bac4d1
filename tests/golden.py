"""Golden CLI output: sha256 digests of everything a fixed ``foon run`` writes.

    PYTHONPATH=src python -m tests.golden

writes ``tests/golden_cli.json`` from the checked-out program. The datasets
are the demo recipe and two seeded :mod:`tests.randgen` instances, each run
with ``--algorithm all --emit-dot --motion-rates --report``. The manifest
holds, per dataset, the digest of every written file, of standard output
with the time column cut off, of standard error with the dataset directory
replaced by ``<dataset>``, and of the report rows
without ``elapsed_seconds``; the exit code is kept as is. The test in
``tests/test_cli.py`` checks that the program still reproduces it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from foon.cli import main
from tests.conftest import write_demo_dataset
from tests.randgen import node_record, random_instance, write_instance

MANIFEST = Path(__file__).with_name("golden_cli.json")
RANDGEN_SEEDS = (7, 24)


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _randgen_dataset(seed: int, directory: Path) -> dict[str, Path]:
    # Every pool node is a goal, and the first is asked for twice. Each
    # motion gets the rate of its first unit, except the last label in
    # sorted order, which is left out so that the run warns about it.
    instance = random_instance(seed)
    goals = [node_record(node) for node in instance.pool]
    goals.append(goals[0])
    rates: dict[str, float] = {}
    for unit in instance.graph.units:
        rates.setdefault(unit.motion.label, unit.motion.success_rate)
    if rates:
        del rates[max(rates)]
    return write_instance(instance, directory, goals, rates)


def datasets(directory: Path) -> dict[str, dict[str, Path]]:
    """The golden datasets, written under ``directory``, by name."""
    named = {"demo": write_demo_dataset(directory / "demo")}
    for seed in RANDGEN_SEEDS:
        named[f"randgen-{seed}"] = _randgen_dataset(seed, directory / f"randgen-{seed}")
    return named


def run_digests(paths: dict[str, Path], directory: Path) -> dict:
    """Run the CLI on one dataset and digest what it wrote and printed."""
    out_dir, report = directory / "out", directory / "report.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(
            [
                "run",
                "--foon", str(paths["foon"]),
                "--kitchen", str(paths["kitchen"]),
                "--goals", str(paths["goals"]),
                "--motion-rates", str(paths["rates"]),
                "--algorithm", "all",
                "--emit-dot",
                "--report", str(report),
                "--out-dir", str(out_dir),
            ]
        )
    # time_ms is the last column, so cutting each line's last field leaves
    # every other column and its padding as printed.
    table = "\n".join(line.rsplit(None, 1)[0] for line in stdout.getvalue().splitlines())
    # Every key of each row but elapsed_seconds, whose value varies between runs.
    rows = [
        {key: value for key, value in row.items() if key != "elapsed_seconds"}
        for row in json.loads(report.read_text(encoding="utf-8"))["rows"]
    ]
    return {
        "exit_code": code,
        "stdout_without_time": _sha(table),
        "stderr": _sha(stderr.getvalue().replace(str(paths["foon"].parent), "<dataset>")),
        "report_rows": _sha(json.dumps(rows, sort_keys=True)),
        "files": {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())},
    }


def manifest(directory: Path) -> dict:
    """Digests of every golden dataset's run, by dataset name."""
    return {
        name: run_digests(paths, directory / name / "run")
        for name, paths in datasets(directory).items()
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = manifest(Path(tmp))
    MANIFEST.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}: {sum(len(d['files']) for d in data.values())} files")
