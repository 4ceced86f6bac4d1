"""The committed benchmark records are complete.

Each ``BENCH_<n>.json`` at the repository root records one change's
perfbench runs: the parent commit, the Python version and the core count,
and for every workload that ``BENCHMARK.json`` names, the seeds and the
change and parent medians of each of its end-to-end metrics.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(
    (path for path in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", path.name)),
    key=lambda path: int(path.stem.split("_")[1]),
)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_holds_the_medians_of_every_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record["parent_sha"], str) and record["parent_sha"]
    assert isinstance(record["python"], str) and record["python"]
    assert isinstance(record["nproc"], int) and record["nproc"] >= 1
    for workload in BENCHMARK["workloads"]:
        entry = record["workloads"][workload["name"]]
        assert entry["seeds"], workload["name"]
        for side in ("change", "parent"):
            for metric in BENCHMARK["end_to_end"]:
                value = entry[side][metric["name"]]
                assert is_number(value), (workload["name"], side, metric["name"], value)
