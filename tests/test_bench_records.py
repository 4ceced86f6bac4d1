"""The committed benchmark records are complete.

Each ``BENCH_<n>.json`` at the repository root records one change's
perfbench runs: the parent commit, the Python version and the core count,
and for every workload that ``BENCHMARK.json`` names, the seeds and the
change and parent medians of each of its end-to-end metrics. A record whose
claim names a gain shows it in those medians.
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


def claims_a_gain(path):
    claim = json.loads(path.read_text(encoding="utf-8")).get("claim")
    return claim is not None and not claim.startswith("none")


CLAIMING = [path for path in RECORDS if claims_a_gain(path)]


@pytest.mark.parametrize("path", CLAIMING, ids=[path.name for path in CLAIMING])
def test_a_claimed_gain_shows_in_the_medians(path):
    """A claim reads ``<workload> <metric> improves ...``: both are named in
    ``BENCHMARK.json``, and the change median beats the parent median in the
    metric's ``better`` direction. Records that claim nothing (``none: ...``,
    or no claim at all) are not collected here."""
    record = json.loads(path.read_text(encoding="utf-8"))
    match = re.match(r"(\S+) (\S+) improves\b", record["claim"])
    assert match, record["claim"]
    workload, metric = match.groups()
    assert workload in {entry["name"] for entry in BENCHMARK["workloads"]}, workload
    better = {entry["name"]: entry["better"] for entry in BENCHMARK["end_to_end"]}
    assert metric in better, metric
    entry = record["workloads"][workload]
    change, parent = entry["change"][metric], entry["parent"][metric]
    assert change < parent if better[metric] == "lower" else change > parent, (change, parent)
