"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. The full-dataset bench criterion is optional and skipped
unless the FOON_BENCH_* environment variables point at a real dataset.
"""

import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from foon import (
    INPUT_COUNT,
    SUCCESS_RATE,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    SearchConfig,
    build_graph,
    gbfs_search,
    heuristic_select,
    ids_search,
    parse_foon_text,
    reachable_oracle,
    serialize_units,
    validate_tree,
)
from foon.cli import main
from tests.conftest import SAMPLE_UNIT_TEXT, layered_units, write_demo_dataset
from tests.randgen import random_instance


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def corpus():
    """500 seeded instances, <= 40 units and <= 25 keys, cycles included."""
    return [
        random_instance(random.Random(seed), acyclic=(seed % 3 == 0))
        for seed in range(500)
    ]


def test_c1_sample_unit_fidelity():
    with criterion(1, "unit-block fidelity"):
        start = time.perf_counter()
        units, diagnostics = parse_foon_text(SAMPLE_UNIT_TEXT)
        assert not diagnostics
        assert len(units) == 1
        u = units[0]
        assert len(u.inputs) == 4
        assert len(u.outputs) == 2
        assert u.motion.label == "scoop and pour"

        text = serialize_units(units)
        reparsed, rediag = parse_foon_text(text)
        assert not rediag
        assert [(p.inputs, p.motion.label, p.outputs) for p in reparsed] == [
            (u.inputs, u.motion.label, u.outputs)
        ]
        assert serialize_units(reparsed) == text
        assert time.perf_counter() - start < 1.0


def test_c2_ids_matches_reachability_oracle(corpus):
    with criterion(2, "IDS agrees with the forward-chaining oracle"):
        start = time.perf_counter()
        config = SearchConfig(max_depth=100)
        for instance in corpus:
            goal_key = instance.goal.key
            expected = reachable_oracle(instance.graph, instance.kitchen, goal_key)
            outcome = ids_search(instance.graph, instance.kitchen, instance.goal, config)
            assert outcome.solved == expected
            if outcome.solved:
                report = validate_tree(instance.kitchen, outcome.tree)
                assert report.ok, report.violations
        assert time.perf_counter() - start < 60.0


def test_c3_gbfs_soundness(corpus):
    with criterion(3, "GBFS successes are valid and oracle-reachable"):
        for instance in corpus:
            goal_key = instance.goal.key
            for heuristic in (SUCCESS_RATE, INPUT_COUNT):
                outcome = gbfs_search(
                    instance.graph,
                    instance.kitchen,
                    instance.goal,
                    SearchConfig(heuristic=heuristic),
                )
                if outcome.solved:
                    report = validate_tree(instance.kitchen, outcome.tree)
                    assert report.ok, report.violations
                    assert reachable_oracle(instance.graph, instance.kitchen, goal_key)


def test_c4_single_producer_agreement():
    with criterion(4, "all algorithms agree on single-producer acyclic graphs"):
        for seed in range(200):
            instance = random_instance(
                random.Random(10_000 + seed), acyclic=True, single_producer=True
            )
            outcomes = [
                ids_search(instance.graph, instance.kitchen, instance.goal),
                gbfs_search(
                    instance.graph,
                    instance.kitchen,
                    instance.goal,
                    SearchConfig(heuristic=SUCCESS_RATE),
                ),
                gbfs_search(
                    instance.graph,
                    instance.kitchen,
                    instance.goal,
                    SearchConfig(heuristic=INPUT_COUNT),
                ),
            ]
            solved = [o.solved for o in outcomes]
            assert len(set(solved)) == 1, f"seed {seed}: {solved}"
            if solved[0]:
                unit_sets = [
                    frozenset(u.signature for u in o.tree.steps) for o in outcomes
                ]
                assert len(set(unit_sets)) == 1, f"seed {seed}"


def test_c5_heuristic_selection_rules():
    with criterion(5, "heuristic selection is argmax/argmin with index tie-break"):
        rng = random.Random(42)
        for _ in range(1000):
            candidates = []
            for index in range(rng.randint(1, 8)):
                inputs = tuple(
                    ObjectNode(f"in {index} {j}") for j in range(rng.randint(1, 4))
                )
                candidates.append(
                    FunctionalUnit(
                        inputs=inputs,
                        motion=MotionNode("act", rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))),
                        outputs=(ObjectNode("out"),),
                        unit_index=index,
                    )
                )

            chosen = heuristic_select(candidates, SUCCESS_RATE)
            best = max(u.motion.success_rate for u in candidates)
            expected = next(u for u in candidates if u.motion.success_rate == best)
            assert chosen is expected

            chosen = heuristic_select(candidates, INPUT_COUNT)
            fewest = min(len(u.inputs) for u in candidates)
            expected = next(u for u in candidates if len(u.inputs) == fewest)
            assert chosen is expected


def test_c6_cli_determinism(tmp_path):
    with criterion(6, "repeated CLI runs write byte-identical files"):
        paths = write_demo_dataset(tmp_path / "dataset")
        outputs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            code = main(
                [
                    "run",
                    "--foon", str(paths["foon"]),
                    "--kitchen", str(paths["kitchen"]),
                    "--goals", str(paths["goals"]),
                    "--motion-rates", str(paths["rates"]),
                    "--out-dir", str(out_dir),
                    "--emit-dot",
                ]
            )
            assert code == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        assert outputs[0].keys() == outputs[1].keys()
        assert outputs[0] == outputs[1]


REFERENCE_COUNTS = {
    "greek salad": (26, 33, 26),
    "macaroni": (7, 7, 8),
    "ice": (1, 1, 1),
    "sweet potato": (3, 3, 3),
    "whipped cream": (10, 10, 14),
    "carrot salad": (34, 31, 34),
}


def test_c7_full_dataset_bench(tmp_path, capsys):
    """Optional smoke test against a full-scale FOON dataset.

    Point FOON_BENCH_FOON / FOON_BENCH_KITCHEN / FOON_BENCH_GOALS (and
    optionally FOON_BENCH_MOTION_RATES) at a real dataset containing the
    six reference goals. Solving all goals with all algorithms is required;
    matching the reference unit counts is reported but not required, since
    they depend on the dataset version and tie-breaking details.
    """
    names = ("FOON_BENCH_FOON", "FOON_BENCH_KITCHEN", "FOON_BENCH_GOALS")
    if not all(os.environ.get(n) for n in names):
        pytest.skip("FOON_BENCH_* environment variables not set")

    with criterion(7, "full-dataset bench solves the reference goals"):
        report_path = tmp_path / "report.json"
        argv = [
            "bench",
            "--foon", os.environ["FOON_BENCH_FOON"],
            "--kitchen", os.environ["FOON_BENCH_KITCHEN"],
            "--goals", os.environ["FOON_BENCH_GOALS"],
            "--out-dir", str(tmp_path / "out"),
            "--report", str(report_path),
        ]
        if os.environ.get("FOON_BENCH_MOTION_RATES"):
            argv += ["--motion-rates", os.environ["FOON_BENCH_MOTION_RATES"]]
        code = main(argv)
        print(capsys.readouterr().out)
        assert code == 0

        rows = json.loads(report_path.read_text())["rows"]
        counts = {
            (r["goal_label"], r["algorithm"]): r["functional_unit_count"] for r in rows
        }
        for goal, expected in REFERENCE_COUNTS.items():
            actual = tuple(
                counts.get((goal, algo)) for algo in ("ids", "gbfs_a", "gbfs_b")
            )
            verdict = "matches" if actual == expected else "differs from"
            print(f"[acceptance] {goal}: {actual} {verdict} reference {expected}")


def test_c8_performance_budget():
    with criterion(8, "5,000-unit parse under 2 s, retrieval under 250 ms"):
        units, base, goal = layered_units()
        assert len(units) >= 5000
        text = serialize_units(units)

        start = time.perf_counter()
        parsed, diagnostics = parse_foon_text(text)
        parse_elapsed = time.perf_counter() - start
        assert not diagnostics
        assert len(parsed) == len(units)
        print(f"\n[acceptance] parse: {parse_elapsed * 1000:.0f} ms for {len(parsed)} units")
        assert parse_elapsed < 2.0

        graph = build_graph(parsed)
        kitchen = Kitchen.from_nodes(base)
        for label, run in (
            ("ids", lambda: ids_search(graph, kitchen, goal)),
            ("gbfs", lambda: gbfs_search(graph, kitchen, goal)),
        ):
            start = time.perf_counter()
            outcome = run()
            elapsed = time.perf_counter() - start
            assert outcome.solved
            print(f"[acceptance] {label} retrieval: {elapsed * 1000:.0f} ms")
            assert elapsed < 0.25
