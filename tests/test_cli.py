import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from foon import (
    ALGORITHMS,
    SOLVED,
    FoonWarning,
    FunctionalUnit,
    Kitchen,
    ObjectNode,
    TaskTree,
    build_graph,
    export_dot,
    ids_search,
    parse_foon_text,
    parse_goals,
    parse_kitchen,
    run_algorithm,
    serialize_task_tree,
    serialize_units,
    validate_tree,
)
from foon.cli import _assign_slugs, main, slugify
from tests import golden
from tests.conftest import DEMO_FOON, DEMO_KITCHEN, LIVE_INDEX_SLEEP, write_demo_dataset
from tests.malform import malformed
from tests.randgen import Instance, node_record, random_instance, write_instance


# Both start from the demo kitchen's pitcher.
DOTTED_FOON = """\
//
O pitcher
S contains {water}
M measure
O 1.5 cup
S full
//
"""
DOTTED_GOALS = '[{"label": "1.5 cup", "states": ["full"]}]'
CHAIN_GOALS = '[{"label": "item 400", "states": ["raw"]}]'
# The demo goal and the crushed ice on the way to it.
TWO_GOALS = (
    '[{"label": "drinking glass", "states": ["contains {ice,water}"]},'
    ' {"label": "ice", "states": ["crushed", "frozen", "in [bowl]"]}]'
)
# Two goals labelled "b" and one labelled "b 2", all made from the pitcher.
SLUG_FOON = "".join(
    f"//\nO pitcher\nS contains {{water}}\nM pour\nO {label}\nS {state}\n"
    for label, state in (("b", "full"), ("b", "cold"), ("b 2", "full"))
) + "//\n"
SLUG_GOALS = (
    '[{"label": "b", "states": ["full"]}, {"label": "b", "states": ["cold"]},'
    ' {"label": "b 2", "states": ["full"]}]'
)
# A salt shaker and a soup that carry ingredients but have no states.
SALT_FOON = """\
//
O salt shaker
S {salt}
O pot
S contains {water}
M season
O soup
S {salt,water}
//
"""
SALT_KITCHEN = (
    '[{"label": "salt shaker", "ingredients": ["salt"]},'
    ' {"label": "pot", "states": ["contains {water}"]}]'
)
SALT_GOALS = '[{"label": "soup", "ingredients": ["salt", "water"]}]'
# A goal whose label is longer than any file name may be, then "tea".
LONG_LABEL = "x" * 300
LONG_FOON = "".join(
    f"//\nO pitcher\nS contains {{water}}\nM pour\nO {label}\nS full\n"
    for label in (LONG_LABEL, "tea")
) + "//\n"
LONG_GOALS = (
    f'[{{"label": "{LONG_LABEL}", "states": ["full"]}},'
    ' {"label": "tea", "states": ["full"]}]'
)
# JSON can escape a lone surrogate, which strict UTF-8 cannot encode: the
# overlong label's slug hashes it all the same.
SURROGATE_GOALS = '[{"label": "' + "x" * 249 + '\\ud800"}]'


def _chain_foon(length):
    """A chain of ``length`` units: pitcher -> item 1 -> ... -> item ``length``."""
    lines = ["//", "O pitcher", "S contains {water}", "M pour", "O item 1", "S raw", "//"]
    for i in range(1, length):
        lines += [f"O item {i}", "S raw", "M cook", f"O item {i + 1}", "S raw", "//"]
    return "\n".join(lines) + "\n"


def run_cli(paths, out_dir, *extra, command="run"):
    return main(
        [
            command,
            "--foon", str(paths["foon"]),
            "--kitchen", str(paths["kitchen"]),
            "--goals", str(paths["goals"]),
            "--out-dir", str(out_dir),
            *extra,
        ]
    )


@pytest.fixture
def demo_graph_and_kitchen():
    units, diagnostics = parse_foon_text(DEMO_FOON)
    assert not diagnostics
    return build_graph(units), parse_kitchen(DEMO_KITCHEN)


class TestRun:
    def test_solves_demo_goal_with_all_algorithms(
        self, demo_dataset, tmp_path, capsys, demo_graph_and_kitchen
    ):
        out_dir = tmp_path / "out"
        code = run_cli(demo_dataset, out_dir, "--emit-dot")
        assert code == 0

        graph, kitchen = demo_graph_and_kitchen
        for algorithm in ("ids", "gbfs_a", "gbfs_b"):
            tree_path = out_dir / f"drinking_glass_{algorithm}.txt"
            units, diagnostics = parse_foon_text(tree_path.read_text())
            assert not diagnostics
            assert [u.motion.label for u in units] == ["crush", "scoop and pour", "pour"]
            rebuilt = build_graph(units)
            # the written tree's goal is the last unit's first output
            tree = TaskTree(
                steps=rebuilt.units, goal=rebuilt.units[-1].outputs[0].key
            )
            assert validate_tree(kitchen, tree).ok
            assert (out_dir / f"drinking_glass_{algorithm}.dot").exists()

        table = capsys.readouterr().out
        assert "drinking glass" in table
        assert "solved" in table

    def test_report_counts_match_written_files(self, demo_dataset, tmp_path):
        out_dir = tmp_path / "out"
        report_path = tmp_path / "report.json"
        code = run_cli(demo_dataset, out_dir, "--report", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["rows"]) == 3
        for row in report["rows"]:
            assert row["status"] == "solved"
            tree_path = out_dir / f"drinking_glass_{row['algorithm']}.txt"
            units, _ = parse_foon_text(tree_path.read_text())
            assert row["functional_unit_count"] == len(units)

    def test_report_rows_are_their_fields_in_declaration_order(self, tmp_path):
        goals = (
            '[{"label": "drinking glass", "states": ["contains {ice,water}"]},'
            ' {"label": "unicorn stew"}]'
        )
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=goals)
        path = tmp_path / "report.json"
        assert run_cli(paths, tmp_path / "out", "--report", str(path)) == 2
        text = path.read_text(encoding="utf-8")
        rows = json.loads(text)["rows"]
        names = [
            "goal_label", "algorithm", "status", "functional_unit_count", "nodes_expanded",
            "elapsed_seconds", "error", "reason", "missing_key", "final_depth_bound",
        ]
        assert [list(row) for row in rows] == [names] * (2 * len(ALGORITHMS))
        assert [row["status"] for row in rows] == ["solved"] * 3 + ["unsolvable"] * 3
        assert text == json.dumps({"rows": rows}, indent=2) + "\n"

    def test_single_algorithm_flag(self, demo_dataset, tmp_path):
        out_dir = tmp_path / "out"
        code = run_cli(demo_dataset, out_dir, "--algorithm", "gbfs-a")
        assert code == 0
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == ["drinking_glass_gbfs_a.txt"]

    def test_gbfs_only_run_never_builds_the_live_index(
        self, demo_dataset, tmp_path, slow_live_index
    ):
        assert run_cli(demo_dataset, tmp_path / "out", "--algorithm", "gbfs-a") == 0
        assert slow_live_index == []

    def test_no_row_pays_for_the_live_index(self, demo_dataset, tmp_path, slow_live_index):
        # IDS builds the per-kitchen index off its clock, so no row's
        # elapsed_seconds holds the slow first build.
        report = tmp_path / "report.json"
        assert run_cli(demo_dataset, tmp_path / "out", "--report", str(report)) == 0
        rows = json.loads(report.read_text())["rows"]
        assert slow_live_index and [row["algorithm"] for row in rows] == list(ALGORITHMS)
        assert all(row["elapsed_seconds"] < LIVE_INDEX_SLEEP for row in rows), rows

    def test_motion_rates_flag_accepted(self, demo_dataset, tmp_path):
        code = run_cli(
            demo_dataset, tmp_path / "out", "--motion-rates", str(demo_dataset["rates"])
        )
        assert code == 0

    def test_repeat_runs_are_byte_identical(self, demo_dataset, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli(demo_dataset, first, "--emit-dot") == 0
        assert run_cli(demo_dataset, second, "--emit-dot") == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_algorithms_with_equal_unit_sets_write_equal_files(self, layered, tmp_path):
        # On the layered fixture the three algorithms find the same units
        # for every goal, each in its own order.
        graph, kitchen, goals = layered
        instance = Instance(graph, kitchen, goals[0], goals)
        records = [node_record(goal) for goal in goals]
        paths = write_instance(instance, tmp_path / "dataset", records, {})
        out_dir = tmp_path / "out"
        assert run_cli(paths, out_dir, "--emit-dot") == 0
        equal_sets = 0
        for slug in _assign_slugs(goals):
            written = {
                name: [(out_dir / f"{slug}_{name}{ext}").read_bytes() for ext in (".txt", ".dot")]
                for name in ALGORITHMS
            }
            units = {
                name: {u.signature for u in parse_foon_text(files[0].decode())[0]}
                for name, files in written.items()
            }
            for first, second in itertools.combinations(ALGORITHMS, 2):
                if units[first] == units[second]:
                    equal_sets += 1
                    assert written[first] == written[second], (slug, first, second)
        assert equal_sets == 3 * len(goals)

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Seed 24 has nodes with several states, nodes with ingredients and
        # keys with several producers; every pool node is a goal.
        instance = random_instance(24)
        assert any(len(node.states) > 1 for node in instance.pool)
        assert any(node.ingredients for node in instance.pool)
        produced = [n.key for unit in instance.graph.units for n in unit.outputs]
        assert len(produced) > len(set(produced))
        goals = [node_record(node) for node in instance.pool]
        paths = write_instance(instance, tmp_path / "dataset", goals, {"mix": 0.5})
        runs = []
        for hash_seed in ("0", "1"):
            out_dir, report = tmp_path / f"out-{hash_seed}", tmp_path / f"report-{hash_seed}.json"
            result = subprocess.run(
                [
                    sys.executable, "-m", "foon.cli", "bench",
                    "--foon", str(paths["foon"]),
                    "--kitchen", str(paths["kitchen"]),
                    "--goals", str(paths["goals"]),
                    "--motion-rates", str(paths["rates"]),
                    "--out-dir", str(out_dir),
                    "--emit-dot",
                    "--report", str(report),
                ],
                env=_process_env(PYTHONHASHSEED=hash_seed),
                capture_output=True,
                text=True,
                timeout=60,
            )
            # time_ms ends each line of the first table; the pivot has none.
            table, pivot = result.stdout.split("\n\n")
            rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
            for row in rows:
                del row["elapsed_seconds"]
            runs.append(
                (
                    result.returncode,
                    [line.rsplit(None, 1)[0] for line in table.splitlines()],
                    pivot,
                    result.stderr,
                    rows,
                    {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())},
                )
            )
        assert sum(name.endswith(".dot") for name in runs[0][-1]) > 20
        assert runs[0] == runs[1]

    def test_jobs_flag_does_not_change_outputs(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=TWO_GOALS)
        serial, threaded = tmp_path / "serial", tmp_path / "threaded"
        assert run_cli(paths, serial, "--jobs", "1") == 0
        assert run_cli(paths, threaded, "--jobs", "2") == 0
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in threaded.iterdir())
        for name in names:
            assert (serial / name).read_bytes() == (threaded / name).read_bytes()

    def test_unsolvable_goal_exits_two_and_writes_no_file(self, tmp_path, capsys):
        goals = '[{"label": "unicorn stew"}]'
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=goals)
        out_dir = tmp_path / "out"
        code = run_cli(paths, out_dir)
        assert code == 2
        assert list(out_dir.iterdir()) == []
        assert "unsolvable" in capsys.readouterr().out

    def test_empty_goals_exit_zero(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text="[]")
        assert run_cli(paths, tmp_path / "out") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("goal")

    def test_goal_label_collision_gets_suffixed_slug(self, tmp_path):
        goals = (
            '[{"label": "ice", "states": ["crushed", "frozen", "in [bowl]"]},'
            ' {"label": "ice", "states": ["crushed", "frozen", "in [drinking glass]"]}]'
        )
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=goals)
        out_dir = tmp_path / "out"
        code = run_cli(paths, out_dir, "--algorithm", "ids")
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["ice_2_ids.txt", "ice_ids.txt"]

    def test_suffixed_slug_skips_a_slug_already_given_out(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=SLUG_GOALS)
        paths["foon"].write_text(SLUG_FOON)
        out_dir = tmp_path / "out"
        assert run_cli(paths, out_dir) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == sorted(
            f"{stem}_{algorithm}.txt"
            for stem in ("b", "b_2", "b_2_2")
            for algorithm in ("ids", "gbfs_a", "gbfs_b")
        )
        assert "S cold" in (out_dir / "b_2_ids.txt").read_text()

    def test_stateless_ingredients_survive_the_written_tree(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=SALT_GOALS)
        paths["foon"].write_text(SALT_FOON)
        paths["kitchen"].write_text(SALT_KITCHEN)
        out_dir = tmp_path / "out"
        assert run_cli(paths, out_dir, "--algorithm", "ids") == 0
        units, diagnostics = parse_foon_text((out_dir / "soup_ids.txt").read_text())
        assert not diagnostics
        kitchen = parse_kitchen(SALT_KITCHEN)
        goal = parse_goals(SALT_GOALS)[0]
        assert validate_tree(kitchen, TaskTree(steps=tuple(units), goal=goal.key)).ok

    def test_dotted_goal_label_writes_one_file_per_algorithm(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=DOTTED_GOALS)
        paths["foon"].write_text(DOTTED_FOON)
        out_dir = tmp_path / "out"
        assert run_cli(paths, out_dir, "--emit-dot") == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == sorted(
            f"1.5_cup_{algorithm}.{ext}"
            for algorithm in ("ids", "gbfs_a", "gbfs_b")
            for ext in ("txt", "dot")
        )

    def test_chain_deeper_than_the_recursion_limit_is_solved(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=CHAIN_GOALS)
        paths["foon"].write_text(_chain_foon(400))
        out_dir = tmp_path / "out"
        assert run_cli(paths, out_dir, "--max-depth", "405") == 0
        assert "Traceback" not in capsys.readouterr().err
        units, diagnostics = parse_foon_text((out_dir / "item_400_ids.txt").read_text())
        assert not diagnostics
        assert len(units) == 400
        kitchen = parse_kitchen(paths["kitchen"].read_text())
        goal = parse_goals(CHAIN_GOALS)[0]
        assert validate_tree(kitchen, TaskTree(steps=tuple(units), goal=goal.key)).ok

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one_exits_one_without_traceback(
        self, demo_dataset, tmp_path, capsys, depth
    ):
        assert run_cli(demo_dataset, tmp_path / "out", "--max-depth", depth) == 1
        err = capsys.readouterr().err
        assert "error: --max-depth must be at least 1" in err
        assert "Traceback" not in err

    def test_overlong_goal_label_gets_a_capped_slug(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=LONG_GOALS)
        paths["foon"].write_text(LONG_FOON)
        out_dir = tmp_path / "out"
        assert run_cli(paths, out_dir, "--emit-dot") == 0
        names = [p.name for p in out_dir.iterdir()]
        assert len(names) == 12
        assert all(len(name.encode()) <= 255 for name in names)
        assert sum(name.startswith("x" * 191 + "_") for name in names) == 6
        assert {"tea_ids.txt", "tea_gbfs_a.dot", "tea_gbfs_b.txt"} <= set(names)
        # Labels alike in their first 200 characters keep distinct slugs.
        slugs = {slugify(LONG_LABEL + end) for end in ("a", "b")}
        assert len(slugs) == 2 and {len(s) for s in slugs} == {200}

    def test_overlong_goal_label_with_a_lone_surrogate_exits_two(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=SURROGATE_GOALS)
        report = tmp_path / "report.json"
        assert run_cli(paths, tmp_path / "out", "--report", str(report)) == 2
        assert "Traceback" not in capsys.readouterr().err
        rows = json.loads(report.read_text())["rows"]
        assert [row["algorithm"] for row in rows] == list(ALGORITHMS)
        assert {row["goal_label"] for row in rows} == {"x" * 249 + "\ud800"}

    def test_unwritable_tree_file_exits_one_without_traceback(self, tmp_path, capsys):
        # A directory where the IDS tree file should go makes its write fail.
        # The failure is that row's error: every other pair is still
        # searched and written, and the table and report still appear.
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=TWO_GOALS)
        out_dir = tmp_path / "out"
        (out_dir / "drinking_glass_ids.txt").mkdir(parents=True)
        report = tmp_path / "report.json"
        assert run_cli(paths, out_dir, "--report", str(report)) == 1
        out, err = capsys.readouterr()
        assert "error: cannot write" in err
        assert "Traceback" not in err
        assert out.startswith("goal")
        ids_line = next(
            line for line in out.splitlines() if line.startswith("drinking glass  ids")
        )
        assert ids_line.split()[3] == "error"
        names = {p.name for p in out_dir.iterdir()}
        assert {"ice_ids.txt", "ice_gbfs_a.txt", "ice_gbfs_b.txt"} <= names
        assert {"drinking_glass_gbfs_a.txt", "drinking_glass_gbfs_b.txt"} <= names
        rows = json.loads(report.read_text())["rows"]
        assert len(rows) == 2 * 3
        assert [row["error"] for row in rows] == [
            f"cannot write {out_dir / 'drinking_glass_ids.txt'}: Is a directory",
            *[None] * 5,
        ]

    def test_out_dir_that_is_a_file_exits_one_without_traceback(
        self, demo_dataset, tmp_path, capsys
    ):
        out_file = tmp_path / "out"
        out_file.write_text("not a directory")
        assert run_cli(demo_dataset, out_file) == 1
        err = capsys.readouterr().err
        assert "error: cannot write" in err
        assert "Traceback" not in err

    def test_unwritable_report_exits_one(self, demo_dataset, tmp_path, capsys):
        report = tmp_path / "missing" / "report.json"
        assert run_cli(demo_dataset, tmp_path / "out", "--report", str(report)) == 1
        assert "error: cannot write" in capsys.readouterr().err

    def test_malformed_foon_exits_one(self, demo_dataset, tmp_path, capsys):
        demo_dataset["foon"].write_text("//\nO cup\nS empty\n//\n")
        assert run_cli(demo_dataset, tmp_path / "out") == 1
        assert "no motion line" in capsys.readouterr().err

    def test_malformed_kitchen_exits_one(self, demo_dataset, tmp_path, capsys):
        demo_dataset["kitchen"].write_text('[{"states": []}]')
        assert run_cli(demo_dataset, tmp_path / "out") == 1
        assert "label" in capsys.readouterr().err

    def test_missing_file_exits_one(self, demo_dataset, tmp_path, capsys):
        demo_dataset["foon"].unlink()
        assert run_cli(demo_dataset, tmp_path / "out") == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file_exits_one(self, demo_dataset, tmp_path, capsys):
        demo_dataset["foon"].write_bytes(b"//\nO caf\xff\nM pour\nO x\n//\n")
        assert run_cli(demo_dataset, tmp_path / "out") == 1
        assert "cannot read" in capsys.readouterr().err


class TestInputErrors:
    """Every input error names its file; a leading UTF-8 BOM is not text."""

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("kitchen", '[{"states": []}]', 'kitchen entry 0: missing "label"'),
            ("goals", "{}", "goals: expected a list of object records"),
            ("rates", "not json", "motion rates: not valid JSON: "),
            ("rates", '{"pour": 2}', "motion rates: motion 'pour': success rate 2"),
            ("foon", "//\nO cup\nM rinse\n//\n", "unit 0: no output nodes"),
        ],
        ids=["kitchen", "goals", "rates-json", "rates-range", "foon"],
    )
    def test_error_names_its_file(self, demo_dataset, tmp_path, capsys, name, text, message):
        demo_dataset[name].write_text(text, encoding="utf-8")
        rates = ("--motion-rates", str(demo_dataset["rates"]))
        assert run_cli(demo_dataset, tmp_path / "out", *rates) == 1
        # Warnings about the other inputs may come first.
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith(f"error: {demo_dataset[name]}: {message}")

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    @pytest.mark.parametrize(
        "name, what", [("kitchen", "kitchen"), ("goals", "goals"), ("rates", "motion rates")]
    )
    def test_deeply_nested_json_is_a_schema_error(
        self, demo_dataset, tmp_path, name, what, depth
    ):
        demo_dataset[name].write_text("[" * depth + "]" * depth, encoding="utf-8")
        code, err = run_foon_process(
            "run",
            "--foon", str(demo_dataset["foon"]),
            "--kitchen", str(demo_dataset["kitchen"]),
            "--goals", str(demo_dataset["goals"]),
            "--motion-rates", str(demo_dataset["rates"]),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {demo_dataset[name]}: {what}")
        # Python 3.12 and later decode 1,000 levels, then reject the shape.
        if depth == 100_000:
            assert errors[0].startswith(f"error: {demo_dataset[name]}: {what}: not valid JSON: ")

    def test_inputs_with_a_byte_order_mark_read_as_without(self, tmp_path, capsys):
        instance = random_instance(24)
        goals = [node_record(node) for node in instance.pool]
        paths = write_instance(
            instance, tmp_path / "dataset", goals + goals[:1], {"mix": 0.5}
        )
        runs = []
        for bom in ("", "\ufeff"):
            if bom:
                for path in paths.values():
                    path.write_text(bom + path.read_text(encoding="utf-8"), encoding="utf-8")
            out_dir, report = tmp_path / f"out{len(bom)}", tmp_path / f"report{len(bom)}.json"
            code = run_cli(
                paths, out_dir, "--motion-rates", str(paths["rates"]),
                "--emit-dot", "--report", str(report),
            )
            captured = capsys.readouterr()
            rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
            for row in rows:
                del row["elapsed_seconds"]
            runs.append(
                (
                    code,
                    [line.rsplit(None, 1)[0] for line in captured.out.splitlines()],
                    captured.err,
                    rows,
                    {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())},
                )
            )
        assert paths["foon"].read_bytes().startswith(b"\xef\xbb\xbf")
        assert "warning: duplicate goal" in runs[0][2]
        assert sum(name.endswith(".dot") for name in runs[0][-1]) > 20
        assert runs[0] == runs[1]


def _assign_slugs_by_rescanning(goals):
    """The slug loop before it resumed each base at its last suffix."""
    slugs = []
    taken = set()
    for goal in goals:
        base = slug = slugify(goal.label)
        count = 1
        while slug in taken:
            count += 1
            slug = f"{base}_{count}"
        taken.add(slug)
        slugs.append(slug)
    return slugs


class TestAssignSlugs:
    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(["a", "a_2", "a_2_2", "a b", "a_b", "c.1", "c_1"])))
    def test_matches_the_rescanning_loop(self, labels):
        goals = [ObjectNode(label) for label in labels]
        slugs = _assign_slugs(goals)
        assert slugs == _assign_slugs_by_rescanning(goals)
        assert len(set(slugs)) == len(slugs)

    def test_many_repeats_of_one_label_take_linear_time(self):
        goals = [ObjectNode("tea")] * 20_000
        begin = time.perf_counter()
        slugs = _assign_slugs(goals)
        assert time.perf_counter() - begin < 2.0
        assert slugs[:3] == ["tea", "tea_2", "tea_3"]
        assert slugs[-1] == "tea_20000"


def _process_env(**extra):
    """This environment plus ``extra``, with the checkout's ``src`` on the path."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_foon_process(*args, python_flags=()):
    """Run the CLI in its own process; returns (exit code, stderr)."""
    result = subprocess.run(
        [sys.executable, *python_flags, "-m", "foon.cli", *args],
        env=_process_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return result.returncode, result.stderr


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    code = (
        "import sys; before = set(sys.modules); import foon.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=_process_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(result.stdout.split())
    assert "foon.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "hashlib"}


class TestInputWarnings:
    """An input warning names its file, as FOON text diagnostics do."""

    @pytest.mark.parametrize("python_flags", [(), ("-W", "error")])
    def test_warnings_name_their_file(self, tmp_path, python_flags):
        goal = '{"label": "drinking glass", "states": ["contains {ice,water}"]}'
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=f"[{goal}, {goal}]")
        paths["rates"].write_text('{"crush": 0.8, "pour": 0.95}\n')
        code, err = run_foon_process(
            "run",
            "--foon", str(paths["foon"]),
            "--kitchen", str(paths["kitchen"]),
            "--goals", str(paths["goals"]),
            "--motion-rates", str(paths["rates"]),
            "--out-dir", str(tmp_path / "out"),
            python_flags=python_flags,
        )
        assert code == 0
        assert err.splitlines() == [
            f"{paths['rates']}: warning: no success rate for motion 'scoop and pour';"
            " defaulting to 1.0",
            f"{paths['goals']}: warning: duplicate goal 'drinking glass'",
        ]


class TestStandardOutput:
    """What stdout cannot take ends in no traceback and no lost report."""

    def _args(self, paths, tmp_path):
        return [
            sys.executable, "-m", "foon.cli", "run",
            "--foon", str(paths["foon"]),
            "--kitchen", str(paths["kitchen"]),
            "--goals", str(paths["goals"]),
            "--out-dir", str(tmp_path / "out"),
            "--report", str(tmp_path / "report.json"),
        ]

    def test_label_stdout_cannot_encode_prints_escaped(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "dataset")
        paths["foon"].write_text(
            "//\nO pitcher\nS contains {water}\nM pour\nO yolk \u2603\nS raw\n//\n",
            encoding="utf-8",
        )
        paths["goals"].write_text(
            '[{"label": "yolk \u2603", "states": ["raw"]}]', encoding="utf-8"
        )
        result = subprocess.run(
            self._args(paths, tmp_path),
            env=_process_env(PYTHONIOENCODING="ascii"),
            capture_output=True,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        lines = result.stdout.decode("ascii").splitlines()
        assert len(lines) == 1 + len(ALGORITHMS)
        assert all(line.startswith("yolk \\u2603  ") for line in lines[1:])

    def _snowman_dataset(self, tmp_path):
        """The demo dataset with goals "yolk \u2603" and "tea", both from the pitcher."""
        paths = write_demo_dataset(tmp_path / "dataset")
        paths["foon"].write_text(
            "".join(
                f"//\nO pitcher\nS contains {{water}}\nM pour\nO {label}\nS raw\n"
                for label in ("yolk \u2603", "tea")
            )
            + "//\n",
            encoding="utf-8",
        )
        paths["goals"].write_text(
            '[{"label": "yolk \u2603", "states": ["raw"]},'
            ' {"label": "tea", "states": ["raw"]}]',
            encoding="utf-8",
        )
        return paths

    def test_escaped_label_keeps_table_columns_aligned(self, tmp_path):
        paths = self._snowman_dataset(tmp_path)
        args = self._args(paths, tmp_path)
        args[args.index("run")] = "bench"
        result = subprocess.run(
            args,
            env=_process_env(PYTHONIOENCODING="ascii"),
            capture_output=True,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        tables = result.stdout.decode("ascii").split("\n\n")
        assert len(tables) == 2
        for table in tables:
            header, *lines = table.splitlines()
            assert lines
            # Headers hold no blanks, so each word starts one column.
            starts = [m.start() for m in re.finditer(r"\S+", header)][1:]
            for line in lines:
                for start in starts:
                    assert line[start - 2 : start] == "  " and line[start] != " ", line
        assert tables[1].splitlines()[1].startswith("yolk \\u2603  ")

    def test_in_process_run_leaves_stdout_error_handler_alone(self, tmp_path):
        paths = self._snowman_dataset(tmp_path)
        with io.TextIOWrapper(io.BytesIO(), encoding="ascii") as stdout:
            with contextlib.redirect_stdout(stdout):
                code = run_cli(paths, tmp_path / "out")
            stdout.flush()
            assert code == 0
            assert stdout.errors == "strict"
            assert b"yolk \\u2603  " in stdout.buffer.getvalue()

    def test_closed_stdout_is_a_write_error_and_the_report_is_written(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=TWO_GOALS)
        # A pipe with no reader: the first write to stdout fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                self._args(paths, tmp_path),
                env=_process_env(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "error: cannot write standard output: Broken pipe"
        ]
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert [(row["goal_label"], row["algorithm"]) for row in rows] == [
            (goal, algorithm)
            for goal in ("drinking glass", "ice")
            for algorithm in ALGORITHMS
        ]
        assert all(row["status"] == SOLVED and not row["error"] for row in rows)


class TestUsageErrors:
    """Exit code 2 means "a goal is unsolved", so usage errors exit 1."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--max-depth", "abc"], "invalid int value: 'abc'"),
            (["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        ],
    )
    def test_bad_argument_exits_one(self, demo_dataset, tmp_path, extra, message):
        code, err = run_foon_process(
            "run",
            "--foon", str(demo_dataset["foon"]),
            "--kitchen", str(demo_dataset["kitchen"]),
            "--goals", str(demo_dataset["goals"]),
            "--out-dir", str(tmp_path / "out"),
            *extra,
        )
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    def test_missing_foon_exits_one(self, demo_dataset):
        code, err = run_foon_process(
            "run",
            "--kitchen", str(demo_dataset["kitchen"]),
            "--goals", str(demo_dataset["goals"]),
        )
        assert code == 1
        assert "the following arguments are required: --foon" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [["--help"], ["run", "--help"], ["dot", "--help"]])
    def test_help_exits_zero(self, args):
        assert run_foon_process(*args) == (0, "")


def run_dot(*args, stdout=subprocess.PIPE, **env):
    """Run ``foon dot`` in its own process, with ``env`` added to this
    environment; returns the completed process, its output as bytes."""
    return subprocess.run(
        [sys.executable, "-m", "foon.cli", "dot", *args],
        env=_process_env(**env),
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=60,
    )


class TestDot:
    """``foon dot`` prints the DOT of a whole FOON and keeps the CLI's
    contract: exit 0 or 1, one ``error:`` line, no traceback."""

    # A leading byte-order mark reads as without.
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_prints_the_dot_of_the_graph(self, tmp_path, bom):
        foon = tmp_path / "recipes.txt"
        foon.write_text(bom + DEMO_FOON, encoding="utf-8")
        result = run_dot("--foon", str(foon))
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.startswith(b"digraph foon {\n")
        units, _ = parse_foon_text(DEMO_FOON)
        assert result.stdout == export_dot(build_graph(units)).encode()

    def test_reports_a_missing_file(self, tmp_path):
        missing = tmp_path / "missing.txt"
        result = run_dot("--foon", str(missing))
        assert (result.returncode, result.stdout) == (1, b"")
        err = result.stderr.decode()
        assert err.startswith(f"error: cannot read FOON file {missing}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_reports_a_parse_error_in_one_error_line(self, tmp_path):
        foon = tmp_path / "recipes.txt"
        foon.write_text("//\nO cup\nS empty\n//\n")
        result = run_dot("--foon", str(foon))
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode().splitlines() == [
            f"{foon}: line 2: error: block with no motion line",
            f"error: {foon}: FOON text did not parse",
        ]

    def test_reports_a_unit_without_outputs(self, tmp_path):
        foon = tmp_path / "recipes.txt"
        foon.write_text("//\nO ice\nS whole\nM crush\n//\n")
        result = run_dot("--foon", str(foon))
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode() == f"error: {foon}: unit 0: no output nodes\n"

    def test_closed_stdout_is_one_error_line(self, tmp_path):
        foon = tmp_path / "recipes.txt"
        foon.write_text(DEMO_FOON)
        # A pipe with no reader, as in `foon dot ... | true`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_dot("--foon", str(foon), stdout=write_end)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr.decode().splitlines() == [
            "error: cannot write standard output: Broken pipe"
        ]

    def test_label_stdout_cannot_encode_is_an_error_not_an_escape(self, tmp_path):
        # Graphviz would draw an escaped label as another node.
        foon = tmp_path / "recipes.txt"
        foon.write_text(
            "//\nO caf\u00e9 cup\nS empty\nM pour\nO tea\nS hot\n//\n", encoding="utf-8"
        )
        result = run_dot("--foon", str(foon), PYTHONIOENCODING="ascii")
        assert (result.returncode, result.stdout) == (1, b"")
        err = result.stderr.decode("ascii")
        assert err.startswith("error: cannot write standard output: 'ascii' codec can't encode")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_without_foon_exits_one(self):
        result = run_dot()
        assert (result.returncode, result.stdout) == (1, b"")
        err = result.stderr.decode()
        assert "the following arguments are required: --foon" in err
        assert "Traceback" not in err


class TestBench:
    def test_bench_prints_pivot(self, demo_dataset, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--foon", str(demo_dataset["foon"]),
                "--kitchen", str(demo_dataset["kitchen"]),
                "--goals", str(demo_dataset["goals"]),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ids" in out and "gbfs_a" in out and "gbfs_b" in out
        pivot_line = next(
            l for l in out.splitlines() if l.startswith("drinking glass") and "solved" not in l
        )
        assert pivot_line.split()[-3:] == ["3", "3", "3"]

    def test_bench_report_has_three_rows_per_goal(self, demo_dataset, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "bench",
                "--foon", str(demo_dataset["foon"]),
                "--kitchen", str(demo_dataset["kitchen"]),
                "--goals", str(demo_dataset["goals"]),
                "--out-dir", str(tmp_path / "out"),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        rows = json.loads(report_path.read_text())["rows"]
        assert [r["algorithm"] for r in rows] == ["ids", "gbfs_a", "gbfs_b"]

    def test_bench_pivot_keeps_goals_that_share_a_label(self, tmp_path, capsys):
        # The first "ice" has no producer; the second is the crushed ice.
        goals = (
            '[{"label": "ice", "states": ["solid"]},'
            ' {"label": "ice", "states": ["crushed", "frozen", "in [bowl]"]}]'
        )
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=goals)
        assert run_cli(paths, tmp_path / "out", command="bench") == 2
        pivot = capsys.readouterr().out.split("\n\n")[-1].splitlines()
        assert [line.split() for line in pivot] == [
            ["goal", "ids", "gbfs_a", "gbfs_b"],
            ["ice", "-", "-", "-"],
            ["ice", "1", "1", "1"],
        ]

    def test_bench_pivot_shows_a_failed_write_as_a_dash(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=TWO_GOALS)
        out_dir = tmp_path / "out"
        (out_dir / "drinking_glass_ids.txt").mkdir(parents=True)
        assert run_cli(paths, out_dir, command="bench") == 1
        pivot = capsys.readouterr().out.split("\n\n")[-1].splitlines()
        assert pivot[1].split() == ["drinking", "glass", "-", "3", "3"]


class TestGoldenOutput:
    def test_runs_reproduce_the_golden_manifest(self, tmp_path):
        # tests/golden.py documents the datasets and how the manifest was made.
        expected = json.loads(golden.MANIFEST.read_text())
        actual = golden.manifest(tmp_path)
        assert actual.keys() == expected.keys()
        for name in expected:
            assert actual[name] == expected[name], name


# Tea has two producers: "brew" (rate 0.9, one input) needs a mystery
# ingredient nobody makes, "boil" (rate 0.5, two inputs) starts from the
# demo kitchen. Both greedy heuristics pick "brew" and get stuck; IDS
# backtracks to "boil".
TEA_FOON = """\
//
O mystery leaf
S dried
M brew
O tea
S hot
//
O pitcher
S contains {water}
O drinking glass
S empty
M boil
O tea
S hot
//
"""
TEA_GOALS = '[{"label": "tea", "states": ["hot"]}, {"label": "unicorn stew"}]'


class TestReportExplanations:
    def test_rows_carry_reason_missing_key_and_final_bound(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=TEA_GOALS)
        paths["foon"].write_text(TEA_FOON)
        paths["rates"].write_text('{"brew": 0.9, "boil": 0.5}')
        report = tmp_path / "report.json"
        code = run_cli(
            paths, tmp_path / "out", "--motion-rates", str(paths["rates"]),
            "--report", str(report),
        )
        assert code == 2
        rows = {
            (row["goal_label"], row["algorithm"]): row
            for row in json.loads(report.read_text())["rows"]
        }
        units, _ = parse_foon_text(TEA_FOON)
        mystery, stew = units[0].inputs[0], ObjectNode("unicorn stew")
        tea = parse_goals(TEA_GOALS)[0]
        ids = ids_search(build_graph(units), parse_kitchen(DEMO_KITCHEN), tea)

        solved = rows["tea", "ids"]
        assert solved["status"] == "solved"
        assert solved["reason"] is None and solved["missing_key"] is None
        assert solved["final_depth_bound"] == ids.stats.final_depth_bound >= 1

        for algorithm in ("gbfs_a", "gbfs_b"):
            stuck = rows["tea", algorithm]
            assert stuck["status"] == "unsolvable"
            assert stuck["missing_key"] == mystery.key
            assert stuck["reason"] == (
                f"item cannot be produced and is not in the kitchen: {mystery.key}"
            )
            assert stuck["final_depth_bound"] is None

        unsolvable = rows["unicorn stew", "ids"]
        assert unsolvable["status"] == "unsolvable"
        assert unsolvable["reason"] == (
            f"goal has no producers and is not in the kitchen: {stew.key}"
        )
        assert unsolvable["missing_key"] is None
        assert unsolvable["final_depth_bound"] is None
        assert rows["unicorn stew", "gbfs_a"]["missing_key"] == stew.key


class TestRenderOnceOutput:
    def test_files_match_memo_less_rendering_with_dotted_and_duplicate_goals(
        self, tmp_path
    ):
        # Two "1.5 cup" goals (one twice), a dotted "a.b" and the demo goal.
        foon = DEMO_FOON + "".join(
            f"O pitcher\nS contains {{water}}\nM measure\nO {label}\nS {state}\n//\n"
            for label, state in (("1.5 cup", "full"), ("1.5 cup", "half"), ("a.b", "full"))
        )
        goals = [
            {"label": "1.5 cup", "states": ["full"]},
            {"label": "1.5 Cup", "states": ["half"]},
            {"label": "1.5 cup", "states": ["full"]},
            {"label": "a.b", "states": ["full"]},
            {"label": "drinking glass", "states": ["contains {ice,water}"]},
        ]
        paths = write_demo_dataset(tmp_path / "dataset", goals_text=json.dumps(goals))
        paths["foon"].write_text(foon)
        out_dir = tmp_path / "out"
        assert run_cli(paths, out_dir, "--emit-dot") == 0

        units, _ = parse_foon_text(foon)
        graph, kitchen = build_graph(units), parse_kitchen(DEMO_KITCHEN)
        with pytest.warns(FoonWarning, match="duplicate goal '1.5 cup'"):
            goal_nodes = parse_goals(json.dumps(goals))
        expected = {}
        for goal, slug in zip(goal_nodes, _assign_slugs(goal_nodes)):
            for algorithm in ALGORITHMS:
                tree = run_algorithm(algorithm, graph, kitchen, goal).tree
                expected[f"{slug}_{algorithm}.txt"] = serialize_task_tree(tree)
                expected[f"{slug}_{algorithm}.dot"] = export_dot(tree)
        written = {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()}
        assert written == expected
        assert "1.5_cup_2_ids.txt" in written and "a.b_ids.dot" in written


# Goal labels the file names must cope with: dots, unicode, case and
# spacing variants of one label, and labels past the file-name limit.
_odd_labels = st.one_of(
    st.sampled_from(["1.5 cup", "a.b.c", ".", "..", "x" * 300, "Ü" * 300, "é/è\\ñ", 'q"t']),
    st.text(min_size=1, max_size=12).filter(lambda text: text.split()),
)


def _relabel(instance: Instance, labels: list[str]) -> Instance:
    """``instance`` with pool node i relabelled ``labels[i]``."""
    renamed = {
        node.key: ObjectNode(label, node.states, node.ingredients)
        for node, label in zip(instance.pool, labels)
    }
    units = [
        FunctionalUnit(
            tuple(renamed[n.key] for n in unit.inputs),
            unit.motion,
            tuple(renamed[n.key] for n in unit.outputs),
            unit.unit_index,
        )
        for unit in instance.graph.units
    ]
    return Instance(
        graph=build_graph(units),
        kitchen=Kitchen(renamed[n.key] for n in instance.kitchen.nodes),
        goal=renamed[instance.goal.key],
        pool=list(renamed.values()),
    )


# The CLI's four input files, as named by tests.randgen.write_instance.
_INPUT_FILES = ("foon", "kitchen", "goals", "rates")


class TestCliContract:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10_000))
    def test_exit_code_report_and_files_hold_for_odd_goal_labels(self, data, seed):
        instance = random_instance(seed, max_units=40, max_keys=12)
        labels = data.draw(
            st.lists(_odd_labels, min_size=len(instance.pool), max_size=len(instance.pool))
        )
        instance = _relabel(instance, labels)
        # Every pool node is a goal, so every solvable one writes its trees;
        # the drawn extras repeat some of them.
        extras = data.draw(st.lists(st.integers(0, len(labels) - 1), max_size=3))
        picks = [*range(len(labels)), *extras]
        shout = data.draw(st.booleans())
        goals = [
            node_record(
                instance.pool[i], labels[i].upper() + "  " if shout else labels[i]
            )
            for i in picks
        ]
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            paths = write_instance(instance, directory / "dataset", goals, {"mix": 0.5})
            out_dir, report = directory / "out", directory / "report.json"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run_cli(
                    paths, out_dir, "--emit-dot", "--report", str(report),
                    "--motion-rates", str(paths["rates"]),
                )
            assert "Traceback" not in stderr.getvalue()
            rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
            assert len(rows) == len(goals) * len(ALGORITHMS)
            if any(row["error"] for row in rows):
                assert code == 1
            else:
                assert code == (0 if all(r["status"] == SOLVED for r in rows) else 2)

            kitchen = parse_kitchen(paths["kitchen"].read_text(encoding="utf-8"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FoonWarning)
                goal_nodes = parse_goals(paths["goals"].read_text(encoding="utf-8"))
            expected = [
                (goal, slug, algorithm)
                for goal, slug in zip(goal_nodes, _assign_slugs(goal_nodes))
                for algorithm in ALGORITHMS
            ]
            for row, (goal, slug, algorithm) in zip(rows, expected):
                assert row["algorithm"] == algorithm
                if row["functional_unit_count"] is None or row["error"]:
                    continue
                text = (out_dir / f"{slug}_{algorithm}.txt").read_text(encoding="utf-8")
                units, diagnostics = parse_foon_text(text)
                assert not diagnostics
                assert len(units) == row["functional_unit_count"]
                assert validate_tree(kitchen, TaskTree(units, goal.key)).ok

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10_000), name=st.sampled_from(_INPUT_FILES))
    def test_malformed_input_files_hold_the_exit_code_contract(self, data, seed, name):
        """One input file of a valid randgen instance, malformed.

        Exit code 0, 1 or 2 and no traceback; on 1 exactly one ``error:``
        line; on 0 or 2 the exit code follows the report, and every written
        tree parses back and validates against the kitchen as read.
        """
        instance = random_instance(seed, max_units=20, max_keys=10)
        goals = [node_record(node) for node in instance.pool]
        rates = {unit.motion.label: 0.5 for unit in instance.graph.units}
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            paths = write_instance(instance, directory / "dataset", goals, rates)
            kind, raw = data.draw(malformed(paths[name].read_bytes(), name != "foon"))
            paths[name].write_bytes(raw)
            out_dir, report = directory / "out", directory / "report.json"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run_cli(
                    paths, out_dir, "--emit-dot", "--report", str(report),
                    "--motion-rates", str(paths["rates"]),
                )
            err = stderr.getvalue()
            event(f"{name} {kind}: exit {code}")
            assert code in (0, 1, 2), (kind, code)
            assert "Traceback" not in err, kind
            if code == 1:
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert len(errors) == 1, (kind, err)
                return
            rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
            assert code == (0 if all(r["status"] == SOLVED for r in rows) else 2), kind
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FoonWarning)
                kitchen = parse_kitchen(paths["kitchen"].read_text(encoding="utf-8-sig"))
                goal_nodes = parse_goals(paths["goals"].read_text(encoding="utf-8-sig"))
            expected = [
                (goal, slug, algorithm)
                for goal, slug in zip(goal_nodes, _assign_slugs(goal_nodes))
                for algorithm in ALGORITHMS
            ]
            assert len(rows) == len(expected), kind
            written = 0
            for row, (goal, slug, algorithm) in zip(rows, expected):
                if row["functional_unit_count"] is None:
                    continue
                text = (out_dir / f"{slug}_{algorithm}.txt").read_text(encoding="utf-8")
                units, diagnostics = parse_foon_text(text)
                assert not diagnostics, kind
                assert len(units) == row["functional_unit_count"], kind
                assert validate_tree(kitchen, TaskTree(units, goal.key)).ok, kind
                written += 1
            assert len(list(out_dir.iterdir())) == 2 * written

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10_000))
    def test_malformed_foon_file_holds_the_dot_contract(self, data, seed):
        """``dot`` on a malformed randgen FOON file: exit 0 or 1 and no
        traceback; on 1 exactly one ``error:`` line; on 0 the DOT of the
        file as parsed."""
        units = random_instance(seed, max_units=20, max_keys=10).graph.units
        kind, raw = data.draw(malformed(serialize_units(units).encode(), is_json=False))
        with tempfile.TemporaryDirectory() as tmp:
            foon = Path(tmp) / "recipes.txt"
            foon.write_bytes(raw)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["dot", "--foon", str(foon)])
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
