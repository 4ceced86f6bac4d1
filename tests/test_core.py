import dataclasses
import inspect
import random

import pytest

import foon
from foon import (
    InvalidNodeError,
    InvalidUnitError,
    Kitchen,
    MotionNode,
    ObjectNode,
    StateDescriptor,
    TaskTree,
    build_graph,
    node_key,
    parse_foon_text,
    reachable_oracle,
    validate_tree,
)
from foon.core import forward_chain
from foon.search import ALGORITHMS, run_algorithm
from tests.conftest import obj, unit
from tests.forward_chain_reference import (
    reference_forward_chain,
    reference_validate_tree,
)
from tests.randgen import random_instance


class TestNodeKey:
    def test_case_and_whitespace_insensitive(self):
        left = obj("Drinking Glass", ["empty"])
        right = ObjectNode("drinking  glass", frozenset({StateDescriptor("EMPTY")}))
        assert left.key == right.key

    def test_state_and_ingredient_order_irrelevant(self):
        states = [("crushed",), ("frozen",), ("in", "bowl")]
        left = obj("ice", states, ["b", "a"])
        right = obj("ice", reversed(states), ["a", "b"])
        assert left.key == right.key

    def test_container_distinguishes_nodes(self):
        in_bowl = obj("ice", [("in", "bowl")])
        in_glass = obj("ice", [("in", "drinking glass")])
        assert in_bowl.key != in_glass.key

    def test_structurally_different_content_gets_different_keys(self):
        assert obj("a", ["b"]).key != obj("a b").key
        assert obj("a", [], ["b"]).key != obj("a", ["b"]).key

    def test_parse_builds_each_distinct_node_once(self):
        units, diagnostics = parse_foon_text(
            "//\nO cup\nS empty\nM rinse\nO cup\nS clean\n"
            "//\nO Cup\nS  EMPTY\nM dry\nO towel\nS wet\n//\n"
        )
        assert not diagnostics
        assert units[0].inputs[0] is units[1].inputs[0]

    def test_identity_has_no_process_global_cache(self):
        assert not hasattr(node_key, "cache_info")
        node = obj("cup", ["empty"])
        assert node_key(node) is node.key
        step = unit([node], "rinse", [obj("cup", ["clean"])])
        assert step.input_keys == (node.key,)
        assert not hasattr(step, "__dict__")  # slot fields only: no lazy per-unit cache

    def test_empty_label_rejected(self):
        with pytest.raises(InvalidNodeError):
            ObjectNode("   ")

    def test_motion_rate_bounds(self):
        assert MotionNode("pour").success_rate == 1.0
        with pytest.raises(InvalidNodeError):
            MotionNode("pour", 1.5)
        with pytest.raises(InvalidNodeError):
            MotionNode("pour", -0.1)


class TestBuildGraph:
    def test_sample_unit_graph(self, sample_unit, sample_graph):
        assert len(sample_graph) == 1
        assert len(sample_graph.node_keys()) == 6

    def test_empty(self):
        graph = build_graph([])
        assert len(graph) == 0
        assert graph.producers == {}

    def test_structural_duplicates_collapse(self):
        u = unit([obj("a")], "mix", [obj("b")])
        again = unit([obj("a")], "mix", [obj("b")], index=7, rate=0.3)
        graph = build_graph([u, again])
        assert len(graph) == 1
        # first occurrence wins, including its motion weight
        assert graph.units[0].motion.success_rate == 1.0

    def test_indices_reassigned_densely(self):
        u1 = unit([obj("a")], "mix", [obj("b")], index=5)
        u2 = unit([obj("b")], "pour", [obj("c")], index=9)
        graph = build_graph([u1, u1, u2])
        assert [u.unit_index for u in graph.units] == [0, 1]

    def test_empty_inputs_rejected_with_source_index(self):
        bad = unit([obj("a")], "mix", [obj("b")])
        bad = type(bad)(inputs=(), motion=bad.motion, outputs=bad.outputs)
        with pytest.raises(InvalidUnitError) as excinfo:
            build_graph([unit([obj("x")], "chop", [obj("y")]), bad])
        assert excinfo.value.unit_index == 1

    def test_idempotent(self, sample_graph):
        rebuilt = build_graph(list(sample_graph.units))
        assert rebuilt.units == sample_graph.units
        assert rebuilt.producers == sample_graph.producers


class TestProducers:
    def test_sample_output_is_produced(self, sample_unit, sample_graph):
        produced = sample_graph.producers_of(sample_unit.outputs[0].key)
        assert [u.unit_index for u in produced] == [0]

    def test_input_only_node_has_no_producers(self, sample_unit, sample_graph):
        bucket = sample_unit.inputs[1]
        assert sample_graph.producers_of(bucket.key) == ()

    def test_two_producers_listed_in_index_order(self):
        g = obj("g")
        u0 = unit([obj("a")], "mix", [g])
        u1 = unit([obj("b")], "pour", [g])
        graph = build_graph([u0, u1])
        assert [u.unit_index for u in graph.producers_of(g.key)] == [0, 1]

    def test_live_producers_skip_units_the_kitchen_cannot_feed(self):
        g = obj("g")
        dead = unit([obj("missing")], "mix", [g])
        live = unit([obj("a")], "pour", [g])
        graph = build_graph([dead, live])
        kitchen = Kitchen.from_nodes([obj("a")])
        assert graph.live_producers(kitchen) == {g.key: (graph.units[1],)}
        assert graph.live_producers(Kitchen.from_nodes([])) == {}

    def test_live_producers_are_memoized_for_the_last_kitchen(self, chain):
        graph, kitchen, _ = chain
        first = graph.live_producers(kitchen)
        assert graph.live_producers(kitchen) is first
        assert graph.live_producers(Kitchen.from_nodes(kitchen.nodes)) is first
        assert graph.live_producers(Kitchen.from_nodes([])) == {}
        assert graph.live_producers(kitchen) == first
        assert graph == build_graph(list(graph.units))


def test_forward_chain_fires_the_earliest_ready_unit_first():
    a, b, c, d, e, x, y = (obj(label) for label in "abcdexy")
    units = [
        unit([c], "m0", [d]),
        unit([a], "m1", [b]),
        unit([b], "m2", [c]),
        unit([x], "m3", [y]),  # 3 and 4 feed only each other
        unit([y], "m4", [x]),
        unit([a], "m5", [e]),
    ]
    kitchen = {a.key}
    # Unit 0 becomes ready after unit 2 fires and still goes before unit 5.
    fired, made = forward_chain(units, kitchen)
    assert fired == [1, 2, 0, 5]
    assert kitchen | made == {n.key for n in (a, b, c, d, e)}
    assert kitchen == {a.key}
    assert forward_chain(units, kitchen | made) == ([0, 1, 2, 5], set())
    assert forward_chain(units, set()) == ([], set())


def test_forward_chain_and_validate_tree_match_the_mutating_reference():
    """Differential check on the randgen corpus, cyclic instances included.

    The pass runs over each graph's units and over random unit samples with
    repeats; the validator checks the trees the searches return and
    shuffled, truncated and resampled step lists that mostly fail.
    """
    ok = failed = 0
    for seed in range(400):
        rng = random.Random(seed)
        instance = random_instance(seed, acyclic=(seed % 3 == 0))
        graph, kitchen = instance.graph, instance.kitchen
        unit_lists = [list(graph.units)]
        if graph.units:
            unit_lists.append(rng.choices(graph.units, k=rng.randint(1, 10)))
        for units in unit_lists:
            plain = set(kitchen.keys)
            closure = set(kitchen.keys)
            expected = reference_forward_chain(units, closure)
            fired, made = forward_chain(units, plain)
            assert fired == expected, seed
            assert plain | made == closure, seed
            assert not made & plain, seed
            assert plain == kitchen.keys, seed
            assert forward_chain(units, kitchen.keys) == (fired, made), seed

        goal = instance.goal.key
        trees = [TaskTree(steps=(), goal=goal)]
        for algorithm in ALGORITHMS:
            outcome = run_algorithm(algorithm, graph, kitchen, instance.goal)
            if outcome.tree is not None:
                trees.append(outcome.tree)
        for units in unit_lists + [list(t.steps) for t in trees[1:]]:
            shuffled = units + rng.choices(units, k=len(units) // 2)
            rng.shuffle(shuffled)
            truncated = units[: rng.randint(0, len(units))]
            for steps in (shuffled, truncated, units[1:]):
                trees.append(TaskTree(steps=tuple(steps), goal=goal))
                if steps:
                    target = rng.choice(steps[-1].output_keys)
                    trees.append(TaskTree(steps=tuple(steps), goal=target))
        for tree in trees:
            report = validate_tree(kitchen, tree)
            assert report == reference_validate_tree(kitchen, tree), (seed, tree)
            if report.ok:
                ok += 1
            else:
                failed += 1
    assert ok > 2000 and failed > 4000, (ok, failed)


class TestReachableOracle:
    def test_goal_already_in_kitchen(self):
        graph = build_graph([])
        kitchen = Kitchen.from_nodes([obj("a")])
        assert reachable_oracle(graph, kitchen, obj("a").key)

    def test_two_round_chain(self, chain):
        graph, kitchen, goal = chain
        assert reachable_oracle(graph, kitchen, goal.key)

    def test_unproducible_goal(self, chain):
        graph, kitchen, _ = chain
        assert not reachable_oracle(graph, kitchen, obj("nowhere").key)

    def test_cycle_does_not_hang(self):
        a, b = obj("a"), obj("b")
        graph = build_graph([unit([a], "m1", [b]), unit([b], "m2", [a])])
        assert not reachable_oracle(graph, Kitchen.from_nodes([]), a.key)
        assert reachable_oracle(graph, Kitchen.from_nodes([b]), a.key)


class TestValidateTree:
    def test_empty_tree_ok_iff_goal_in_kitchen(self):
        a = obj("a")
        tree = TaskTree(steps=(), goal=a.key)
        assert validate_tree(Kitchen.from_nodes([a]), tree).ok
        assert not validate_tree(Kitchen.from_nodes([]), tree).ok

    def test_chain_in_order_is_ok(self, chain):
        graph, kitchen, goal = chain
        tree = TaskTree(steps=graph.units, goal=goal.key)
        assert validate_tree(kitchen, tree).ok

    def test_reversed_chain_reports_unavailable_input(self, chain):
        graph, kitchen, goal = chain
        tree = TaskTree(steps=tuple(reversed(graph.units)), goal=goal.key)
        report = validate_tree(kitchen, tree)
        assert any("step 0" in v and "unavailable" in v for v in report.violations)

    def test_wrong_final_step_reported(self, chain):
        graph, kitchen, goal = chain
        tree = TaskTree(steps=graph.units[:1], goal=goal.key)
        report = validate_tree(kitchen, tree)
        assert "final step does not output the goal" in report.violations

    def test_duplicate_steps_reported(self, chain):
        graph, kitchen, goal = chain
        u1, u2 = graph.units
        tree = TaskTree(steps=(u1, u1, u2), goal=goal.key)
        report = validate_tree(kitchen, tree)
        assert any("duplicate" in v for v in report.violations)


def test_unit_signature_ignores_weight_and_index():
    base = unit([obj("a")], "mix", [obj("b")])
    other = unit([obj("a")], "mix", [obj("b")], index=4, rate=0.2)
    assert base.signature == other.signature
    assert base.signature != unit([obj("a")], "stir", [obj("b")]).signature


def test_with_motion_swaps_only_the_motion():
    base = unit([obj("b"), obj("a")], "Mix", [obj("c")], index=3)
    rated = base.with_motion(MotionNode("mix", 0.25))
    assert rated == dataclasses.replace(base, motion=MotionNode("mix", 0.25))
    assert rated.motion.success_rate == 0.25 and base.motion.success_rate == 1.0
    for name in ("inputs", "outputs", "unit_index", "input_keys", "output_keys", "signature"):
        assert getattr(rated, name) == getattr(base, name)
    with pytest.raises(ValueError, match="'stir' does not match 'mix'"):
        base.with_motion(MotionNode("stir", 0.5))


def test_with_index_matches_replace_in_build_graph():
    rng = random.Random(11)
    for seed in range(30):
        units = list(random_instance(seed).graph.units)
        # Duplicates, with other indices and rates, shift every later unit.
        for _ in range(rng.randint(1, 5)):
            if units:
                twin = rng.choice(units)
                twin = dataclasses.replace(
                    twin, motion=MotionNode(twin.motion.label, 0.5), unit_index=99
                )
                units.insert(rng.randint(0, len(units)), twin)
        kept: dict[tuple, object] = {}
        for u in units:
            kept.setdefault(u.signature, u)
        expected = [dataclasses.replace(u, unit_index=i) for i, u in enumerate(kept.values())]
        graph = build_graph(units)
        assert graph.units == tuple(expected)
        for got, want in zip(graph.units, expected):
            for name in ("motion", "unit_index", "input_keys", "output_keys", "signature"):
                assert getattr(got, name) == getattr(want, name)


def test_kitchen_deduplicates_by_key():
    kitchen = Kitchen.from_nodes([obj("Milk"), obj("milk "), obj("egg")])
    assert len(kitchen) == 2
    assert obj("milk").key in kitchen


# Every name `foon` exported when its __init__ still listed them itself.
PUBLIC_NAMES = """
ALGORITHMS DEPTH_EXHAUSTED FoonError FoonGraph FoonWarning FunctionalUnit
INPUT_COUNT InvalidNodeError InvalidUnitError Kitchen MotionNode NodeKey
ObjectNode ParseDiagnostic SOLVED SUCCESS_RATE SchemaError SearchConfig
SearchOutcome SearchStats StateDescriptor TaskTree UNSOLVABLE
ValidationReport apply_motion_rates build_graph export_dot finalize_tree
gbfs_search heuristic_select ids_search node_key normalize parse_foon_text
parse_goals parse_kitchen parse_motion_rates reachable_oracle run_algorithm
serialize_task_tree serialize_units validate_tree
""".split()


def test_each_public_name_is_declared_once_by_its_module():
    modules = (foon.core, foon.parsing, foon.search)
    assert sorted(foon.__all__) == PUBLIC_NAMES
    assert len(set(foon.__all__)) == len(foon.__all__)
    for name in foon.__all__:
        (owner,) = [module for module in modules if name in module.__all__]
        value = getattr(foon, name)
        assert value is getattr(owner, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ in (owner.__name__, "builtins"), name
