import copy
import inspect
import pickle
import random

import pytest

import foon
from foon import (
    INPUT_COUNT,
    FoonGraph,
    FunctionalUnit,
    InvalidNodeError,
    InvalidUnitError,
    Kitchen,
    MotionNode,
    ObjectNode,
    ParseDiagnostic,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    StateDescriptor,
    TaskTree,
    ValidationReport,
    build_graph,
    node_key,
    parse_foon_text,
    reachable_oracle,
    validate_tree,
)
from foon.core import forward_chain
from foon.search import ALGORITHMS, finalize_tree, run_algorithm
from tests.conftest import node_keys, obj, unit
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
        assert len(node_keys(sample_graph)) == 6

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
        kitchen = Kitchen([obj("a")])
        assert graph.live_producers(kitchen) == {g.key: (graph.units[1],)}
        assert graph.live_producers(Kitchen([])) == {}

    def test_a_unit_naming_one_output_twice_is_listed_once(self):
        g = obj("g")
        twice = unit([obj("a")], "mix", [g, obj(" G"), obj("h")])
        graph = build_graph([twice])
        expected = {g.key: graph.units, obj("h").key: graph.units}
        assert graph.producers == expected
        assert graph.live_producers(Kitchen([obj("a")])) == expected

    def test_live_producers_are_memoized_for_the_last_kitchen(self, chain):
        graph, kitchen, _ = chain
        first = graph.live_producers(kitchen)
        assert graph.live_producers(kitchen) is first
        assert graph.live_producers(Kitchen(kitchen.nodes)) is first
        assert graph.live_producers(Kitchen([])) == {}
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


def _check_forward_chain(units, kitchen, seed) -> bool:
    """``forward_chain`` against the reference; its firing order runs in order.

    Returns whether a unit fired after a later one (it was deferred).
    """
    plain = set(kitchen.keys)
    closure = set(kitchen.keys)
    expected = reference_forward_chain(units, closure)
    fired, made = forward_chain(units, plain)
    assert fired == expected, seed
    assert plain | made == closure, seed
    assert not made & plain, seed
    assert plain == kitchen.keys, seed
    assert forward_chain(units, kitchen.keys) == (fired, made), seed
    # A list already in execution order fires in list order, in one scan.
    executable = [units[pos] for pos in fired]
    assert forward_chain(executable, kitchen.keys) == (list(range(len(fired))), made), seed
    return fired != sorted(fired)


def test_forward_chain_and_validate_tree_match_the_mutating_reference(monkeypatch, layered):
    """Differential check on the randgen corpus, cyclic instances included.

    The pass runs over each graph's units, random unit samples with repeats,
    shuffled unit lists with repeats, lists with units that output kitchen
    keys or repeat an input key, and the reversed discovery lists of every
    search, here and on a layered graph, where a unit often comes before
    what feeds it and has to wait. The validator checks the trees the
    searches return, shuffled, truncated and resampled step lists that
    mostly fail, and hand-made trees whose repeats and missing inputs
    interleave, so that the order of mixed violations is checked too.
    """
    discoveries = []

    def spy_finalize(discovery, goal, kitchen):
        discoveries.append(list(reversed(discovery)))
        return finalize_tree(discovery, goal, kitchen)

    monkeypatch.setattr(foon.search, "finalize_tree", spy_finalize)
    ok = failed = deferred = 0
    for seed in range(400):
        rng = random.Random(seed)
        instance = random_instance(seed, acyclic=(seed % 3 == 0))
        graph, kitchen = instance.graph, instance.kitchen
        unit_lists = [list(graph.units)]
        if graph.units:
            unit_lists.append(rng.choices(graph.units, k=rng.randint(1, 10)))
        for units in unit_lists:
            _check_forward_chain(units, kitchen, seed)

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

        # Drawn after the validator's lists, so those stay as they were.
        pool, stocked = instance.pool, list(kitchen.nodes) or instance.pool
        odd = []
        for _ in range(rng.randint(1, 4)):
            inputs = rng.choices(pool, k=rng.randint(1, 3))
            inputs += rng.choices(inputs, k=rng.randint(1, 2))
            outputs = [rng.choice(stocked)] + rng.sample(pool, rng.randint(0, 2))
            odd.append(unit(inputs, "mix", outputs))
        shuffled = list(graph.units) + rng.choices(graph.units, k=len(graph.units) // 2)
        rng.shuffle(shuffled)
        mixed = list(graph.units) + odd
        rng.shuffle(mixed)
        for units in [shuffled, odd, mixed]:
            _check_forward_chain(units, kitchen, seed)
        for units in discoveries:
            deferred += _check_forward_chain(units, kitchen, seed)
        discoveries.clear()
    assert ok > 2000 and failed > 4000, (ok, failed)

    a, b, c, d, g = (obj(label) for label in "abcdg")
    cut, mix, cook = unit([a], "cut", [b]), unit([d], "mix", [c]), unit([b], "cook", [g])
    hand_kitchen = Kitchen([a])
    for steps, goal in [
        ((cut, cut, mix, cut, cook), g),  # cut three times, around mix's missing input
        ((cut, cook, cook), g),  # a repeat of the last step
        ((cut, cook, cut), g),  # a repeat as the final step, without the goal
        ((mix, cut, mix), c),  # a repeat with a missing input of its own
    ]:
        tree = TaskTree(steps, goal.key)
        report = validate_tree(hand_kitchen, tree)
        assert report == reference_validate_tree(hand_kitchen, tree), steps
        assert any("duplicate" in violation for violation in report.violations), steps

    # Searches on a layered graph share inputs across branches, so their
    # reversed discovery lists often name a unit before what feeds it.
    graph, kitchen, goals = layered
    for goal in goals:
        for algorithm in ALGORITHMS:
            run_algorithm(algorithm, graph, kitchen, goal)
    for units in discoveries:
        deferred += _check_forward_chain(units, kitchen, "layered")
    assert deferred >= 20, deferred


class TestReachableOracle:
    def test_goal_already_in_kitchen(self):
        graph = build_graph([])
        kitchen = Kitchen([obj("a")])
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
        assert not reachable_oracle(graph, Kitchen([]), a.key)
        assert reachable_oracle(graph, Kitchen([b]), a.key)


class TestValidateTree:
    def test_empty_tree_ok_iff_goal_in_kitchen(self):
        a = obj("a")
        tree = TaskTree(steps=(), goal=a.key)
        assert validate_tree(Kitchen([a]), tree).ok
        assert not validate_tree(Kitchen([]), tree).ok

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

    def test_valid_trees_share_one_immutable_report(self, chain):
        graph, kitchen, goal = chain
        full = validate_tree(kitchen, TaskTree(graph.units, goal.key))
        empty = validate_tree(Kitchen([goal]), TaskTree((), goal.key))
        assert full is empty and full == ValidationReport() and full.violations == ()
        with pytest.raises(AttributeError):
            full.violations = ("step 0: x",)


def test_unit_signature_ignores_weight_and_index():
    base = unit([obj("a")], "mix", [obj("b")])
    other = unit([obj("a")], "mix", [obj("b")], index=4, rate=0.2)
    assert base.signature == other.signature
    assert base.signature != unit([obj("a")], "stir", [obj("b")]).signature


def test_build_graph_renumbers_like_a_full_rebuild():
    rng = random.Random(11)
    for seed in range(30):
        units = list(random_instance(seed).graph.units)
        # Duplicates, with other indices and rates, shift every later unit.
        for _ in range(rng.randint(1, 5)):
            if units:
                twin = rng.choice(units)
                twin = FunctionalUnit(
                    twin.inputs, MotionNode(twin.motion.label, 0.5), twin.outputs, 99
                )
                units.insert(rng.randint(0, len(units)), twin)
        kept: dict[tuple, object] = {}
        for u in units:
            kept.setdefault(u.signature, u)
        # Full rebuilds, which compute the keys and signature anew.
        expected = [
            FunctionalUnit(u.inputs, u.motion, u.outputs, i) for i, u in enumerate(kept.values())
        ]
        graph = build_graph(units)
        assert graph.units == tuple(expected)
        for got, want in zip(graph.units, expected):
            for name in ("motion", "unit_index", "input_keys", "output_keys", "signature"):
                assert getattr(got, name) == getattr(want, name)


def test_kitchen_deduplicates_by_key():
    kitchen = Kitchen([obj("Milk"), obj("milk "), obj("egg")])
    assert len(kitchen) == 2
    assert obj("milk").key in kitchen


def _value_pairs():
    """Per value type: its fields in signature order, the slots derived from
    them, and two instances of equal content spelled differently (letter
    case, whitespace, state and ingredient order, positional or keyword)."""
    ice = obj("Ice", ["Crushed", ("in", "Bowl")], ["Salt", "a"])
    ice_again = obj(" ice ", [("IN", " bowl"), "crushed"], ["a", "SALT"])
    mix = FunctionalUnit((ice, obj("glass")), MotionNode("Mix", 0.5), (obj("Slush"),), 2)
    mix_again = FunctionalUnit(
        inputs=[ice_again, obj("GLASS")], motion=MotionNode(" mix", 0.5),
        outputs=[obj("slush")], unit_index=2,
    )
    tree = TaskTree((mix,), obj("slush").key)
    stats = SearchStats(4, 2, 0.25)
    return [
        (StateDescriptor, ("label", "relative_container"), (),
         StateDescriptor("In", "Bowl"), StateDescriptor(" in", relative_container="BOWL ")),
        (ObjectNode, ("label", "states", "ingredients"), ("key",), ice, ice_again),
        (MotionNode, ("label", "success_rate"), (),
         MotionNode("Pour", 0.5), MotionNode("pour ", success_rate=0.5)),
        (FunctionalUnit, ("inputs", "motion", "outputs", "unit_index"),
         ("input_keys", "output_keys", "signature"), mix, mix_again),
        (FoonGraph, ("units",), ("producers", "_live_memo"),
         build_graph([mix]), build_graph([mix_again])),
        (Kitchen, ("nodes",), ("keys",),
         Kitchen([ice, obj("glass")]),
         Kitchen([obj("Glass"), ice_again, ice])),
        (TaskTree, ("steps", "goal"), (), tree, TaskTree(steps=[mix_again], goal=tree.goal)),
        (ValidationReport, ("violations",), (),
         ValidationReport(("step 0: x",)), ValidationReport(violations=("step 0: x",))),
        (SearchConfig, ("max_depth", "heuristic"), (),
         SearchConfig(5, INPUT_COUNT), SearchConfig(heuristic=INPUT_COUNT, max_depth=5)),
        (SearchStats, ("nodes_expanded", "final_depth_bound", "elapsed_seconds"), (),
         stats, SearchStats(nodes_expanded=4, final_depth_bound=2, elapsed_seconds=0.25)),
        (SearchOutcome, ("tree", "status", "stats", "missing_key", "reason"), (),
         SearchOutcome(tree, "solved", stats),
         SearchOutcome(TaskTree([mix_again], tree.goal), "solved", SearchStats(4, 2, 0.25),
                       missing_key=None)),
        (ParseDiagnostic, ("line_number", "message", "severity"), (),
         ParseDiagnostic(3, "no motion"), ParseDiagnostic(3, "no motion", severity="error")),
    ]


def _copied_pairs():
    """Values built by a method that skips ``__init__``, keyed by the method,
    each beside its ``__init__``-built twin from :func:`_value_pairs`."""
    pairs = {entry[0]: entry for entry in _value_pairs()}
    node, unit = pairs[ObjectNode], pairs[FunctionalUnit]
    cup = obj("Cup", ["Crushed", ("in", "Bowl")], ["Salt", "a"])
    draft = FunctionalUnit((node[4], obj("glass")), MotionNode("mix"), (obj("slush"),))
    return {
        "ObjectNode.with_label": (*node[:3], cup.with_label(" ICE"), node[4]),
        "FunctionalUnit._with": (*unit[:3], draft._with(MotionNode("Mix", 0.5), 2), unit[4]),
    }


@pytest.mark.parametrize(
    "cls, fields, derived, left, right",
    [*_value_pairs(), *_copied_pairs().values()],
    ids=[entry[0].__name__ for entry in _value_pairs()] + list(_copied_pairs()),
)
class TestValueSemantics:
    """Equality, hash, signature, immutability and pickling of every value type."""

    def test_equal_content_is_equal_with_the_hash_of_its_fields(
        self, cls, fields, derived, left, right
    ):
        assert type(left) is cls and left is not right
        assert left == right and not left != right
        values = tuple(getattr(left, name) for name in fields)
        if cls is FoonGraph:
            # Its producer index is a dict, so it has no hash, as before.
            with pytest.raises(TypeError):
                hash(left)
        else:
            assert hash(left) == hash(right) == hash(values)
        assert cls(*values) == left
        for name in derived:
            assert getattr(cls(*values), name) == getattr(left, name)

    def test_signature_repr_and_match_args_follow_the_fields(
        self, cls, fields, derived, left, right
    ):
        assert tuple(inspect.signature(cls).parameters) == fields
        shown = ", ".join(f"{name}={getattr(left, name)!r}" for name in fields)
        assert repr(left) == f"{cls.__name__}({shown})"
        assert cls.__match_args__ == fields

    def test_never_equal_to_a_tuple_or_another_type(self, cls, fields, derived, left, right):
        values = tuple(getattr(left, name) for name in fields)
        assert left != values and values != left
        assert left.__eq__(values) is NotImplemented
        assert left.__eq__(object()) is NotImplemented
        assert left != None  # noqa: E711
        for other in _value_pairs():
            if other[0] is not cls:
                assert left != other[3] and other[3] != left

    def test_no_field_can_be_assigned_or_deleted(self, cls, fields, derived, left, right):
        for name in (*fields, *derived, "extra"):
            before = getattr(left, name, None)
            with pytest.raises(AttributeError):
                setattr(left, name, before)
            with pytest.raises(AttributeError):
                delattr(left, name)
            assert getattr(left, name, None) is before
        assert left == right
        assert not hasattr(left, "__dict__")

    def test_pickles_and_copies_to_an_equal_value(self, cls, fields, derived, left, right):
        for again in (pickle.loads(pickle.dumps(left)), copy.copy(left), copy.deepcopy(left)):
            assert type(again) is cls and again == left


def test_the_live_producer_memo_is_the_graph_s_only_write(chain):
    graph, kitchen, _ = chain
    assert graph._live_memo is None
    live = graph.live_producers(kitchen)
    assert graph._live_memo == (kitchen.keys, live)
    assert graph.live_producers(Kitchen(kitchen.nodes)) is live
    with pytest.raises(AttributeError):
        graph._live_memo = None
    assert FoonGraph().producers == {} and FoonGraph().producers is not FoonGraph().producers


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
