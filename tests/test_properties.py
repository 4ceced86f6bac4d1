import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from foon import (
    INPUT_COUNT,
    SUCCESS_RATE,
    FunctionalUnit,
    InvalidNodeError,
    Kitchen,
    MotionNode,
    ObjectNode,
    SearchConfig,
    StateDescriptor,
    build_graph,
    export_dot,
    heuristic_select,
    ids_search,
    normalize,
    parse_foon_text,
    reachable_oracle,
    serialize_units,
    validate_tree,
)
from tests.conftest import node_keys
from tests.randgen import random_instance

# Text that the parser itself could have produced: no braces, brackets or
# commas, so states and ingredients survive a serialize/parse cycle intact.
plain_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
    min_size=1,
    max_size=12,
).filter(str.strip)

states = st.builds(StateDescriptor, plain_text, st.none() | plain_text)
nodes = st.builds(
    ObjectNode,
    plain_text,
    st.frozensets(states, max_size=3),
    st.frozensets(plain_text, max_size=3),
)
motions = st.builds(
    MotionNode, plain_text, st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)
units = st.builds(
    FunctionalUnit,
    st.lists(nodes, min_size=1, max_size=3).map(tuple),
    motions,
    st.lists(nodes, min_size=1, max_size=2).map(tuple),
    st.integers(min_value=0, max_value=50),
)
unit_lists = st.lists(units, max_size=4)

instances = st.integers(min_value=0, max_value=10**9).map(random_instance)


def _canonical_key(node):
    """The key format every written DOT identifier hashes; it must not drift."""
    states = sorted((s.label, s.relative_container or "") for s in node.states)
    return json.dumps([node.label, states, sorted(node.ingredients)], separators=(",", ":"))


@given(nodes, nodes)
def test_node_key_is_a_congruence(left, right):
    assert (left == right) == (left.key == right.key)
    for node in (left, right):
        assert node.key == _canonical_key(node)


# Any text at all: quotes, backslashes, control characters, non-ASCII text
# and lone surrogates, mixed in often enough that most examples hold some.
any_text = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t é 𐏿\U0001f600')
    | st.characters(exclude_categories=()),
    max_size=8,
)
any_label = any_text.filter(normalize)


@settings(max_examples=300)
@given(any_label, st.lists(st.tuples(any_label, st.none() | any_text), max_size=3),
       st.lists(any_text, max_size=3))
def test_node_key_is_the_compact_json_dump(label, states, ingredients):
    node = ObjectNode(
        label, frozenset(StateDescriptor(*state) for state in states), frozenset(ingredients)
    )
    assert node.key == _canonical_key(node)
    assert node.key.isascii()
    pairs = sorted([s.label, s.relative_container or ""] for s in node.states)
    assert json.loads(node.key) == [normalize(label), pairs, sorted(node.ingredients)]


# New labels for a node: any text as above, blank text and lone surrogates.
new_labels = any_text | st.sampled_from(["", " \t\n", "\ud800", 'Pan "\udfff" \\ \u00e9'])


@settings(max_examples=300)
@given(any_label, st.lists(st.tuples(any_label, st.none() | any_text), max_size=3),
       st.lists(any_text, max_size=3), new_labels)
def test_with_label_is_the_node_of_that_label_over_the_same_sets(
    label, states, ingredients, new_label
):
    node = ObjectNode(
        label, frozenset(StateDescriptor(*state) for state in states), frozenset(ingredients)
    )
    try:
        expected = ObjectNode(new_label, node.states, node.ingredients)
    except InvalidNodeError as exc:
        with pytest.raises(InvalidNodeError) as caught:
            node.with_label(new_label)
        assert str(caught.value) == str(exc)
        return
    relabelled = node.with_label(new_label)
    assert type(relabelled) is ObjectNode
    assert relabelled == expected and relabelled.key == expected.key
    assert relabelled.states is node.states and relabelled.ingredients is node.ingredients


any_nodes = st.builds(
    ObjectNode,
    any_label,
    st.frozensets(st.builds(StateDescriptor, any_label, st.none() | any_text), max_size=1),
    st.frozensets(any_text, max_size=2),
)
any_units = st.builds(
    FunctionalUnit,
    st.lists(any_nodes, min_size=1, max_size=2).map(tuple),
    st.builds(MotionNode, any_label),
    st.lists(any_nodes, min_size=1, max_size=2).map(tuple),
)


def _structure(unit):
    return sorted(unit.input_keys), unit.motion.label, sorted(unit.output_keys)


@given(any_units, any_units, st.data())
def test_unit_signature_is_the_compact_json_dump(unit, other, data):
    # Besides two independent units: the first one with its sides shuffled
    # and either unit's motion, and with one input moved over to the outputs,
    # so that equal structures and near misses both come up.
    motion = data.draw(st.sampled_from([unit.motion, other.motion]))
    inputs = tuple(data.draw(st.permutations(unit.inputs)))
    outputs = tuple(data.draw(st.permutations(unit.outputs)))
    drawn = [unit, other, FunctionalUnit(inputs, motion, outputs, 7)]
    if len(inputs) > 1:
        drawn.append(FunctionalUnit(inputs[:-1], motion, inputs[-1:] + outputs))
    for u in drawn:
        assert u.signature.isascii()
        assert u.signature == json.dumps(
            [[json.loads(k) for k in sorted(u.input_keys)], u.motion.label,
             [json.loads(k) for k in sorted(u.output_keys)]],
            separators=(",", ":"),
        )
    for left in drawn:
        for right in drawn:
            assert (left.signature == right.signature) == (_structure(left) == _structure(right))


@given(nodes)
def test_node_key_insensitive_to_case_whitespace_and_order(node):
    scrambled = ObjectNode(
        "  " + node.label.upper().replace(" ", "   "),
        frozenset(sorted(node.states, key=repr, reverse=True)),
        frozenset(i.upper() for i in node.ingredients),
    )
    assert scrambled.key == node.key


@given(instances)
def test_producer_index_is_complete_and_exact(instance):
    graph = instance.graph
    all_keys = node_keys(graph) | {n.key for n in instance.pool}
    for key in all_keys:
        produced_by = graph.producers_of(key)
        for unit in produced_by:
            assert key in unit.output_keys
        expected = [u for u in graph.units if key in u.output_keys]
        assert list(produced_by) == expected


@settings(deadline=None)
@given(instances)
def test_live_producers_are_exactly_those_the_oracle_can_feed(instance):
    graph, kitchen = instance.graph, instance.kitchen
    reachable = {key: reachable_oracle(graph, kitchen, key) for key in node_keys(graph)}
    expected = {}
    for key, producers in graph.producers.items():
        fed = tuple(u for u in producers if all(reachable[k] for k in u.input_keys))
        if fed:
            expected[key] = fed
    assert graph.live_producers(kitchen) == expected


@given(instances)
def test_oracle_is_monotone_in_the_kitchen(instance):
    goal = instance.goal.key
    small = instance.kitchen
    large = Kitchen(list(small.nodes) + instance.pool)
    if reachable_oracle(instance.graph, small, goal):
        assert reachable_oracle(instance.graph, large, goal)


@given(instances)
def test_build_graph_is_idempotent(instance):
    rebuilt = build_graph(list(instance.graph.units))
    assert rebuilt.units == instance.graph.units
    assert rebuilt.producers == instance.graph.producers


@given(unit_lists)
def test_serialize_parse_round_trip(units_in):
    text = serialize_units(units_in)
    parsed, diagnostics = parse_foon_text(text)
    assert not diagnostics
    assert [(u.inputs, u.motion.label, u.outputs) for u in parsed] == [
        (u.inputs, u.motion.label, u.outputs) for u in units_in
    ]
    assert serialize_units(parsed) == text


@given(st.text(max_size=300))
def test_parser_is_total_over_the_diagnostic_channel(text):
    units_out, diagnostics = parse_foon_text(text)
    line_count = len(text.splitlines())
    for diag in diagnostics:
        assert 1 <= diag.line_number <= max(line_count, 1)
    assert parse_foon_text(text) == (units_out, diagnostics)


@settings(deadline=None)
@given(instances)
def test_accepted_trees_reach_the_goal_by_forward_chaining(instance):
    outcome = ids_search(instance.graph, instance.kitchen, instance.goal)
    if not outcome.solved:
        return
    tree = outcome.tree
    assert validate_tree(instance.kitchen, tree).ok
    if tree.steps:
        restricted = build_graph(list(tree.steps))
        assert reachable_oracle(restricted, instance.kitchen, tree.goal)
    else:
        assert tree.goal in instance.kitchen


@given(st.lists(units, min_size=1, max_size=8))
def test_heuristic_dominance(candidates):
    candidates = sorted(candidates, key=lambda u: u.unit_index)
    best_rate = heuristic_select(candidates, SUCCESS_RATE)
    assert all(best_rate.motion.success_rate >= u.motion.success_rate for u in candidates)
    assert all(
        best_rate.unit_index <= u.unit_index
        for u in candidates
        if u.motion.success_rate == best_rate.motion.success_rate
    )
    best_count = heuristic_select(candidates, INPUT_COUNT)
    assert all(len(best_count.inputs) <= len(u.inputs) for u in candidates)
    assert all(
        best_count.unit_index <= u.unit_index
        for u in candidates
        if len(u.inputs) == len(best_count.inputs)
    )


@settings(max_examples=30)
@given(instances)
def test_dot_export_is_deterministic(instance):
    assert export_dot(instance.graph) == export_dot(instance.graph)


@settings(max_examples=40, deadline=None)
@given(instances)
def test_success_is_monotone_in_max_depth(instance):
    # Raising max_depth above the first successful bound changes nothing.
    outcome = ids_search(instance.graph, instance.kitchen, instance.goal)
    if not outcome.solved:
        return
    first_bound = outcome.stats.final_depth_bound
    for max_depth in (first_bound, first_bound + 1, first_bound + 7):
        deeper = ids_search(
            instance.graph, instance.kitchen, instance.goal, SearchConfig(max_depth)
        )
        assert deeper.stats.final_depth_bound == first_bound
        assert deeper.tree == outcome.tree


@settings(deadline=None)
@given(instances)
def test_graph_inputs_reach_searches_unchanged(instance):
    # searching must not mutate the shared graph or kitchen
    units_before = instance.graph.units
    kitchen_before = frozenset(instance.kitchen.keys)
    ids_search(instance.graph, instance.kitchen, instance.goal)
    assert instance.graph.units == units_before
    assert instance.kitchen.keys == kitchen_before


def min_heights(graph, kitchen):
    """Each reachable key's minimum height: 0 in the kitchen, else the least,
    over its producers, of 1 + the highest height among the unit's inputs.
    Unreachable keys are absent. A plain fixpoint over ``graph.units``."""
    height = dict.fromkeys(kitchen.keys, 0)
    changed = True
    while changed:
        changed = False
        for unit in graph.units:
            if all(key in height for key in unit.input_keys):
                above = 1 + max(height[key] for key in unit.input_keys)
                for key in unit.output_keys:
                    if above < height.get(key, above + 1):
                        height[key] = above
                        changed = True
    return height


@settings(deadline=None)
@given(st.builds(random_instance, st.integers(min_value=0, max_value=10**9),
                 acyclic=st.booleans(), single_producer=st.booleans()))
def test_ids_depth_bound_is_at_most_one_above_the_minimum_height(instance):
    # With a cap above the key count, IDS solves exactly the goals of
    # finite height, and never needs a bound above that height + 1.
    graph, kitchen = instance.graph, instance.kitchen
    height = min_heights(graph, kitchen)
    config = SearchConfig(max_depth=len(instance.pool) + 1)
    for goal in instance.pool:
        outcome = ids_search(graph, kitchen, goal, config)
        assert outcome.solved == (goal.key in height), goal.label
        if outcome.solved:
            assert outcome.stats.final_depth_bound <= height[goal.key] + 1, goal.label
