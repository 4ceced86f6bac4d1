import json

import hypothesis.strategies as st
from hypothesis import given, settings

from foon import (
    INPUT_COUNT,
    SUCCESS_RATE,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    SearchConfig,
    StateDescriptor,
    build_graph,
    export_dot,
    heuristic_select,
    ids_search,
    parse_foon_text,
    reachable_oracle,
    serialize_units,
    validate_tree,
)
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
    all_keys = graph.node_keys() | {n.key for n in instance.pool}
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
    reachable = {key: reachable_oracle(graph, kitchen, key) for key in graph.node_keys()}
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
    large = Kitchen.from_nodes(list(small.nodes) + instance.pool)
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
