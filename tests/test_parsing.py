import json
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import foon.parsing
from foon import (
    ALGORITHMS,
    FoonWarning,
    FunctionalUnit,
    InvalidNodeError,
    MotionNode,
    ObjectNode,
    SchemaError,
    StateDescriptor,
    TaskTree,
    apply_motion_rates,
    build_graph,
    export_dot,
    normalize,
    parse_foon_text,
    parse_goals,
    parse_kitchen,
    parse_motion_rates,
    run_algorithm,
    serialize_task_tree,
    serialize_units,
)
from foon.parsing import RenderMemo
from tests.conftest import SAMPLE_UNIT_TEXT, layered_units, obj, unit
from tests.parse_reference import (
    reference_parse_foon_text,
    reference_parse_state_payload,
)
from tests.randgen import node_record, random_instance
from tests.test_properties import unit_lists


def _count_node_inits(monkeypatch) -> list[int]:
    """A one-item list that counts ``ObjectNode.__init__`` calls from now on."""
    count = [0]
    original = ObjectNode.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ObjectNode, "__init__", counting)
    return count


class TestParseFoonText:
    def test_sample_unit(self, sample_unit):
        u = sample_unit
        assert [n.label for n in u.inputs] == [
            "drinking glas",
            "bucket",
            "ice",
            "measuring cup",
        ]
        assert u.motion.label == "scoop and pour"
        assert [n.label for n in u.outputs] == ["drinking glas", "ice"]
        assert u.inputs[1].ingredients == frozenset({"ice"})
        assert StateDescriptor("in", "bowl") in u.inputs[2].states
        assert StateDescriptor("in", "drinking glass") in u.outputs[1].states
        assert u.unit_index == 0

    def test_letter_o_tag_equivalent_to_zero(self):
        units, diagnostics = parse_foon_text(SAMPLE_UNIT_TEXT.replace("0 ", "O "))
        assert not diagnostics
        zero_units, _ = parse_foon_text(SAMPLE_UNIT_TEXT)
        assert units == zero_units

    def test_empty_input(self):
        assert parse_foon_text("") == ([], [])

    def test_state_line_with_no_object_is_an_error(self):
        units, diagnostics = parse_foon_text("//\nS empty\nM pour\n//\n")
        assert units == []
        assert any(
            d.severity == "error" and d.line_number == 2 for d in diagnostics
        )

    def test_motion_with_no_object_is_an_error(self):
        units, diagnostics = parse_foon_text("//\nM pour\nO cup\n//\n")
        assert units == []
        assert any("motion line" in d.message for d in diagnostics)

    def test_block_without_motion_is_an_error(self):
        units, diagnostics = parse_foon_text("//\nO cup\nS empty\n//\n")
        assert units == []
        assert any("no motion line" in d.message for d in diagnostics)

    def test_second_motion_line_is_an_error(self):
        text = "//\nO cup\nM pour\nM stir\nO cup\nS full\n//\n"
        units, diagnostics = parse_foon_text(text)
        assert units == []
        assert any("more than one motion" in d.message for d in diagnostics)

    def test_empty_state_label_is_an_error(self):
        # "S {milk}" alone is an ingredient-only line, not an empty state.
        for payload in ("{}", "[bowl]", "{milk} [bowl]"):
            text = f"//\nO cup\nS {payload}\nM pour\nO cup\n//\n"
            units, diagnostics = parse_foon_text(text)
            assert units == []
            assert any(d.line_number == 3 for d in diagnostics if d.severity == "error")

    def test_ingredient_only_state_line_adds_ingredients_and_no_state(self):
        units, diagnostics = parse_foon_text(
            "//\nO salt shaker\nS {salt} {pepper}\nM shake\nO soup\nS {salt}\n//\n"
        )
        assert not diagnostics
        shaker, soup = units[0].inputs[0], units[0].outputs[0]
        assert shaker == obj("salt shaker", [], ["pepper", "salt"])
        assert soup == obj("soup", [], ["salt"])

    def test_unknown_tag_is_a_warning(self):
        text = "//\nO cup\nS empty\nX whatever\nM pour\nO cup\nS full\n//\n"
        units, diagnostics = parse_foon_text(text)
        assert len(units) == 1
        assert [d.severity for d in diagnostics] == ["warning"]

    def test_interior_empty_block_is_a_warning(self):
        text = "//\n//\nO cup\nS empty\nM pour\nO cup\nS full\n//\n"
        units, diagnostics = parse_foon_text(text)
        assert len(units) == 1
        assert any("empty" in d.message for d in diagnostics)
        assert all(d.severity == "warning" for d in diagnostics)

    def test_unit_without_outputs_parses_but_does_not_build(self):
        units, diagnostics = parse_foon_text("//\nO cup\nS empty\nM pour\n//\n")
        assert not diagnostics
        assert len(units) == 1
        with pytest.raises(Exception):
            build_graph(units)

    def test_repeated_object_text_parses_its_state_lines_once(self, monkeypatch):
        calls: dict[str, int] = {}
        original = foon.parsing.parse_state_payload

        def counting(payload):
            calls[payload] = calls.get(payload, 0) + 1
            return original(payload)

        monkeypatch.setattr(foon.parsing, "parse_state_payload", counting)
        text = "".join(
            f"//\nO cup\nS dirty {{soap}}\nM rinse\nO plate {i}\nS clean\n"
            for i in range(50)
        )
        units, diagnostics = parse_foon_text(text)
        assert not diagnostics and len(units) == 50
        assert calls == {"dirty {soap}": 1, "clean": 1}
        assert all(u.inputs[0] is units[0].inputs[0] for u in units)

    def test_each_distinct_state_line_set_builds_one_node(self, monkeypatch):
        # The other plates take the first one's states, ingredients and key
        # tail through ObjectNode.with_label, which runs no __init__.
        inits = _count_node_inits(monkeypatch)
        plates = "".join(f"O plate {i}\nS clean\n" for i in range(50))
        units, diagnostics = parse_foon_text(f"//\n{plates}M stack\nO stack\nS tall\n//\n")
        assert not diagnostics and len(units[0].inputs) == 50
        assert inits == [2]
        plate = units[0].inputs[7]
        expected = ObjectNode("plate 7", {StateDescriptor("clean")})
        assert plate == expected and plate.key == expected.key
        assert all(node.states is units[0].inputs[0].states for node in units[0].inputs)

    def test_equal_motion_payloads_share_one_motion(self):
        text = "".join(
            f"//\nO cup {i}\nM {motion}\nO plate {i}\n"
            for i, motion in enumerate(["Rinse", "stir", "Rinse", "stir", "Rinse"])
        )
        units, diagnostics = parse_foon_text(text)
        assert not diagnostics and len(units) == 5
        assert units[0].motion.label == "rinse" and units[1].motion.label == "stir"
        assert all(u.motion is units[i % 2].motion for i, u in enumerate(units))

    @pytest.mark.parametrize(
        "bad, severity, message",
        [
            ("M", "error", "motion label is empty"),
            ("S [bowl]\nM pour", "error", "state label is empty"),
            ("Xy whatever\nM pour", "warning", "unknown line tag 'Xy'"),
        ],
    )
    def test_every_bad_occurrence_reports_its_own_line(self, bad, severity, message):
        # Line 3 of each block is the bad line, whatever else the block reports.
        block = f"//\nO cup\n{bad}\nO plate\n"
        size = block.count("\n")
        _, diagnostics = parse_foon_text(block * 3 + "//\n")
        found = [(d.line_number, d.severity) for d in diagnostics if message in d.message]
        assert found == [(3, severity), (3 + size, severity), (3 + 2 * size, severity)]

    def test_invalid_object_reports_every_occurrence(self):
        block = "//\nO cup\nS {}\nM pour\nO cup\nS full\n"
        units, diagnostics = parse_foon_text(block + block + "//\n")
        assert units == []
        errors = [d.line_number for d in diagnostics if d.severity == "error"]
        assert errors == [3, 9]

    def test_empty_labels_are_reported_by_the_node_types(self):
        for text, line in (
            ("//\nO  \nM pour\nO cup\n//\n", 2),
            ("//\nO cup\nS [bowl]\nM pour\nO cup\n//\n", 3),
            ("//\nO cup\nM\nO cup\n//\n", 3),
        ):
            units, diagnostics = parse_foon_text(text)
            assert units == []
            assert any(
                d.line_number == line and "empty after normalization" in d.message
                for d in diagnostics
            )

    def test_never_raises_on_junk(self):
        for text in ("O\n", "S\n", "M\n", "\x00\x01", "// // //", "O a\nM\n"):
            units, diagnostics = parse_foon_text(text)
            assert isinstance(units, list) and isinstance(diagnostics, list)


_WORDS = ["cup", "Cup", " ice ", "in", "salt", "Big  Bowl", "\u00e9"]
_word = st.sampled_from(_WORDS)
_payloads = st.lists(
    st.one_of(
        _word,
        st.lists(st.sampled_from(_WORDS + ["", " "]), max_size=3).map(
            lambda parts: "{" + ",".join(parts) + "}"
        ),
        st.sampled_from(_WORDS + ["", " "]).map(lambda w: f"[{w}]"),
        st.sampled_from(["", " ", "\t", ",", "{", "}", "[", "]"]),
    ),
    max_size=4,
).map(" ".join)
# Any line of the format, well formed or not, in mixed case and spacing.
_lines = st.one_of(
    st.sampled_from(["//", "// end", "  //", "", "   ", "\t"]),
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", "  ", "\t"]),
            st.sampled_from(["O", "o", "0", "S", "s", "M", "m", "X", "Oo"]),
            st.sampled_from(["", " ", "   ", "\t"]),
            _payloads,
        ),
    ),
)
_object_lines = st.builds(
    lambda tag, label, states: [f"{tag} {label}", *(f"S {s}" for s in states)],
    st.sampled_from(["O", "o", "0"]),
    _word,
    st.lists(_payloads, max_size=3),
)
_blocks = st.builds(
    lambda inputs, motion, outputs: ["//", *sum(inputs, []), motion, *sum(outputs, [])],
    st.lists(_object_lines, min_size=1, max_size=3),
    _word.map(lambda w: f"M {w}"),
    st.lists(_object_lines, max_size=2),
)
# Mostly well-formed blocks over a small vocabulary, so objects repeat,
# with stray lines of any kind between them.
foon_texts = st.one_of(
    st.lists(st.one_of(_blocks, _lines.map(lambda line: [line])), max_size=8).map(
        lambda chunks: "\n".join(line for chunk in chunks for line in chunk)
    ),
    unit_lists.map(serialize_units),
)


def _derived(units):
    """What unit equality does not compare: the slots derived on
    construction. The key tuples are the keys of every input and output."""
    return [(u.input_keys, u.output_keys, u.signature) for u in units]


class TestAgainstReference:
    """The one-pass parser against a frozen copy of the block-object parser."""

    @settings(max_examples=200, deadline=None)
    @given(foon_texts)
    def test_same_units_and_verdict_as_the_reference(self, text):
        units, diagnostics = parse_foon_text(text)
        expected_units, expected_diagnostics = reference_parse_foon_text(text)
        assert units == expected_units
        assert _derived(units) == _derived(expected_units)
        failed = any(d.severity == "error" for d in expected_diagnostics)
        assert any(d.severity == "error" for d in diagnostics) == failed
        if not failed:
            assert diagnostics == expected_diagnostics
        nodes = [n for u in units for n in (*u.inputs, *u.outputs)]
        assert len({n.key for n in nodes}) == len({id(n) for n in nodes})

    @settings(max_examples=1000)
    @given(st.one_of(_payloads, st.text(alphabet=" \t{}[],aB", max_size=12)))
    def test_state_payload_matches_the_reference(self, payload):
        # The reference normalizes ingredients itself; ObjectNode does now.
        try:
            expected = reference_parse_state_payload(payload)
        except ValueError:
            with pytest.raises(InvalidNodeError):
                foon.parsing.parse_state_payload(payload)
            return
        state, ingredients = foon.parsing.parse_state_payload(payload)
        assert state == expected[0]
        assert set(map(normalize, ingredients)) - {""} == expected[1]


def test_layered_graph_text_matches_the_reference(layered):
    text = serialize_units(layered[0].units)
    units, diagnostics = parse_foon_text(text)
    assert not diagnostics and len(units) == len(layered[0].units)
    expected = reference_parse_foon_text(text)
    assert (units, diagnostics) == expected
    assert _derived(units) == _derived(expected[0])


def test_layered_text_builds_one_node_per_distinct_state_line_set(layered, monkeypatch):
    text = serialize_units(layered[0].units)
    objects, state_lines = [], None  # the S payloads of every object
    for line in text.splitlines():
        if line.startswith("S "):
            state_lines.append(line[2:])
            continue
        if state_lines is not None:
            objects.append(tuple(state_lines))
        state_lines = [] if line.startswith("O ") else None
    inits = _count_node_inits(monkeypatch)
    units, diagnostics = parse_foon_text(text)
    assert not diagnostics and len(units) == len(layered[0].units)
    assert len(objects) == 3 * len(units)
    assert inits == [len(set(objects))]


def _set_up_constructions(monkeypatch, text: str, rates: dict[str, float]):
    """The graph that ``text`` and ``rates`` set up, and the
    (``FunctionalUnit.__init__`` calls, ``FunctionalUnit._with`` copies) of
    each stage in turn: the parse, the rates and the graph."""
    counts = [0, 0]
    init, copy = FunctionalUnit.__init__, FunctionalUnit._with

    def counting_init(self, *args, **kwargs):
        counts[0] += 1
        init(self, *args, **kwargs)

    def counting_copy(self, *args, **kwargs):
        counts[1] += 1
        return copy(self, *args, **kwargs)

    monkeypatch.setattr(FunctionalUnit, "__init__", counting_init)
    monkeypatch.setattr(FunctionalUnit, "_with", counting_copy)
    stages = []
    units, diagnostics = parse_foon_text(text)
    assert not diagnostics
    stages.append(tuple(counts))
    counts[:] = [0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FoonWarning)
        units = apply_motion_rates(units, rates)
    stages.append(tuple(counts))
    counts[:] = [0, 0]
    graph = build_graph(units)
    stages.append(tuple(counts))
    return graph, stages


def test_set_up_constructs_each_block_once_and_only_copies_after(monkeypatch):
    # The pour block twice before the rest: the graph drops the second one,
    # so heat and steep move down one index each. Heat has no rate.
    pour = "//\nO pitcher\nS contains {water}\nM pour\nO cup\nS full\n"
    text = (pour + pour + "//\nO cup\nS full\nM heat\nO cup\nS hot\n"
            "//\nO cup\nS hot\nM steep\nO tea\nS hot\n//\n")
    graph, stages = _set_up_constructions(monkeypatch, text, {"pour": 0.9, "steep": 0.5})
    assert stages == [(4, 0), (0, 3), (0, 2)]
    assert [(u.motion.label, u.motion.success_rate, u.unit_index) for u in graph.units] == [
        ("pour", 0.9, 0), ("heat", 1.0, 1), ("steep", 0.5, 2)]


def test_layered_set_up_copies_each_unit_once_for_its_rate(monkeypatch):
    # c8's layered graph: every motion has a rate and no unit is dropped.
    units = layered_units()[0]
    rates = {unit.motion.label: 0.5 for unit in units}
    graph, stages = _set_up_constructions(monkeypatch, serialize_units(units), rates)
    assert len(graph) == len(units) == 5004
    assert stages == [(5004, 0), (0, 5004), (0, 0)]


_key_text = st.text(alphabet=st.sampled_from('aB "\\\u00e9\u2603\U0001f373\t\x07,{}[]'))
_key_label = _key_text.filter(normalize)


class TestNodeKeyEncoding:
    @settings(max_examples=300)
    @given(
        _key_label,
        st.lists(st.tuples(_key_label, st.none() | _key_text), max_size=3),
        st.lists(_key_text, max_size=3),
    )
    def test_key_is_the_compact_json_dumps_of_the_content(self, label, states, ingredients):
        node = ObjectNode(
            label,
            frozenset(StateDescriptor(*state) for state in states),
            frozenset(ingredients),
        )
        content = [
            node.label,
            sorted((s.label, s.relative_container or "") for s in node.states),
            sorted(node.ingredients),
        ]
        assert node.key == json.dumps(content, separators=(",", ":"))


class TestKitchenAndGoals:
    def test_kitchen_entry_matches_parsed_node(self, sample_unit):
        text = '[{"label": "ice", "states": ["crushed", "frozen", "in [bowl]"], "ingredients": []}]'
        kitchen = parse_kitchen(text)
        assert len(kitchen) == 1
        assert sample_unit.inputs[2].key in kitchen

    def test_state_strings_can_carry_ingredients(self):
        kitchen = parse_kitchen('[{"label": "bucket", "states": ["contains {ice}"]}]')
        assert kitchen.nodes[0].ingredients == frozenset({"ice"})

    def test_empty_kitchen(self):
        assert len(parse_kitchen("[]")) == 0

    def test_duplicate_entries_collapse(self):
        text = '[{"label": "a"}, {"label": " A "}]'
        assert len(parse_kitchen(text)) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"label": "a"}',
            '[{"states": []}]',
            '[{"label": "a", "states": "empty"}]',
            '[{"label": "a", "ingredients": {}}]',
            '[{"label": "a", "states": [3]}]',
            '[{"label": "a", "states": [["clean"]]}]',
            '[{"label": "a", "ingredients": [{"salt": 1}]}]',
            '[{"label": "a", "states": ["{x}"]}]',
            '[{"label": ""}]',
            "[42]",
        ],
    )
    def test_schema_errors(self, text):
        with pytest.raises(SchemaError):
            parse_kitchen(text)

    def test_schema_error_names_entry_index(self):
        with pytest.raises(SchemaError, match="entry 1"):
            parse_kitchen('[{"label": "a"}, {"nope": 1}]')

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"label": "  "}', "entry 1: object label is empty"),
            (
                '{"label": "a", "states": ["[bowl]"]}',
                r"entry 1: state '\[bowl\]': state label is empty",
            ),
        ],
    )
    def test_empty_label_error_names_the_entry(self, entry, message):
        with pytest.raises(SchemaError, match=message):
            parse_kitchen(f'[{{"label": "b"}}, {entry}]')

    @pytest.mark.parametrize("parse", [parse_kitchen, parse_goals])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("[bowl]", "state label is empty after normalization"),
            ("{salt}", "state label is empty"),
        ],
    )
    def test_repeated_bad_state_names_the_first_entry(self, parse, bad, message):
        entries = [
            {"label": "a", "states": ["in [bowl]", "cut"]},
            {"label": "b", "states": ["cut", bad]},
            {"label": "c", "states": [bad]},
        ]
        what = "kitchen" if parse is parse_kitchen else "goals"
        expected = f"{what} entry 1: state {bad!r}: {message}"
        with pytest.raises(SchemaError) as excinfo:
            parse(json.dumps(entries))
        assert str(excinfo.value) == expected

    def test_repeated_state_strings_parse_once_per_document(self, monkeypatch):
        calls: dict[str, int] = {}
        original = foon.parsing.parse_state_payload

        def counting(payload):
            calls[payload] = calls.get(payload, 0) + 1
            return original(payload)

        monkeypatch.setattr(foon.parsing, "parse_state_payload", counting)
        entries = [{"label": f"cup {i}", "states": ["clean", "in [rack]"]} for i in range(20)]
        kitchen = parse_kitchen(json.dumps(entries))
        assert len(kitchen) == 20 and calls == {"clean": 1, "in [rack]": 1}
        assert all(StateDescriptor("in", "rack") in node.states for node in kitchen.nodes)

    @pytest.mark.parametrize("parse", [parse_kitchen, parse_goals])
    def test_each_distinct_record_shape_builds_one_node(self, parse, monkeypatch):
        # Later cups take the first one's sets and key tail through
        # ObjectNode.with_label, which runs no __init__.
        inits = _count_node_inits(monkeypatch)
        cups = [{"label": f"cup {i}", "states": ["clean", "in [rack]"]} for i in range(20)]
        bowls = [{"label": f"bowl {i}", "states": ["clean"], "ingredients": ["salt"]}
                 for i in range(5)]
        mugs = [{"label": f"mug {i}", "states": ["clean", "in [rack]"]} for i in range(3)]
        parse(json.dumps(cups + bowls + mugs))
        assert inits == [2]

    def test_records_of_a_repeated_shape_equal_their_own_construction(self):
        clean, racked = StateDescriptor("clean"), StateDescriptor("in", "rack")
        entries = [
            ({"label": "Cup", "states": ["clean", "in [rack]"]}, {clean, racked}, ()),
            ({"label": ' big "cup" ', "states": ["clean", "in [rack]"]}, {clean, racked}, ()),
            ({"label": "café\tcup", "states": ["clean", "in [rack]"]}, {clean, racked}, ()),
            ({"label": "mug", "states": ["in [rack]", "clean"]}, {clean, racked}, ()),
            ({"label": "bowl", "states": ["clean", "in [rack]"], "ingredients": ["salt"]},
             {clean, racked}, ("salt",)),
            ({"label": "pot", "states": ["full {Water}"], "ingredients": [" salt"]},
             {StateDescriptor("full")}, ("water", "salt")),
            ({"label": "Pan", "states": ["full {Water}"], "ingredients": [" salt"]},
             {StateDescriptor("full")}, ("water", "salt")),
            ({"label": "pan", "ingredients": ["oil", ""]}, (), ("oil",)),
            ({"label": "wok", "ingredients": ["oil", ""]}, (), ("oil",)),
        ]
        text = json.dumps([entry for entry, _, _ in entries])
        expected = [ObjectNode(entry["label"], states, ingredients)
                    for entry, states, ingredients in entries]
        goals = parse_goals(text)
        assert goals == expected
        assert [goal.key for goal in goals] == [node.key for node in expected]
        kitchen = parse_kitchen(text)
        assert kitchen.nodes == tuple(sorted(expected, key=lambda node: node.key))

    @pytest.mark.parametrize("seed", range(30))
    def test_randgen_records_equal_their_own_construction(self, seed):
        labelled = [(node, label) for node in random_instance(seed).pool
                    for label in (node.label, f" {node.label.upper()} copy")]
        records = [node_record(node, label) for node, label in labelled]
        expected = [ObjectNode(label, node.states, node.ingredients) for node, label in labelled]
        goals = parse_goals(json.dumps(records))
        assert goals == expected
        assert [goal.key for goal in goals] == [node.key for node in expected]
        kitchen = parse_kitchen(json.dumps(records))
        assert [node.key for node in kitchen.nodes] == sorted(node.key for node in expected)

    def test_goals_preserve_order(self):
        goals = parse_goals('[{"label": "b"}, {"label": "a"}]')
        assert [g.label for g in goals] == ["b", "a"]

    def test_empty_goals(self):
        assert parse_goals("[]") == []

    def test_duplicate_goals_kept_with_warning(self):
        with pytest.warns(FoonWarning, match="duplicate goal"):
            goals = parse_goals('[{"label": "a"}, {"label": "a"}]')
        assert len(goals) == 2


class TestMotionRates:
    def test_single_entry_round_trips(self):
        assert parse_motion_rates('{"scoop and pour": 0.9}') == {"scoop and pour": 0.9}

    def test_empty_map_defaults_everything(self, sample_unit):
        rates = parse_motion_rates("{}")
        assert rates == {}
        with pytest.warns(FoonWarning, match="defaulting to 1.0"):
            units = apply_motion_rates([sample_unit], rates)
        assert units[0].motion.success_rate == 1.0

    def test_out_of_range_rate(self):
        with pytest.raises(SchemaError, match="pour"):
            parse_motion_rates('{"pour": 1.5}')

    def test_duplicate_label_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_motion_rates('{"pour": 0.5, "POUR ": 0.6}')

    @pytest.mark.parametrize("text", ["[]", '{"pour": "high"}', '{"pour": true}', '{"": 0.5}'])
    def test_schema_errors(self, text):
        with pytest.raises(SchemaError):
            parse_motion_rates(text)

    def test_apply_sets_rates_by_normalized_label(self, sample_unit):
        units = apply_motion_rates([sample_unit], {"scoop and pour": 0.25})
        assert units[0].motion.success_rate == 0.25

    def test_apply_matches_rebuilding_each_unit(self):
        instance = random_instance(3)
        rates = {"chop": 0.5, "pour": 0.0, "mix": 1.0, "scoop": 0.75, "bake": 0.1, "stir": 0.2}
        applied = apply_motion_rates(instance.graph.units, rates)
        # Full rebuilds, which compute the keys and signature anew.
        rebuilt = [
            FunctionalUnit(
                u.inputs, MotionNode(u.motion.label, rates[u.motion.label]), u.outputs,
                u.unit_index,
            )
            for u in instance.graph.units
        ]
        assert applied == rebuilt
        for got, want in zip(applied, rebuilt):
            assert got.motion == want.motion
            assert (got.input_keys, got.output_keys, got.signature) == (
                want.input_keys, want.output_keys, want.signature
            )

    def test_apply_normalizes_the_rate_labels(self, sample_unit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            units = apply_motion_rates([sample_unit], {"Scoop  and Pour": 0.25})
        assert units[0].motion.success_rate == 0.25

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"  ": 0.5}', "motion label is empty after normalization"),
            ('{"Pour": 1.5}', "success rate 1.5 outside [0, 1]"),
            # Too large for a float: range-checked before any conversion.
            ('{"Pour": 1' + "0" * 400 + "}", "outside [0, 1]"),
            # Python's json reads these three non-standard words as floats.
            ('{"Pour": NaN}', "success rate nan outside [0, 1]"),
            ('{"Pour": Infinity}', "success rate inf outside [0, 1]"),
            ('{"Pour": -Infinity}', "success rate -inf outside [0, 1]"),
        ],
        ids=["empty-label", "rate-above-one", "rate-beyond-float", "nan", "infinity",
             "minus-infinity"],
    )
    def test_motion_errors_name_the_label(self, text, message):
        label = next(iter(json.loads(text)))
        with pytest.raises(SchemaError) as info:
            parse_motion_rates(text)
        assert message in str(info.value)
        assert repr(label) in str(info.value)


CANONICAL_SAMPLE = SAMPLE_UNIT_TEXT.replace("0 ", "O ")


class TestSerialization:
    def test_sample_unit_serializes_to_canonical_text(self, sample_unit):
        tree = TaskTree(steps=(sample_unit,), goal=sample_unit.outputs[0].key)
        assert serialize_task_tree(tree) == CANONICAL_SAMPLE

    def test_empty_tree_is_empty_text(self):
        tree = TaskTree(steps=(), goal=obj("a").key)
        assert serialize_task_tree(tree) == ""

    def test_two_step_tree_keeps_execution_order(self, chain):
        graph, _, goal = chain
        tree = TaskTree(steps=graph.units, goal=goal.key)
        text = serialize_task_tree(tree)
        units, diagnostics = parse_foon_text(text)
        assert not diagnostics
        assert [u.motion.label for u in units] == ["step one", "step two"]

    def test_round_trip_is_a_fixed_point(self, sample_unit):
        text = serialize_units([sample_unit])
        units, diagnostics = parse_foon_text(text)
        assert not diagnostics
        assert [
            (u.inputs, u.motion.label, u.outputs) for u in units
        ] == [(sample_unit.inputs, sample_unit.motion.label, sample_unit.outputs)]
        assert serialize_units(units) == text

    def test_ingredients_ride_on_first_canonical_state(self):
        node = obj("bowl", ["dirty", "chipped"], ["b", "a"])
        text = serialize_units([unit([obj("x")], "fill", [node])])
        assert "S chipped {a,b}" in text
        units, _ = parse_foon_text(text)
        assert units[0].outputs[0] == node

    def test_ingredients_of_a_stateless_node_get_their_own_line(self):
        node = obj("salt shaker", [], ["salt"])
        text = serialize_units([unit([node], "shake", [obj("x")])])
        assert "O salt shaker\nS {salt}\nM shake" in text
        units, _ = parse_foon_text(text)
        assert units[0].inputs[0].key == node.key


class TestExportDot:
    def test_empty_graph_has_empty_body(self):
        assert export_dot(build_graph([])) == "digraph foon {\n}\n"

    def test_sample_unit_counts(self, sample_graph):
        dot = export_dot(sample_graph)
        lines = dot.splitlines()
        assert sum("shape=box" in l for l in lines) == 6
        assert sum("shape=ellipse" in l for l in lines) == 1
        assert sum("->" in l for l in lines) == 6

    def test_deterministic(self, sample_graph):
        assert export_dot(sample_graph) == export_dot(sample_graph)

    def test_equal_nodes_share_an_identifier(self):
        shared = obj("flour")
        u1 = unit([shared], "sift", [obj("sifted flour")])
        u2 = unit([shared], "weigh", [obj("weighed flour")])
        dot = export_dot(build_graph([u1, u2]))
        assert sum("shape=box" in l for l in dot.splitlines()) == 3

    def test_accepts_task_tree(self, sample_unit):
        tree = TaskTree(steps=(sample_unit,), goal=sample_unit.outputs[0].key)
        assert "scoop and pour" in export_dot(tree)


def _render_goals(graph, kitchen, goals, memo):
    """Render every goal's trees through ``memo`` the way a CLI run does, and
    check each text against the call without a memo. Returns the tree count."""
    rendered = 0
    for goal in goals:
        for algorithm in ALGORITHMS:
            tree = run_algorithm(algorithm, graph, kitchen, goal, 100).tree
            if tree is None:
                continue
            assert serialize_task_tree(tree, memo) == serialize_task_tree(tree)
            assert export_dot(tree, memo) == export_dot(tree)
            rendered += 1
    return rendered


class TestRenderMemo:
    """A memo shared by many renders gives each one the text it gives alone."""

    def test_random_instances_through_one_memo(self):
        memo = RenderMemo()
        rendered = 0
        for seed in range(60):
            instance = random_instance(seed)
            rendered += _render_goals(instance.graph, instance.kitchen, instance.pool, memo)
            assert export_dot(instance.graph, memo) == export_dot(instance.graph)
        assert rendered > 300

    def test_layered_graph_through_one_memo(self, layered):
        graph, kitchen, goals = layered
        memo = RenderMemo()
        assert _render_goals(graph, kitchen, goals, memo) == 3 * len(goals)
        assert export_dot(graph, memo) == export_dot(graph)

    def test_units_that_differ_only_in_input_order_render_apart(self):
        a, b, c = obj("a", ["raw"]), obj("b"), obj("c")
        first, second = unit([a, b], "mix", [c]), unit([b, a], "mix", [c])
        assert first.signature == second.signature
        memo = RenderMemo()
        texts = set()
        for step in (first, second):
            tree = TaskTree(steps=(step,), goal=c.key)
            text = serialize_task_tree(tree, memo)
            assert text == serialize_task_tree(tree)
            assert export_dot(tree, memo) == export_dot(tree)
            texts.add(text)
        assert len(texts) == 2

    def test_ingredient_only_nodes(self):
        shaker, soup = obj("salt shaker", [], ["salt"]), obj("soup", [], ["salt", "water"])
        pot = obj("pot", ["contains"], ["water"])
        steps = (unit([shaker, pot], "season", [soup]), unit([soup], "serve", [obj("bowl")]))
        memo = RenderMemo()
        for tree in (TaskTree(steps[:1], soup.key), TaskTree(steps, steps[1].outputs[0].key)):
            text = serialize_task_tree(tree, memo)
            assert text == serialize_task_tree(tree)
            assert "O salt shaker\nS {salt}\n" in text
            assert "O soup\nS {salt,water}\n" in text
            assert export_dot(tree, memo) == export_dot(tree)

    def test_quotes_and_backslashes(self):
        odd = obj('say "hi"', [("in", "a\\b")], ['x"y'])
        tree = TaskTree(steps=(unit([odd], 'cut \\ "fine"', [obj("z")]),), goal=obj("z").key)
        memo = RenderMemo()
        for _ in range(2):
            assert serialize_task_tree(tree, memo) == serialize_task_tree(tree)
            dot = export_dot(tree, memo)
            assert dot == export_dot(tree)
        assert 'label="say \\"hi\\"\\nin [a\\\\b]\\n{x\\"y}"' in dot
        assert 'label="cut \\\\ \\"fine\\""' in dot

    def test_a_tree_rendered_twice_is_joined_from_node_and_unit_pieces(self, chain):
        graph, _, goal = chain
        tree = TaskTree(steps=graph.units, goal=goal.key)
        memo = RenderMemo()
        for _ in range(2):
            assert serialize_task_tree(tree, memo) == serialize_task_tree(tree)
            assert export_dot(tree, memo) == export_dot(tree)
        assert vars(memo).keys() == {"nodes", "units", "dot_nodes"}
        assert len(memo.nodes) == len(memo.dot_nodes) == 3
        assert len(memo.units) == 2
