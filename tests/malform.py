"""Malformed copies of valid input files, for the exit-code contract tests.

:func:`malformed` draws one of the ways an input file goes wrong from the
bytes of a valid one: a value of the wrong JSON type, deep nesting, a
truncated file, random bytes spliced in, a byte-order mark, NaN or
Infinity, or an empty file. JSON files are changed at a drawn value
(the whole document included); FOON text at a drawn line.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st

KINDS = ("wrong_type", "deep", "truncate", "splice", "bom", "nan", "empty")

_BOM = b"\xef\xbb\xbf"
# One value of each JSON type, in a few shapes.
_JSON_VALUES = (None, True, False, 0, -7, 2.5, 1e308, "", "x", [], [1, "a"], {}, {"label": 1})
_NAN_TEXT = ("NaN", "Infinity", "-Infinity")
# A JSON string that marks where the filler goes in a dumped document.
_MARK = "@@filler@@"


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _paths(value, path=()):
    yield path
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, (*path, i))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))


def _get(value, path):
    for head in path:
        value = value[head]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    head, *rest = path
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[head] = _replaced(value[head], rest, new)
    return copy


def _nested(draw) -> str:
    depth = draw(st.sampled_from((64, 1_000, 100_000)))
    if draw(st.booleans()):
        return "[" * depth + "]" * depth
    return '{"a":' * depth + "1" + "}" * depth


@st.composite
def malformed(draw, raw: bytes, is_json: bool) -> tuple[str, bytes]:
    """Draw ``(kind, bytes)``: one malformation of the valid file ``raw``."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "empty":
        return kind, draw(st.sampled_from((b"", b" \n", _BOM)))
    if kind == "bom":
        at = draw(st.sampled_from((0, len(raw) // 2)))
        return kind, raw[:at] + _BOM * draw(st.integers(1, 2)) + raw[at:]
    if kind == "truncate":
        return kind, raw[: draw(st.integers(0, max(len(raw) - 1, 0)))]
    if kind == "splice":
        at = draw(st.integers(0, len(raw)))
        cut = draw(st.integers(0, 4))
        return kind, raw[:at] + draw(st.binary(min_size=1, max_size=12)) + raw[at + cut:]

    text = raw.decode("utf-8")
    if is_json:
        value = json.loads(text)
        path = draw(st.sampled_from(list(_paths(value))))
        if kind == "wrong_type":
            old = _json_type(_get(value, path))
            new = draw(st.sampled_from([v for v in _JSON_VALUES if _json_type(v) != old]))
            return kind, json.dumps(_replaced(value, path, new)).encode()
        dumped = json.dumps(_replaced(value, path, _MARK))
        filler = _nested(draw) if kind == "deep" else draw(st.sampled_from(_NAN_TEXT))
        return kind, dumped.replace(json.dumps(_MARK), filler).encode()

    lines = text.split("\n")
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "wrong_type":
        # A line's payload under another tag, or under a JSON document.
        payload = lines[at].split(None, 1)[1:]
        tag = draw(st.sampled_from(("O", "S", "M", "//", "X", "[]", "{}")))
        lines[at] = " ".join([tag, *payload])
    else:
        tag = draw(st.sampled_from(("O", "S", "M")))
        filler = _nested(draw) if kind == "deep" else draw(st.sampled_from(_NAN_TEXT))
        lines.insert(at, f"{tag} {filler}")
    return kind, "\n".join(lines).encode()
