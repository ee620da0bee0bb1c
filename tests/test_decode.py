"""decode: the typed records riskforge reads from files, from their JSON."""

import dataclasses
import json
import re
from typing import Any, Optional, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from riskforge.evalkit import SEVERITY_LABELS, ModelSpec, PractitionerAnnotation
from riskforge.orchestrator import RunRecord
from riskforge.records import decode
from riskforge.risk_model import RiskItem

LEVELS = ["Low", "Medium", "High"]
text = st.text(max_size=8)
titles = st.lists(text, max_size=3)
finite = st.floats(allow_nan=False, allow_infinity=False)

RECORDS = {
    RunRecord: st.builds(
        RunRecord, run_id=text, profile_id=text, model_id=text, mode=text,
        seed=st.integers(), completed=st.booleans(), failed_stage=st.none() | text,
        failure_kind=st.none() | text, wall_seconds=finite | st.integers(),
        structural_ok=st.booleans(), unique_threat_titles=titles),
    RiskItem: st.builds(
        RiskItem, title=text, likelihood=st.sampled_from(LEVELS),
        impact=st.sampled_from(LEVELS), reasoning=text, linked_threat_titles=titles,
        linked_control_gaps=titles),
    PractitionerAnnotation: st.builds(
        PractitionerAnnotation, assessor_id=text, risk_title=text,
        severity=st.sampled_from(SEVERITY_LABELS)),
    ModelSpec: st.builds(ModelSpec, label=text, script=text,
                         context_window_tokens=st.integers(1025, 2**31)),
}
records = st.sampled_from(list(RECORDS)).flatmap(RECORDS.get)

# One strategy per JSON type, and the JSON types each field type accepts.
JSON_TYPES = {
    "string": text, "integer": st.integers(), "number": finite, "boolean": st.booleans(),
    "null": st.none(), "array": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(text, st.integers(), max_size=2),
}
ACCEPTS = {str: {"string"}, int: {"integer"}, float: {"integer", "number"},
           bool: {"boolean"}, Optional[str]: {"string", "null"}, list[str]: {"array"}}


def json_keys(cls) -> dict:
    """Each field of a dataclass by its JSON key: its name unless its
    metadata gives a "key" (ModelSpec's context_window_tokens is window)."""
    return {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}


def as_json(record) -> dict:
    doc = json.loads(json.dumps(dataclasses.asdict(record)))
    return {key: doc[f.name] for key, f in json_keys(type(record)).items()}


@settings(max_examples=200, deadline=None)
@given(records)
def test_a_record_survives_a_json_round_trip(record):
    assert decode(type(record), as_json(record)) == record


@settings(max_examples=200, deadline=None)
@given(records, st.data())
def test_a_field_of_another_json_type_is_named(record, data):
    hints = get_type_hints(type(record))
    keys = json_keys(type(record))
    name = data.draw(st.sampled_from(sorted(keys)))
    other = data.draw(st.sampled_from(sorted(set(JSON_TYPES)
                                             - ACCEPTS[hints[keys[name].name]])))
    doc = as_json(record)
    doc[name] = data.draw(JSON_TYPES[other])
    with pytest.raises(TypeError) as exc:
        decode(type(record), doc)
    assert str(exc.value).startswith(f"{name} must be ")


@settings(max_examples=100, deadline=None)
@given(records.filter(lambda r: isinstance(r, (RunRecord, RiskItem))), st.data())
def test_a_list_item_of_another_json_type_is_named(record, data):
    lists = sorted(name for name, hint in get_type_hints(type(record)).items()
                   if hint == list[str])
    name = data.draw(st.sampled_from(lists))
    doc = as_json(record)
    index = data.draw(st.integers(0, len(doc[name])))
    other = data.draw(st.sampled_from(sorted(set(JSON_TYPES) - {"string"})))
    doc[name].insert(index, data.draw(JSON_TYPES[other]))
    with pytest.raises(TypeError) as exc:
        decode(type(record), doc)
    assert str(exc.value).startswith(f"{name}[{index}] must be str, not ")


@given(st.booleans())
def test_a_bool_is_no_int(flag):
    with pytest.raises(TypeError, match="^document must be int, not bool$"):
        decode(int, flag)


@given(st.integers())
def test_an_int_passes_as_a_float(number):
    assert decode(float, number) == number


@pytest.mark.parametrize("tp", [str, int, float, bool, list[str], tuple[str, str],
                                RiskItem])
def test_null_passes_only_where_optional(tp):
    """Only a scalar's Optional decodes: every Optional field wraps one."""
    with pytest.raises(TypeError, match="^document must be .*, not NoneType$"):
        decode(tp, None)
    if tp in (str, int, float, bool):
        assert decode(Optional[tp], None) is None
    assert decode(Any, None) is None


def test_missing_and_unknown_keys_are_named_after_path():
    with pytest.raises(TypeError, match=r"^models\[0\]\.script is missing$"):
        decode(list[ModelSpec], [{"label": "a"}], "models")
    with pytest.raises(TypeError,
                       match=r"^\[1\]\.context_window_tokens is not a field of ModelSpec$"):
        decode(list[ModelSpec], [{"label": "a", "script": "s"},
                                 {"label": "b", "script": "s", "context_window_tokens": 4096}])


def test_a_type_it_cannot_decode_is_named():
    for tp, name in [(set[str], "set[str]"), (Optional[list[str]], "Optional[list[str]]"),
                     (Optional[tuple[str, str]], "Optional[tuple[str, str]]"),
                     (Optional[RiskItem], "Optional[RiskItem]")]:
        with pytest.raises(TypeError, match=f"^cannot decode {re.escape(name)}$"):
            decode(tp, None)


def test_pairs_decode_as_tuples():
    assert decode(list[tuple[str, str]], [["a", "b"]]) == [("a", "b")]
