"""The compiled schema check (compile_schema) against jsonschema.

The check must reach jsonschema's decision on every bundled schema in both
schema modes, and report violations at exactly the paths jsonschema
reports, including the edge cases where Python and JSON Schema disagree:
bools are not numbers, 1.0 is an integer, 30 == 30.0 in an enum, and
NaN/infinity compare as they do there. jsonschema is the oracle here only;
the package never imports it.
"""

import copy
import json
import math

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforge.contracts import (CONTRACTS, DATA_DIR, QUESTIONNAIRE_SCHEMA,
                                 ContractSet, compile_schema, extract_json_object)
from riskforge.errors import Unparseable

MODES = ("case_study", "cross_sector")
CONTRACT_SETS = {mode: ContractSet(schema_mode=mode) for mode in MODES}
SCHEMA_NAMES = sorted(path.name for path in (DATA_DIR / "schemas").glob("*.json"))


def _script_docs(role: str) -> list:
    docs = []
    for path in sorted((DATA_DIR / "stub").glob(f"**/{role}.json")):
        script = json.loads(path.read_text(encoding="utf-8"))
        pools = [script.get("default", []), script.get("on_retry", []),
                 *script.get("profiles", {}).values()]
        for candidate in (c for pool in pools for c in pool):
            if isinstance(candidate, str):
                try:
                    candidate = extract_json_object(candidate)
                except Unparseable:
                    continue
            docs.append(candidate)
    return docs


def _base_docs() -> dict[str, list]:
    """Schema name -> documents the stub scripts and profiles offer for it."""
    bases = {name: [] for name in SCHEMA_NAMES}
    for contract in CONTRACTS.values():
        bases[contract.schema_name] += _script_docs(contract.role)
    bases["single_agent.json"] += _script_docs("single_agent")
    bases[QUESTIONNAIRE_SCHEMA] += [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((DATA_DIR / "profiles").glob("*.json"))]
    return bases


BASES = _base_docs()


def _property_names(schema) -> set:
    names = set()
    if isinstance(schema, dict):
        names.update(schema.get("properties", {}))
        for value in schema.values():
            names |= _property_names(value)
    return names


KEYS = sorted(set().union(*(_property_names(CONTRACT_SETS["cross_sector"].schema(n))
                            for n in SCHEMA_NAMES)))
EDGE_VALUES = [True, False, 0, 1, 1.0, -1, 2.5, 10, 10.0, 11, 30, 30.0, 90, "beyond",
               "Low", "High", "gap", "", "x", None, math.nan, math.inf, -math.inf,
               [], {}, ["x"]]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=3) | st.sampled_from(EDGE_VALUES),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                                     inner, max_size=4)),
    max_leaves=8)


def assert_agrees(check, validator, doc):
    """check(doc) finds a violation exactly when jsonschema does, at the
    same set of paths, and words the violations of a short scalar as
    jsonschema does."""
    violations = check(doc)
    assert (not violations) == validator.is_valid(doc), doc
    errors = list(validator.iter_errors(doc))
    assert {path for path, _ in violations} == {error.json_path for error in errors}, doc
    scalar = sorted((error.json_path, error.message) for error in errors
                    if not isinstance(error.instance, (list, dict))
                    and len(repr(error.instance)) <= 60)
    paths = {path for path, _ in scalar}
    assert [v for v in violations if v[0] in paths] == scalar, doc


def _locations(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _locations(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _locations(value, path + (index,))


def _mutate(doc, data):
    """One random edit somewhere in doc: replace a value, drop or add a
    key, drop or repeat an item, or flip an int/float form. Drawn values
    are copied before they go in, since later edits change doc in place."""
    path = data.draw(st.sampled_from(list(_locations(doc))))
    parent = None
    target = doc
    for step in path:
        parent, target = target, target[step]
    op = data.draw(st.sampled_from(["edge", "edge", "edge", "replace", "drop", "add_key",
                                    "repeat", "flip"]))
    if op == "drop" and parent is not None:
        del parent[path[-1]]
    elif op == "add_key" and isinstance(target, dict):
        key = data.draw(st.sampled_from(KEYS) | st.text(max_size=4))
        target[key] = copy.deepcopy(data.draw(json_values))
    elif op == "repeat" and isinstance(target, list) and target:
        target.append(copy.deepcopy(data.draw(st.sampled_from(target))))
    elif op == "flip" and isinstance(target, (int, float)) and math.isfinite(target):
        flipped = float(target) if isinstance(target, int) else int(target)
        if parent is None:
            return flipped
        parent[path[-1]] = flipped
    else:
        value = copy.deepcopy(
            data.draw(st.sampled_from(EDGE_VALUES) if op == "edge" else json_values))
        if parent is None:
            return value
        parent[path[-1]] = value
    return doc


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_compiled_check_agrees_with_jsonschema(data):
    mode = data.draw(st.sampled_from(MODES), label="mode")
    name = data.draw(st.sampled_from(SCHEMA_NAMES), label="schema")
    contracts = CONTRACT_SETS[mode]
    if data.draw(st.integers(0, 3)):
        doc = copy.deepcopy(data.draw(st.sampled_from(BASES[name])))
    else:
        doc = copy.deepcopy(data.draw(json_values))
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate(doc, data)
    assert_agrees(contracts.checker(name),
                  jsonschema.Draft202012Validator(contracts.schema(name)), doc)


# Values whose repr alone would outgrow any bound on a message.
small_values = st.none() | st.integers(-3, 12) | st.text(max_size=3)
long_values = (st.text(min_size=61, max_size=400)
               | st.lists(small_values, min_size=4, max_size=60)
               | st.dictionaries(st.text(max_size=80), small_values, min_size=4, max_size=40)
               | st.integers(10 ** 60, 10 ** 300))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_message_grows_with_the_rejected_value(data):
    """A long string, a long array or many (long) extra keys anywhere in a
    document never make a message longer than 200 characters."""
    contracts = CONTRACT_SETS[data.draw(st.sampled_from(MODES), label="mode")]
    name = data.draw(st.sampled_from(SCHEMA_NAMES), label="schema")
    doc = [copy.deepcopy(data.draw(st.sampled_from(BASES[name])))]
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_locations(doc[0]))))
        holder, slot = doc, 0
        for step in path:
            holder, slot = holder[slot], step
        if isinstance(holder[slot], dict) and data.draw(st.booleans()):
            holder[slot].update(data.draw(st.dictionaries(
                st.text(min_size=1, max_size=80), small_values, min_size=1, max_size=40)))
        else:
            holder[slot] = data.draw(long_values)
    for _, message in contracts.checker(name)(doc[0]):
        assert len(message) <= 200, message


@pytest.mark.parametrize("schema, value, message", [
    ({"type": "string"}, "x" * 61, None),
    ({"type": "integer"}, "x" * 61, "string of length 61 is not of type 'integer'"),
    ({"type": "string"}, [1, 2], "array of length 2 is not of type 'string'"),
    ({"type": "array"}, {"a": 1}, "object of size 1 is not of type 'array'"),
    ({"type": "integer"}, 10 ** 70, None),
    ({"type": "integer", "maximum": 1}, 10 ** 70, "int of 71 characters is greater than "
                                                  "the maximum of 1"),
    ({"type": "array", "maxItems": 3}, [0] * 4, "4 items, more than maxItems 3"),
    ({"type": "array", "minItems": 3}, [], "0 items, fewer than minItems 3"),
    ({"enum": ["Low", "High"]}, "y" * 70, "string of length 70 is not one of "
                                          "['Low', 'High']"),
    ({"type": "object", "additionalProperties": False}, {"b": 1, "a": 2},
     "Additional properties are not allowed ('a', 'b' were unexpected)"),
    ({"type": "object", "additionalProperties": False}, {str(i): i for i in range(30)},
     "Additional properties are not allowed (30 were unexpected)"),
    ({"type": "object", "additionalProperties": False}, {"k" * 90: 1},
     "Additional properties are not allowed (1 was unexpected)"),
])
def test_a_large_value_is_named_by_its_size(schema, value, message):
    assert compile_schema(schema, "size.json")(value) == (
        (("$", message),) if message else ())


_REMOVE, _EXTEND = object(), object()


def _single_edits(doc):
    """doc with one edit at one location, for every location: each edge
    value in its place, the value removed, and a container given an extra
    key or a repeated item."""
    for path in _locations(doc):
        for edit in [*EDGE_VALUES, _REMOVE, _EXTEND]:
            root = [copy.deepcopy(doc)]
            holder, slot = root, 0
            for step in path:
                holder, slot = holder[slot], step
            target = holder[slot]
            if edit is _REMOVE and path:
                del holder[slot]
            elif edit is _EXTEND and isinstance(target, dict):
                target["zz_extra"] = 1
            elif edit is _EXTEND and isinstance(target, list) and target:
                target.append(copy.deepcopy(target[0]))
            elif edit is _REMOVE or edit is _EXTEND:
                continue
            else:
                holder[slot] = copy.deepcopy(edit)
            yield root[0]


@pytest.mark.parametrize("mode", MODES)
def test_every_single_edit_of_a_base_document_gets_the_same_verdict(mode):
    contracts = CONTRACT_SETS[mode]
    for name, docs in BASES.items():
        assert docs, name
        validator = jsonschema.Draft202012Validator(contracts.schema(name))
        check = contracts.checker(name)
        for doc in docs:
            assert_agrees(check, validator, doc)
        for edited in _single_edits(docs[0]):
            assert_agrees(check, validator, edited)


@pytest.mark.parametrize("schema", [
    {"type": "integer", "minimum": 1, "maximum": 10},
    {"type": "integer", "minimum": 1.5, "maximum": 30},
    {"enum": [1, "x", 30.0]},
    {"enum": [0.0, "beyond"]},
    {"enum": ["Low", "Medium", "High"]},
    {"type": "array", "items": {"type": "integer", "maximum": 10}},
    {"type": "string", "minLength": 1},
    {"type": "array", "minItems": 1, "maxItems": 1},
])
def test_scalar_edge_cases_agree_with_jsonschema(schema):
    """Supported forms, some beyond what the bundled schemas hold (float
    bounds, enums mixing strings and numbers), against values where Python
    and JSON Schema part ways."""
    check = compile_schema(schema, "edge.json")
    validator = jsonschema.Draft202012Validator(schema)
    for value in EDGE_VALUES + [2 ** 70, -0.0, 1e308, 1.5, 30.5]:
        assert_agrees(check, validator, value)


def test_paths_quote_property_names_as_jsonschema_does():
    names = ("plain_1", "two words", "it's", "back\\slash", "1st", "", "tail\n")
    schema = {"type": "object",
              "properties": {name: {"type": "integer"} for name in names}}
    assert_agrees(compile_schema(schema, "names.json"),
                  jsonschema.Draft202012Validator(schema), dict.fromkeys(names, "x"))


DRAFT = "https://json-schema.org/draft/2020-12/schema"


def _compile_threat_model(field_schema):
    """compile_schema over a threat_model.json whose threats property is
    field_schema, or that is field_schema when that names its $schema."""
    schema = field_schema if "$schema" in field_schema else {
        "$schema": DRAFT, "type": "object", "properties": {"threats": field_schema},
        "$defs": {"ok": {"type": "string"}}}
    return compile_schema(schema, "threat_model.json")


@pytest.mark.parametrize("field_schema, keyword", [
    ({"type": "string", "pattern": "^a"}, "'pattern'"),
    ({"type": "string", "description": "free text"}, "'description'"),
    ({"type": "object", "patternProperties": {}}, "'patternProperties'"),
    ({"minLength": 1}, "'minLength'"),  # a string keyword with no "type": "string"
    ({"type": "object", "additionalProperties": {"type": "string"}},
     "additionalProperties"),
    ({"type": ["string", "null"]}, "type"),
    ({"type": "array", "items": True}, "schema form True"),
    ({"enum": [[1, 2]]}, "enum value [1, 2]"),
    ({"type": "array", "minItems": None}, "minItems"),
    ({"type": "integer", "minimum": True}, "minimum"),
    ({"type": "number", "minimum": 1, "maximum": 10}, "type 'number'"),
    ({"type": "boolean"}, "type 'boolean'"),
    ({"type": "null"}, "type 'null'"),
    ({"enum": [1, True, "x", None, 30.0]}, "enum value True"),
    ({"enum": [False, 0.0, "beyond"]}, "enum value False"),
    ({"enum": ["x", None]}, "enum value None"),
    ({"type": "string", "enum": ["x"]}, "'type' beside 'enum'"),
    ({"enum": ["x"], "$ref": "#/$defs/ok"}, "'enum' beside '$ref'"),
    ({"title": "no form"}, "none of 'type', 'enum' and '$ref'"),
    ({"$schema": DRAFT, "$ref": "#/$defs/node", "$defs": {"node": {
        "type": "object", "properties": {"next": {"$ref": "#/$defs/node"}}}}},
     "recursive $ref '#/$defs/node'"),
    ({"$schema": DRAFT, "type": "object", "$defs": ["ok"]}, "$defs must be an object"),
    ({"type": "object", "properties": ["threats"]}, "properties must be an object"),
    ({"type": "object", "required": ["a", 1]}, "required must be a list of strings"),
    ({"enum": "Low"}, "enum must be a list"),
])
def test_unsupported_keyword_raises_naming_it_and_the_file(field_schema, keyword):
    with pytest.raises(ValueError) as exc:
        _compile_threat_model(field_schema)
    assert keyword in str(exc.value)
    assert "threat_model.json" in str(exc.value)


@pytest.mark.parametrize("ref", [
    "other.json#/$defs/ok",
    "https://example.com/schema.json",
    "#/properties/threats",
    "#/$defs/missing",
    "#/$defs/o~1k",
    "#/$defs/",
])
def test_non_local_ref_raises(ref):
    with pytest.raises(ValueError) as exc:
        _compile_threat_model({"$ref": ref})
    assert "$ref" in str(exc.value) and repr(ref) in str(exc.value)
    assert "threat_model.json" in str(exc.value)


def test_local_ref_is_followed():
    check = _compile_threat_model({"$ref": "#/$defs/ok"})
    assert check({"threats": "x"}) == ()
    assert check({"threats": 3}) == (("$.threats", "3 is not of type 'string'"),)
