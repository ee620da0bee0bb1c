"""The compiled schema check (compile_schema) against jsonschema.

The check must reach jsonschema's decision on every bundled schema in both
schema modes, including the edge cases where Python and JSON Schema
disagree: bools are not numbers, 1.0 is an integer, 30 == 30.0 in an enum,
and NaN/infinity compare as they do there.
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
    expected = jsonschema.Draft202012Validator(contracts.schema(name)).is_valid(doc)
    assert contracts.acceptor(name)(doc) == expected


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
        accepts = contracts.acceptor(name)
        for doc in docs:
            assert accepts(doc) == validator.is_valid(doc)
        for edited in _single_edits(docs[0]):
            assert accepts(edited) == validator.is_valid(edited), edited


@pytest.mark.parametrize("schema", [
    {"type": "number", "minimum": 1, "maximum": 10},
    {"type": "integer", "minimum": 1.5, "maximum": 30},
    {"enum": [1, True, "x", None, 30.0]},
    {"enum": [False, 0.0, "beyond"]},
    {"type": "boolean"},
    {"type": "null"},
    {"type": "string", "minLength": 1},
    {"type": "array", "minItems": 1, "maxItems": 1},
])
def test_scalar_edge_cases_agree_with_jsonschema(schema):
    """Keyword forms the bundled schemas hold only under another type."""
    accepts = compile_schema(schema, "edge.json")
    validator = jsonschema.Draft202012Validator(schema)
    for value in EDGE_VALUES + [2 ** 70, -0.0, 1e308, 1.5, 30.5]:
        assert accepts(value) == validator.is_valid(value), value


def test_recursive_local_ref():
    schema = {"$ref": "#/$defs/node", "$defs": {"node": {
        "type": "object", "required": ["v"],
        "properties": {"v": {"type": "integer"}, "next": {"$ref": "#/$defs/node"}},
        "additionalProperties": False}}}
    accepts = compile_schema(schema, "list.json")
    assert accepts({"v": 1, "next": {"v": 2.0, "next": {"v": 3}}})
    assert not accepts({"v": 1, "next": {"v": True}})
    assert not accepts({"v": 1, "next": {"v": 2, "extra": 0}})


def _schema_dir(tmp_path, field_schema):
    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema",
              "type": "object", "properties": {"threats": field_schema},
              "$defs": {"ok": {"type": "string"}}}
    (tmp_path / "threat_model.json").write_text(json.dumps(schema), encoding="utf-8")
    return ContractSet(schemas_dir=tmp_path, schema_mode="cross_sector")


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
])
def test_unsupported_keyword_raises_naming_it_and_the_file(tmp_path, field_schema,
                                                          keyword):
    contracts = _schema_dir(tmp_path, field_schema)
    with pytest.raises(ValueError) as exc:
        contracts.validate_output("threat_modeling", '{"threats": []}')
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
def test_non_local_ref_raises(tmp_path, ref):
    contracts = _schema_dir(tmp_path, {"$ref": ref})
    with pytest.raises(ValueError) as exc:
        contracts.acceptor("threat_model.json")
    assert "$ref" in str(exc.value) and repr(ref) in str(exc.value)
    assert "threat_model.json" in str(exc.value)


def test_local_ref_is_followed(tmp_path):
    accepts = _schema_dir(tmp_path, {"$ref": "#/$defs/ok"}).acceptor("threat_model.json")
    assert accepts({"threats": "x"})
    assert not accepts({"threats": 3})
