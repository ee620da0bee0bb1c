"""Property test: any set of schema-valid replies completes and renders.

Code past output validation reads each payload as its schema states it,
a required field by key. documents() draws what a schema accepts, so a
pipeline whose every reply it draws must complete, and its report.md must
re-render from its report.json.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from riskforge.contracts import PLANS, QUESTIONNAIRE_SCHEMA, SCHEMA_MODES, ContractSet
from riskforge.gateway import CompletionResult, ModelConfig
from riskforge.orchestrator import execute_pipeline
from riskforge.report import render_report

CONFIG = ModelConfig(model_id="drawn", context_window_tokens=131072, seed=0)
ARRAYS = ("threats", "risks", "recommendations")


def documents(schema: dict, defs: dict = None):
    """A strategy for documents valid under schema, in exactly the subset
    compile_schema supports: object, array, string, integer, enum and $ref
    to #/$defs/<name>. An optional property is drawn sometimes; an array is
    at most three items longer than its minItems."""
    defs = schema.get("$defs", defs)
    if "$ref" in schema:
        return documents(defs[schema["$ref"].removeprefix("#/$defs/")], defs)
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        properties, required = schema.get("properties", {}), schema.get("required", [])
        return st.fixed_dictionaries(
            {key: documents(properties[key], defs) for key in required},
            optional={key: documents(sub, defs) for key, sub in properties.items()
                      if key not in required})
    if kind == "array":
        low = schema.get("minItems", 0)
        return st.lists(documents(schema["items"], defs), min_size=low,
                        max_size=min(schema.get("maxItems", low + 3), low + 3))
    if kind == "string":
        return st.text(min_size=schema.get("minLength", 0), max_size=6)
    assert kind == "integer", kind
    return st.integers(schema.get("minimum"), schema.get("maximum"))


class DrawnGateway:
    """Answers each role with its drawn document, as JSON."""

    waits_on_io = False

    def __init__(self, replies: dict):
        self.replies = replies

    def complete(self, request):
        return CompletionResult(json.dumps(self.replies[request.role]), 0.0)


def replies(contracts: ContractSet, mode: str):
    """A strategy for one valid reply per role of the mode's plan."""
    roles = [role for stage in PLANS[mode] for role in stage]
    return st.fixed_dictionaries({
        role: documents(contracts.schema(contracts.contract(role).schema_name))
        for role in roles})


CASES = [(mode, schema_mode) for mode in PLANS for schema_mode in SCHEMA_MODES]


@pytest.mark.parametrize("mode, schema_mode", CASES)
def test_any_valid_replies_complete_and_render(corpus, mode, schema_mode):
    contracts = ContractSet(schema_mode)

    @settings(max_examples=20, deadline=None)
    @given(documents(contracts.schema(QUESTIONNAIRE_SCHEMA)), replies(contracts, mode))
    def run(profile, drawn):
        with tempfile.TemporaryDirectory() as out:
            record, _ = execute_pipeline(profile, CONFIG, mode, DrawnGateway(drawn), corpus,
                                         contracts, out_dir=Path(out))
            assert record.completed, (record.failed_stage, record.failure_kind)
            run_dir = Path(out) / record.run_id
            report = json.loads((run_dir / "report.json").read_bytes())
            if mode == "multi_agent":
                # bytes, not read_text(), which would translate a drawn "\r"
                assert render_report(report).encode() == (run_dir / "report.md").read_bytes()
                arrays = {"threats": drawn["threat_modeling"]["threats"],
                          "risks": drawn["risk_scoring"]["risks"],
                          "recommendations": drawn["mitigation"]["recommendations"]}
            else:
                assert report == drawn["single_agent"]
                arrays = {name: drawn["single_agent"][name] for name in ARRAYS}
        assert record.structural_ok == all(len(arrays[name]) == 3 for name in ARRAYS)
    run()
