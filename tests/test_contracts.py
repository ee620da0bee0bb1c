"""Agent contracts: JSON extraction, schema modes, prompts, retry loop."""

import json

import pytest

from riskforge.context_store import ContextStore
from riskforge.contracts import (CONTRACTS, ENTRY_KINDS, MAX_ATTEMPTS, ROLES,
                                 ContractSet, check_contract_dag,
                                 extract_json_object)
from riskforge.errors import AgentFailed, MissingContextKey, Unparseable
from riskforge.gateway import ModelConfig, StubGateway
from riskforge.tokens import canonical_json


def make_config():
    return ModelConfig(model_id="m", context_window_tokens=131072, seed=0)


def valid_threats(n=3):
    return {"threats": [
        {"title": f"Threat {i}", "actor": "a", "vector": "v", "rationale": "r"}
        for i in range(n)
    ]}


# -- extraction --------------------------------------------------------------

def test_extract_plain_object():
    assert extract_json_object('{"a": 1}') == {"a": 1}


def test_extract_object_wrapped_in_prose():
    raw = 'Sure! Here is the result:\n\n{"threats": []}\n\nHope that helps.'
    assert extract_json_object(raw) == {"threats": []}


def test_extract_respects_braces_inside_strings():
    raw = 'prefix {"text": "look: } and { inside", "n": 1} suffix'
    assert extract_json_object(raw) == {"text": "look: } and { inside", "n": 1}


def test_extract_handles_escaped_quotes():
    raw = '{"quote": "she said \\"}\\" loudly"}'
    assert extract_json_object(raw) == {"quote": 'she said "}" loudly'}


def test_extract_nested_object():
    raw = 'note {"outer": {"inner": {"deep": true}}} done'
    assert extract_json_object(raw) == {"outer": {"inner": {"deep": True}}}


def test_extract_skips_invalid_candidates():
    raw = "{broken then valid: {\"ok\": 1}"
    assert extract_json_object(raw) == {"ok": 1}


def test_extract_raises_when_absent():
    with pytest.raises(Unparseable):
        extract_json_object("no json here at all")
    with pytest.raises(Unparseable):
        extract_json_object("{never closed")


# -- schema modes ------------------------------------------------------------

def test_unknown_schema_mode_rejected():
    with pytest.raises(ValueError):
        ContractSet(schema_mode="freeform")


def test_cross_sector_pins_cardinality(cross_contracts):
    outcome, _ = cross_contracts.validate_output(
        "threat_modeling", json.dumps(valid_threats(2)))
    assert not outcome.valid
    assert outcome.violations[0][0] == "$.threats"

    outcome, _ = cross_contracts.validate_output(
        "threat_modeling", json.dumps(valid_threats(3)))
    assert outcome.valid


def test_case_study_relaxes_register_bounds(case_contracts, cross_contracts):
    def register(n):
        return {"risks": [
            {"title": f"R{i}", "likelihood": "High", "impact": "Medium",
             "reasoning": "x", "linked_threat_titles": ["t"],
             "linked_control_gaps": ["g"]}
            for i in range(n)
        ]}

    ok, _ = case_contracts.validate_output("risk_scoring", json.dumps(register(7)))
    assert ok.valid
    bad, _ = cross_contracts.validate_output("risk_scoring", json.dumps(register(7)))
    assert not bad.valid
    # both modes reject fewer than three
    for contracts in (case_contracts, cross_contracts):
        outcome, _ = contracts.validate_output("risk_scoring", json.dumps(register(2)))
        assert not outcome.valid


def test_invalid_enum_reported_with_path(cross_contracts):
    doc = valid_threats(3)
    doc["threats"][1]["actor"] = ""
    outcome, _ = cross_contracts.validate_output("threat_modeling", json.dumps(doc))
    assert not outcome.valid
    assert any(path.startswith("$.threats[1]") for path, _ in outcome.violations)


# -- prompt assembly ---------------------------------------------------------

def test_assemble_requires_declared_reads(case_contracts):
    store = ContextStore(ENTRY_KINDS)
    with pytest.raises(MissingContextKey) as exc:
        case_contracts.assemble_prompt("threat_modeling", store.snapshot(), [])
    assert exc.value.key == "org_profile"


def test_assemble_sections_and_context_payloads(case_contracts, corpus):
    store = ContextStore(ENTRY_KINDS)
    payload = {"industry": "retail", "summary": "cites PR.IP-4 here"}
    store.append_entry("org_profile", "risk_intake", payload)
    snapshot = store.snapshot()
    grounding = case_contracts.gather_grounding("threat_modeling", snapshot, corpus)
    prompt = case_contracts.assemble_prompt("threat_modeling", snapshot, grounding)
    for section in ("=== SHARED CONTEXT ===", "=== FRAMEWORK EXCERPTS ===",
                    "=== CITATION POLICY ===", "=== TASK ==="):
        assert section in prompt
    assert canonical_json(payload) in prompt
    assert "revision 1" in prompt


def test_questionnaire_placeholder_filled(case_contracts, health_profile):
    store = ContextStore(ENTRY_KINDS)
    questionnaire = canonical_json(health_profile)
    prompt = case_contracts.assemble_prompt(
        "risk_intake", store.snapshot(), [],
        extra={"questionnaire": questionnaire})
    assert questionnaire in prompt
    assert "{{" not in prompt


def test_unfilled_placeholder_is_an_error(case_contracts):
    store = ContextStore(ENTRY_KINDS)
    with pytest.raises(ValueError, match="questionnaire"):
        case_contracts.assemble_prompt("risk_intake", store.snapshot(), [])


def test_grounding_carries_forward_cited_identifiers(case_contracts, corpus):
    store = ContextStore(ENTRY_KINDS)
    store.append_entry("org_profile", "risk_intake",
                       {"summary": "prior work cited RC.RP-1 and CIS Control 8.2"})
    excerpts = case_contracts.gather_grounding(
        "threat_modeling", store.snapshot(), corpus)
    identifiers = {e.identifier for e in excerpts}
    # carried forward from the read entry, beyond the role's own retrieval
    assert {"RC.RP-1", "8.2"} <= identifiers
    retrieved = {e.identifier for e in corpus.retrieve(
        CONTRACTS["threat_modeling"].grounding_query, 2)}
    assert retrieved <= identifiers


def test_grounding_without_corpus_is_empty(case_contracts):
    store = ContextStore(ENTRY_KINDS)
    store.append_entry("org_profile", "risk_intake", {"summary": "PR.AC-1"})
    assert case_contracts.gather_grounding("threat_modeling",
                                           store.snapshot(), None) == []


# -- run_agent retry behavior ------------------------------------------------

def scripted(tmp_path, doc):
    (tmp_path / "threat_modeling.json").write_text(json.dumps(doc), encoding="utf-8")
    return StubGateway(tmp_path)


@pytest.fixture
def seeded_store():
    store = ContextStore(ENTRY_KINDS)
    store.append_entry("org_profile", "risk_intake", {"industry": "saas"})
    return store


def run_threat_modeling(contracts, store, gateway):
    prompt = contracts.build_prompt("threat_modeling", store.snapshot(), None)
    return contracts.run_agent("threat_modeling", prompt, store, gateway, make_config())


def test_run_agent_appends_to_declared_key(cross_contracts, seeded_store, tmp_path):
    gateway = scripted(tmp_path, {"default": [valid_threats()]})
    entry, attempts = run_threat_modeling(cross_contracts, seeded_store, gateway)
    assert attempts == 1
    assert entry.key == "threat_model"
    assert entry.agent_id == "threat_modeling"
    assert seeded_store.read_latest("threat_model").payload == valid_threats()
    # nothing else was written
    assert seeded_store.snapshot().keys() == ["org_profile", "threat_model"]


def test_run_agent_retries_once_then_succeeds(cross_contracts, seeded_store, tmp_path):
    gateway = scripted(tmp_path, {
        "default": [json.dumps(valid_threats(2))],   # cardinality violation
        "on_retry": [valid_threats(3)],
    })
    entry, attempts = run_threat_modeling(cross_contracts, seeded_store, gateway)
    assert attempts == 2
    assert len(entry.payload["threats"]) == 3


def test_run_agent_recovers_from_unparseable_output(cross_contracts, seeded_store,
                                                    tmp_path):
    gateway = scripted(tmp_path, {
        "default": ["I am not JSON at all"],
        "on_retry": [valid_threats(3)],
    })
    _, attempts = run_threat_modeling(cross_contracts, seeded_store, gateway)
    assert attempts == 2


def test_run_agent_fails_after_max_attempts(cross_contracts, seeded_store, tmp_path):
    gateway = scripted(tmp_path, {"default": [json.dumps(valid_threats(1))]})
    with pytest.raises(AgentFailed) as exc:
        run_threat_modeling(cross_contracts, seeded_store, gateway)
    assert exc.value.role == "threat_modeling"
    assert exc.value.violations
    assert MAX_ATTEMPTS == 3
    # the failed agent wrote nothing
    assert seeded_store.snapshot().keys() == ["org_profile"]


def test_retry_prompt_carries_violation_details(cross_contracts, seeded_store,
                                                tmp_path):
    prompts = []

    class Recorder(StubGateway):
        def complete(self, request):
            prompts.append(request.prompt)
            return super().complete(request)

    gateway = Recorder(tmp_path)
    (tmp_path / "threat_modeling.json").write_text(json.dumps({
        "default": [json.dumps(valid_threats(2))],
        "on_retry": [valid_threats(3)],
    }), encoding="utf-8")
    run_threat_modeling(cross_contracts, seeded_store, gateway)
    assert len(prompts) == 2
    assert "$.threats" in prompts[1]
    assert prompts[1].startswith(prompts[0])


# -- combined single-agent pieces -------------------------------------------

def test_combined_task_text_covers_all_roles(case_contracts, health_profile):
    text = case_contracts.combined_task_text(canonical_json(health_profile))
    for role in ROLES:
        assert f"## Stage: {role}" in text
    assert canonical_json(health_profile) in text
    assert "{{" not in text


def test_validate_single_output_requires_three_of_each(cross_contracts):
    doc = {
        "threats": [{"title": f"t{i}", "rationale": "r"} for i in range(3)],
        "risks": [{"title": f"r{i}", "likelihood": "High", "impact": "Low",
                   "reasoning": "x"} for i in range(3)],
        "recommendations": [{"action": f"a{i}", "phase_days": 30,
                             "cost_range": "$0-$1K",
                             "linked_risk_titles": ["r0"]} for i in range(3)],
    }
    outcome, _ = cross_contracts.validate_single_output(json.dumps(doc))
    assert outcome.valid
    doc["risks"].append(doc["risks"][0])
    outcome, _ = cross_contracts.validate_single_output(json.dumps(doc))
    assert not outcome.valid


# -- contract wiring ---------------------------------------------------------

def test_contract_dag_is_consistent():
    check_contract_dag()


def test_every_role_has_template_and_schema(case_contracts):
    for role in ROLES:
        contract = case_contracts.contract(role)
        assert case_contracts.template_text(contract.template_name)
        assert case_contracts.schema(contract.schema_name)


def test_writes_cover_all_entry_kinds():
    assert {c.writes for c in CONTRACTS.values()} == set(ENTRY_KINDS)
