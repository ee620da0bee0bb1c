"""Agent contracts: JSON extraction, schema modes, prompts, retry loop."""

import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from riskforge import gateway as gateway_mod
from riskforge.context_store import ContextStore
from riskforge.contracts import (CONTRACTS, DATA_DIR, ENTRY_KINDS, ITEM_BOUNDS, MAX_ATTEMPTS,
                                 NO_OBJECT_VIOLATION, PLANS, ROLES, SINGLE_AGENT,
                                 SINGLE_AGENT_ROLE, STAGES, SURROGATE_VIOLATION, AgentContract,
                                 ContractSet, extract_json_object, stage_plan)
from riskforge.errors import AgentFailed, ContextOverflow, RiskforgeError
from riskforge.gateway import HttpGateway, ModelConfig, StubGateway
from riskforge.grounding import Corpus
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


def test_text_without_an_object_is_a_violation(case_contracts):
    for raw in ["no json here at all", "{never closed", '["a list"]']:
        assert extract_json_object(raw) is None
        assert case_contracts.validate_output("threat_modeling", raw) == (
            (NO_OBJECT_VIOLATION,), None)


def test_unknown_role_has_no_contract(case_contracts):
    with pytest.raises(KeyError, match="unknown agent role 'auditor'"):
        case_contracts.contract("auditor")


# -- schema modes ------------------------------------------------------------

def test_unknown_schema_mode_rejected():
    with pytest.raises(ValueError):
        ContractSet(schema_mode="freeform")


def test_cross_sector_pins_cardinality(cross_contracts):
    violations, _ = cross_contracts.validate_output(
        "threat_modeling", json.dumps(valid_threats(2)))
    assert violations[0][0] == "$.threats"

    violations, _ = cross_contracts.validate_output(
        "threat_modeling", json.dumps(valid_threats(3)))
    assert violations == ()


def test_case_study_relaxes_register_bounds(case_contracts, cross_contracts):
    def risks(n):
        return [{"title": f"R{i}", "likelihood": "High", "impact": "Medium",
                 "reasoning": "x"} for i in range(n)]

    def register(n):
        return {"risks": [{**risk, "linked_threat_titles": ["t"],
                           "linked_control_gaps": ["g"]} for risk in risks(n)]}

    def single_agent(n):  # three threats and three recommendations around n risks
        return {"threats": [{"title": f"T{i}", "rationale": "r"} for i in range(3)],
                "risks": risks(n),
                "recommendations": [{"action": f"A{i}", "phase_days": 30, "cost_range": "low",
                                     "linked_risk_titles": ["R0"]} for i in range(3)]}

    for role, document in (("risk_scoring", register), (SINGLE_AGENT_ROLE, single_agent)):
        ok, _ = case_contracts.validate_output(role, json.dumps(document(7)))
        assert ok == ()
        bad, _ = cross_contracts.validate_output(role, json.dumps(document(7)))
        assert bad == (("$.risks", "7 items, more than maxItems 3"),)
        # both modes reject fewer than three
        for contracts in (case_contracts, cross_contracts):
            violations, _ = contracts.validate_output(role, json.dumps(document(2)))
            assert violations == (("$.risks", "2 items, fewer than minItems 3"),)


def test_no_schema_file_states_the_item_bounds():
    """Each mode's bounds on the top-level threats, risks and recommendations
    arrays live in ITEM_BOUNDS alone, which names those three in every mode."""
    arrays = ("threats", "risks", "recommendations")
    assert all(tuple(bounds) == arrays for bounds in ITEM_BOUNDS.values())
    for path in sorted((DATA_DIR / "schemas").glob("*.json")):
        properties = json.loads(path.read_text(encoding="utf-8")).get("properties", {})
        for name in arrays:
            stated = sorted({"minItems", "maxItems"}.intersection(properties.get(name, {})))
            assert not stated, f"{path.name}: {name} states {stated}"


def test_invalid_enum_reported_with_path(cross_contracts):
    doc = valid_threats(3)
    doc["threats"][1]["actor"] = ""
    violations, _ = cross_contracts.validate_output("threat_modeling", json.dumps(doc))
    assert violations
    assert any(path.startswith("$.threats[1]") for path, _ in violations)


@pytest.mark.parametrize("title, valid", [
    (r'"\ud800 alone"', False),
    (r'"low \uDC00 alone"', False),
    (r'"\ud83d\u0041"', False),          # a high surrogate before no low one
    (r'"\ude00\ud83d"', False),          # a pair in the wrong order
    ('"raw \ud800"', False),              # a raw one an outer decode left
    (r'"\ud83d\ude00 paired"', True),
    (r'"\\ud800 an escaped backslash"', True),
    ('"plain"', True),
], ids=["high", "low", "high_then_ascii", "reversed", "raw", "paired", "backslash",
        "plain"])
@pytest.mark.parametrize("prose", ["", "note \ud800: "], ids=["bare", "after_prose"])
def test_unpaired_surrogate_is_a_violation(cross_contracts, title, valid, prose):
    """I-JSON (RFC 7493 section 2.1): no string holds an unpaired surrogate,
    which could not be written as UTF-8 to a log or a prompt. One in the
    prose around the object is not in the document."""
    raw = prose + json.dumps(valid_threats(3)).replace('"Threat 0"', title)
    violations, doc = cross_contracts.validate_output("threat_modeling", raw)
    assert violations == (() if valid else (SURROGATE_VIOLATION,))
    assert doc["threats"][0]["title"] == json.loads(title)


def test_unpaired_surrogate_joins_the_schema_violations(cross_contracts):
    doc = valid_threats(2)
    doc["threats"][0]["title"] = "\ud800"
    violations, _ = cross_contracts.validate_output("threat_modeling", json.dumps(doc))
    assert violations == (SURROGATE_VIOLATION,
                          ("$.threats", "2 items, fewer than minItems 3"))


# -- prompt assembly ---------------------------------------------------------

def test_assemble_requires_declared_reads(case_contracts, corpus):
    snapshot = ContextStore().snapshot()
    absent = r"^role 'threat_modeling' requires context key 'org_profile' which is absent$"
    with pytest.raises(RiskforgeError, match=absent):
        case_contracts.assemble_prompt("threat_modeling", snapshot, [], "{}")
    # build_prompt gathers grounding first, which skips the absent read
    with pytest.raises(RiskforgeError, match=absent):
        case_contracts.build_prompt("threat_modeling", snapshot, corpus, "{}")


def test_assemble_sections_and_context_payloads(case_contracts, corpus):
    store = ContextStore()
    payload = {"industry": "retail", "summary": "cites PR.IP-4 here"}
    store.append_entry("org_profile", "risk_intake", payload)
    snapshot = store.snapshot()
    grounding = case_contracts.gather_grounding("threat_modeling", snapshot, corpus)
    prompt = case_contracts.assemble_prompt("threat_modeling", snapshot, grounding, "{}")
    for section in ("=== SHARED CONTEXT ===", "=== FRAMEWORK EXCERPTS ===",
                    "=== CITATION POLICY ===", "=== TASK ==="):
        assert section in prompt
    assert canonical_json(payload) in prompt
    assert "revision 1" in prompt


def test_questionnaire_placeholder_filled(case_contracts, health_profile):
    store = ContextStore()
    questionnaire = canonical_json(health_profile)
    prompt = case_contracts.assemble_prompt("risk_intake", store.snapshot(), [],
                                            questionnaire)
    assert questionnaire in prompt
    assert "{{" not in prompt


def test_every_template_placeholder_is_the_questionnaire(request, corpus, health_profile):
    """The templates are bundled data, and build_prompt fills one
    placeholder, {{questionnaire}}: each template holds no other, and no
    prompt over a completed health_15 run keeps a "{{". The run is set up
    after the templates are checked, as a wrong placeholder fails it."""
    for path in sorted((DATA_DIR / "templates").glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        placeholders = re.findall(r"\{\{(.*?)\}\}", text, re.DOTALL)
        assert set(placeholders) <= {"questionnaire"}, path.name
        assert text.count("{{") == len(placeholders), path.name
    run_dir = request.getfixturevalue("case_study_run")
    contracts = ContractSet(schema_mode="case_study")
    snapshot = ContextStore.load(run_dir / "session.jsonl").snapshot()
    questionnaire = canonical_json(health_profile)
    for role in (*ROLES, SINGLE_AGENT_ROLE):
        assert "{{" not in contracts.build_prompt(role, snapshot, corpus, questionnaire), role


def test_grounding_carries_forward_cited_identifiers(case_contracts, corpus):
    store = ContextStore()
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
    store = ContextStore()
    store.append_entry("org_profile", "risk_intake", {"summary": "PR.AC-1"})
    assert case_contracts.gather_grounding("threat_modeling",
                                           store.snapshot(), Corpus([])) == []


@pytest.mark.parametrize("role", ["risk_intake", SINGLE_AGENT_ROLE])
def test_context_free_prompt_is_built_once_per_contract_set(case_contracts, corpus,
                                                             health_profile, role):
    """A role that reads no context gets the same str for an equal
    (corpus, questionnaire), and a new one for another questionnaire,
    another corpus or another ContractSet."""
    snapshot = ContextStore().snapshot()
    questionnaire = canonical_json(health_profile)
    first = case_contracts.build_prompt(role, snapshot, corpus, questionnaire)
    equal_copy = questionnaire[:1] + questionnaire[1:]
    assert equal_copy is not questionnaire
    assert case_contracts.build_prompt(role, snapshot, corpus, equal_copy) is first
    other = canonical_json({**health_profile, "employee_count": 16})
    assert case_contracts.build_prompt(role, snapshot, corpus, other) != first
    rebuilt = [case_contracts.build_prompt(role, snapshot, Corpus(corpus.excerpts),
                                           questionnaire),
               ContractSet(schema_mode="case_study").build_prompt(role, snapshot, corpus,
                                                                  questionnaire)]
    assert rebuilt == [first, first]
    assert all(prompt is not first for prompt in rebuilt)


def test_prompt_that_reads_context_is_built_on_every_call(case_contracts, corpus,
                                                          seeded_store, monkeypatch):
    assembled = []
    assemble = ContractSet.assemble_prompt
    monkeypatch.setattr(ContractSet, "assemble_prompt",
                        lambda self, role, *args, **kwargs: assembled.append(role)
                        or assemble(self, role, *args, **kwargs))
    prompts = [case_contracts.build_prompt("threat_modeling", seeded_store.snapshot(),
                                           corpus, "{}") for _ in range(2)]
    assert assembled == ["threat_modeling"] * 2
    assert prompts[0] == prompts[1] and prompts[0] is not prompts[1]


# -- run_agent retry behavior ------------------------------------------------

def scripted(tmp_path, doc):
    (tmp_path / "threat_modeling.json").write_text(json.dumps(doc), encoding="utf-8")
    return StubGateway(tmp_path)


@pytest.fixture
def seeded_store():
    store = ContextStore()
    store.append_entry("org_profile", "risk_intake", {"industry": "saas"})
    return store


def run_threat_modeling(contracts, store, gateway):
    prompt = contracts.build_prompt("threat_modeling", store.snapshot(), Corpus([]), "{}")
    return contracts.run_agent("threat_modeling", prompt, store, gateway, make_config())


def test_run_agent_appends_to_declared_key(cross_contracts, seeded_store, tmp_path):
    gateway = scripted(tmp_path, {"default": [valid_threats()]})
    entry, attempts = run_threat_modeling(cross_contracts, seeded_store, gateway)
    assert attempts == 1
    assert entry.key == "threat_model"
    assert entry.agent_id == "threat_modeling"
    assert seeded_store.snapshot()["threat_model"].payload == valid_threats()
    # nothing else was written
    assert list(seeded_store.snapshot()) == ["org_profile", "threat_model"]


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


def test_run_agent_retries_an_unpaired_surrogate(cross_contracts, seeded_store,
                                                 tmp_path):
    spoiled = json.dumps(valid_threats(3)).replace('"Threat 0"', r'"\udfff"')
    gateway = scripted(tmp_path, {"default": [spoiled], "on_retry": [valid_threats(3)]})
    entry, attempts = run_threat_modeling(cross_contracts, seeded_store, gateway)
    assert attempts == 2
    assert entry.payload == valid_threats(3)


def test_run_agent_fails_after_max_attempts(cross_contracts, seeded_store, tmp_path):
    gateway = scripted(tmp_path, {"default": [json.dumps(valid_threats(1))]})
    with pytest.raises(AgentFailed, match=r"^agent 'threat_modeling' failed after retries: "
                                          r"\[\('\$\.threats', .+\)\]$"):
        run_threat_modeling(cross_contracts, seeded_store, gateway)
    assert MAX_ATTEMPTS == 3
    # the failed agent wrote nothing
    assert list(seeded_store.snapshot()) == ["org_profile"]


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
    assert prompts[1][len(prompts[0]):] == (
        "\n\n=== PREVIOUS OUTPUT FAILED VALIDATION ===\n"
        "Your previous output did not satisfy the schema:\n"
        "- $.threats: 2 items, fewer than minItems 3\n"
        "Emit a corrected JSON object.")


def test_run_agent_checks_window_before_provider(cross_contracts, seeded_store, tmp_path):
    calls = []

    class Recorder(StubGateway):
        def complete(self, request):
            calls.append(request)
            return super().complete(request)

    scripted(tmp_path, {"default": [valid_threats()]})
    config = ModelConfig(model_id="m", context_window_tokens=4096, seed=0)
    # 4000 prompt tokens + 1024 reserved > 4096 window
    with pytest.raises(ContextOverflow) as exc:
        cross_contracts.run_agent("threat_modeling", "x" * 16000, seeded_store,
                                  Recorder(tmp_path), config)
    assert (exc.value.decision.prompt_tokens,
            exc.value.decision.context_window_tokens) == (4000, 4096)
    assert calls == []
    assert list(seeded_store.snapshot()) == ["org_profile"]


def test_run_agent_window_check_precedes_network(cross_contracts, seeded_store,
                                                monkeypatch):
    # An unreachable server is never contacted when the prompt cannot fit:
    # contacting it would raise ProviderError instead.
    monkeypatch.setattr(gateway_mod, "HTTP_TIMEOUT_SECONDS", 0.2)
    monkeypatch.setattr(gateway_mod, "HTTP_RETRIES", 0)
    gateway = HttpGateway("http://127.0.0.1:1")
    config = ModelConfig(model_id="m", context_window_tokens=4096)
    with pytest.raises(ContextOverflow):
        cross_contracts.run_agent("threat_modeling", "x" * 16000, seeded_store,
                                  gateway, config)


# Runs with every import of jsonschema failing; argv[1] holds a
# threat_modeling script that fails validation once, then passes.
_WITHOUT_JSONSCHEMA = """
import json, sys
sys.modules["jsonschema"] = None  # "import jsonschema" now raises ImportError
from riskforge.context_store import ContextStore
from riskforge.contracts import DATA_DIR, ContractSet
from riskforge.errors import ProfileInvalid
from riskforge.gateway import ModelConfig, StubGateway
from riskforge.grounding import Corpus
from riskforge.orchestrator import check_profile

contracts = ContractSet(schema_mode="cross_sector")
profile = json.loads((DATA_DIR / "profiles" / "health_15.json").read_text(encoding="utf-8"))
try:
    check_profile({**profile, "employee_count": 0}, contracts)
except ProfileInvalid as exc:
    print(exc)
store = ContextStore()
store.append_entry("org_profile", "risk_intake", {"industry": "saas"})
prompt = contracts.build_prompt("threat_modeling", store.snapshot(), Corpus([]), "{}")
entry, attempts = contracts.run_agent("threat_modeling", prompt, store,
                                      StubGateway(sys.argv[1]), ModelConfig("m", seed=0))
print(attempts, len(entry.payload["threats"]))
"""


def test_validation_needs_no_jsonschema(tmp_path, package_env):
    """jsonschema is a test oracle only: without it a bad questionnaire is
    still rejected, and a rejected output is explained and re-prompted."""
    scripted(tmp_path, {"default": [valid_threats(2)], "on_retry": [valid_threats(3)]})
    done = subprocess.run([sys.executable, "-c", _WITHOUT_JSONSCHEMA, str(tmp_path)],
                          capture_output=True, text=True, env=package_env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "questionnaire invalid: $.employee_count: 0 is less than the minimum of 1", "2 3"]


def test_violations_are_sorted_path_message_pairs(cross_contracts):
    doc = valid_threats(2)
    doc["threats"][1].update(actor="", x=1)
    violations, _ = cross_contracts.validate_output("threat_modeling", json.dumps(doc))
    assert violations == (
        ("$.threats", "2 items, fewer than minItems 3"),
        ("$.threats[1]", "Additional properties are not allowed ('x' was unexpected)"),
        ("$.threats[1].actor", "'' should be non-empty"),
    )


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
    violations, _ = cross_contracts.validate_single_output(json.dumps(doc))
    assert violations == ()
    doc["risks"].append(doc["risks"][0])
    violations, _ = cross_contracts.validate_single_output(json.dumps(doc))
    assert violations == (("$.risks", "4 items, more than maxItems 3"),)


# -- contract wiring ---------------------------------------------------------

def test_contract_dag_is_consistent():
    # the plan, roles and kinds derived from the contracts, as once written by hand
    assert STAGES == (
        ("risk_intake",),
        ("threat_modeling", "control_assessment"),
        ("risk_scoring",),
        ("mitigation",),
        ("report_synthesis",),
    )
    assert ROLES == ("risk_intake", "threat_modeling", "control_assessment",
                     "risk_scoring", "mitigation", "report_synthesis")
    assert ENTRY_KINDS == ("org_profile", "threat_model", "control_assessment",
                           "risk_register", "recommendations", "report")


def test_single_agent_plan_is_one_stage():
    assert stage_plan([SINGLE_AGENT]) == (("single_agent",),)
    assert PLANS == {"multi_agent": STAGES, "single_agent": (("single_agent",),)}


def contract(role, reads, writes):
    return AgentContract(role=role, reads=tuple(reads), writes=writes,
                         template_name=None, schema_name="x.json")


@pytest.mark.parametrize("contracts, problem", [
    ([contract("a", [], "k"), contract("b", [], "k")], "both write 'k'"),
    ([contract("a", [], "k"), contract("b", ["absent"], "m")], "b reads ['absent']"),
    ([contract("a", ["k"], "k")], "a reads ['k']"),
    ([contract("a", ["m"], "k"), contract("b", ["k"], "m")], "a reads ['m']; b reads ['k']"),
], ids=["duplicate_write", "unwritten_read", "self_read", "two_role_cycle"])
def test_stage_plan_rejects(contracts, problem):
    with pytest.raises(ValueError) as exc:
        stage_plan(contracts)
    assert problem in str(exc.value)


@st.composite
def acyclic_contracts(draw):
    """Up to 8 contracts; the i-th reads only what lower ones write, so the
    set is acyclic, and it comes in a shuffled order."""
    contracts = []
    for i in range(draw(st.integers(1, 8))):
        reads = draw(st.lists(st.sampled_from(range(i)), unique=True)) if i else []
        contracts.append(contract(f"r{i}", [f"k{j}" for j in reads], f"k{i}"))
    return draw(st.permutations(contracts))


@given(acyclic_contracts())
def test_stage_plan_places_each_role_in_its_earliest_stage(contracts):
    plan = stage_plan(contracts)
    stage_of = {role: n for n, stage in enumerate(plan) for role in stage}
    assert sorted(role for stage in plan for role in stage) == sorted(stage_of)
    assert sorted(stage_of) == sorted(c.role for c in contracts)
    writer = {c.writes: c.role for c in contracts}
    position = {c.role: i for i, c in enumerate(contracts)}
    for c in contracts:
        earlier = [stage_of[writer[key]] for key in c.reads]
        assert all(n < stage_of[c.role] for n in earlier)
        assert stage_of[c.role] == (max(earlier) + 1 if earlier else 0)
    for stage in plan:
        assert [position[role] for role in stage] == sorted(position[role] for role in stage)


def test_every_role_has_template_and_schema(case_contracts):
    for role in ROLES:
        contract = case_contracts.contract(role)
        assert case_contracts.template_text(contract.template_name)
        assert case_contracts.schema(contract.schema_name)


def test_writes_cover_all_entry_kinds():
    assert {c.writes for c in CONTRACTS.values()} == set(ENTRY_KINDS)
