"""Report rendering: golden output, roadmap grouping, failure modes."""

import json
from pathlib import Path

import pytest

from riskforge.context_store import ContextStore
from riskforge.contracts import DATA_DIR
from riskforge.errors import RiskforgeError
from riskforge.gateway import ModelConfig
from riskforge.orchestrator import RunRecord, execute_pipeline
from riskforge.report import (contradiction_flags, render_report, report_document,
                              summarize_roadmap)

GOLDEN = Path(__file__).parent / "data" / "golden_health_15.md"
RECORD = RunRecord(run_id="r", profile_id="p", model_id="m", mode="multi_agent",
                   seed=0, completed=True)


@pytest.fixture
def health_run(health_profile, case_contracts, corpus, specific_gateway, tmp_path):
    record, _ = execute_pipeline(
        health_profile,
        ModelConfig(model_id="stub-model", context_window_tokens=131072, seed=0),
        "multi_agent", specific_gateway, corpus, case_contracts, out_dir=tmp_path)
    assert record.completed
    return tmp_path / record.run_id


def test_case_study_report_matches_golden(health_run):
    assert (health_run / "report.md").read_text(encoding="utf-8") == \
        GOLDEN.read_text(encoding="utf-8")


def test_golden_report_carries_case_study_anchors():
    text = GOLDEN.read_text(encoding="utf-8")
    # severity table: four products >= 6 rank above the single 4
    assert text.index("| 6 | Third-Party & Supply Chain Security") < \
        text.index("| 7 | Insufficient Cloud Security Controls")
    # compliance pattern
    assert "| Identify | NotCompliant |" in text
    assert "| Protect | PartiallyCompliant |" in text
    # roadmap costs in their phases
    assert text.index("### Days 0-30") < text.index("$3K-$6K") < \
        text.index("### Days 31-60")
    beyond = text.index("### Beyond 90 days")
    assert text.index("$10K-$20K") > beyond
    assert text.index("$5K-$10K") > beyond
    # the intake ambiguity survives to the final document
    assert "HIPAA applicability: unconfirmed" in text


def test_report_json_mirrors_markdown_content(health_run):
    doc = json.loads((health_run / "report.json").read_text(encoding="utf-8"))
    assert [r["title"] for r in doc["risks"]][:3] == [
        "Data Security & Privacy",
        "Inadequate Incident Response Plan",
        "Lack of Security Policies",
    ]
    assert doc["compliance"]["status"]["Detect"] == "NotCompliant"
    assert all(c["verified"] for c in doc["citations"])
    assert doc["contradiction_flags"] == []


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("profile_id", sorted(
    path.stem for path in (DATA_DIR / "profiles").glob("*.json")))
def test_report_md_renders_from_report_json(profiles, case_contracts, corpus,
                                            specific_gateway, tmp_path, profile_id, seed):
    record, _ = execute_pipeline(
        profiles[profile_id],
        ModelConfig(model_id="stub-model", context_window_tokens=131072, seed=seed),
        "multi_agent", specific_gateway, corpus, case_contracts, out_dir=tmp_path)
    assert record.completed
    run_dir = tmp_path / record.run_id
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert render_report(doc) == (run_dir / "report.md").read_text(encoding="utf-8")


# -- renderer requirements ---------------------------------------------------

def full_store(register=None, recommendations=None):
    store = ContextStore()
    store.append_entry("org_profile", "risk_intake",
                       {"industry": "saas", "employee_count": 10,
                        "regulatory_scope": [], "ambiguities": []})
    store.append_entry("threat_model", "threat_modeling", {"threats": []})
    store.append_entry("control_assessment", "control_assessment", {
        "functions": {fn: [{"finding": f"{fn} gap", "status": "gap"}]
                      for fn in ("Identify", "Protect", "Detect", "Respond", "Recover")}})
    store.append_entry("risk_register", "risk_scoring", register or {"risks": [
        {"title": "Fabricated Citation Risk", "likelihood": "High", "impact": "High",
         "reasoning": "mitigate per PR.AC-12 guidance", "linked_threat_titles": [],
         "linked_control_gaps": []}]})
    store.append_entry("recommendations", "mitigation", recommendations or
                       {"recommendations": [
                           {"action": "fix it", "phase_days": 30,
                            "cost_range": "$1K",
                            "linked_risk_titles": ["Fabricated Citation Risk"]}]})
    store.append_entry("report", "report_synthesis", {"exec_summary": "summary"})
    return store


def test_render_requires_every_entry_kind(corpus):
    store = ContextStore()
    store.append_entry("org_profile", "risk_intake", {"industry": "x"})
    with pytest.raises(RiskforgeError, match=r"^context is missing entry kind 'threat_model'$"):
        report_document(store.snapshot(), corpus, RECORD)


def test_unverified_citations_surface_for_review(corpus):
    store = full_store()
    doc = report_document(store.snapshot(), corpus, RECORD)
    assert any(not c["verified"] for c in doc["citations"])
    text = render_report(doc)
    assert "PR.AC-12 (nist_csf): UNVERIFIED, requires human review" in text


def test_contradiction_flags_render(corpus):
    store = full_store(recommendations={"recommendations": [
        {"action": "patch", "phase_days": 30, "cost_range": "$1K",
         "linked_risk_titles": ["Ghost Risk"]}]})
    flags = contradiction_flags(store.snapshot())
    kinds = {f["kind"] for f in flags}
    assert kinds == {"dangling_reference", "unaddressed_high_risk"}
    text = render_report(report_document(store.snapshot(), corpus, RECORD))
    assert "[dangling_reference] Ghost Risk" in text
    assert "[unaddressed_high_risk] Fabricated Citation Risk" in text


def test_report_md_has_no_run_specific_fields(health_run):
    text = (health_run / "report.md").read_text(encoding="utf-8")
    doc = json.loads((health_run / "report.json").read_text(encoding="utf-8"))
    assert doc["run_metadata"]["run_id"] not in text
    assert "wall_seconds" not in text


# -- roadmap grouping --------------------------------------------------------

def test_roadmap_groups_ascending_and_orders_by_severity():
    risks = [{"title": "Big", "severity_value": 9}, {"title": "Small", "severity_value": 2}]
    recs = [
        {"action": "later", "phase_days": "beyond", "linked_risk_titles": ["Small"]},
        {"action": "minor now", "phase_days": 30, "linked_risk_titles": ["Small"]},
        {"action": "major now", "phase_days": 30, "linked_risk_titles": ["Big"]},
        {"action": "mid", "phase_days": 60, "linked_risk_titles": ["Big"]},
    ]
    grouped = summarize_roadmap(recs, risks)
    assert [label for label, _ in grouped] == ["Days 0-30", "Days 31-60",
                                               "Beyond 90 days"]
    first_bucket = [r["action"] for r in grouped[0][1]]
    assert first_bucket == ["major now", "minor now"]


def test_roadmap_empty_buckets_omitted():
    grouped = summarize_roadmap([], [])
    assert grouped == []


def test_roadmap_orders_a_shared_title_by_its_highest_severity(corpus):
    """Two register risks whose titles normalize alike: a recommendation
    linked to that title ranks at the higher severity, wherever the lower
    one sits in the register."""
    def risk(title, level):
        return {"title": title, "likelihood": level, "impact": level, "reasoning": "",
                "linked_threat_titles": [], "linked_control_gaps": []}

    store = full_store(
        register={"risks": [risk("Phishing", "High"), risk("Weak Backups", "Medium"),
                            risk("phishing!", "Low")]},
        recommendations={"recommendations": [
            {"action": "a backup fix", "phase_days": 30, "cost_range": "$1K",
             "linked_risk_titles": ["Weak Backups"]},
            {"action": "b phishing fix", "phase_days": 30, "cost_range": "$1K",
             "linked_risk_titles": ["Phishing"]}]})
    text = render_report(report_document(store.snapshot(), corpus, RECORD))
    assert text.index("- b phishing fix") < text.index("- a backup fix")
