"""Final assessment document: derived once, rendered from the document.

report_document derives the assessment from the post-synthesis context
snapshot; report.json is that document, and render_report formats it as
deterministic Markdown, so report.md re-renders from report.json byte for
byte. Unverified citations and contradiction flags always surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .context_store import ContextEntry
from .contracts import ENTRY_KINDS
from .errors import RiskforgeError
from .grounding import Corpus, normalize_title
from .risk_model import (CSF_FUNCTIONS, RiskItem, check_contradictions, compliance_rollup,
                         rank_risks)

if TYPE_CHECKING:
    from .orchestrator import RunRecord

PHASE_LABELS = {30: "Days 0-30", 60: "Days 31-60", 90: "Days 61-90",
                "beyond": "Beyond 90 days"}


def register_items(snapshot: dict[str, ContextEntry]) -> list[RiskItem]:
    # the risk_register schema has checked each risk's fields
    return [RiskItem(**r) for r in snapshot["risk_register"].payload["risks"]]


def contradiction_flags(snapshot: dict[str, ContextEntry]) -> list[dict]:
    return check_contradictions(register_items(snapshot),
                                snapshot["recommendations"].payload)


def citation_source_text(snapshot: dict[str, ContextEntry]) -> str:
    """All free text a model could have salted with framework citations."""
    parts = [risk["reasoning"] for risk in snapshot["risk_register"].payload["risks"]]
    parts += [finding["finding"] for findings in
              snapshot["control_assessment"].payload["functions"].values()
              for finding in findings]
    parts += [rec["action"] for rec in snapshot["recommendations"].payload["recommendations"]]
    parts.append(snapshot["report"].payload["exec_summary"])
    return "\n".join(parts)


def summarize_roadmap(recommendations: list[dict],
                      risks: list[dict]) -> list[tuple[str, list[dict]]]:
    """Group recommendations by phase bucket ascending; within a bucket,
    order by the highest linked risk severity (a title shared by several
    risks counts at the highest), then action text."""
    severity_of: dict[str, int] = {}
    for risk in risks:
        norm = normalize_title(risk["title"])
        severity_of[norm] = max(severity_of.get(norm, 0), risk["severity_value"])
    buckets: dict = {phase: [] for phase in PHASE_LABELS}
    for rec in recommendations:
        buckets[rec["phase_days"]].append(rec)

    def max_severity(rec: dict) -> int:
        linked = [severity_of.get(normalize_title(t), 0)
                  for t in rec["linked_risk_titles"]]
        return max(linked, default=0)

    grouped = []
    for phase, label in PHASE_LABELS.items():
        members = sorted(buckets[phase], key=lambda r: (-max_severity(r), r["action"]))
        if members:
            grouped.append((label, members))
    return grouped


def report_document(snapshot: dict[str, ContextEntry], corpus: Corpus,
                    record: RunRecord) -> dict:
    """The final assessment from the post-synthesis snapshot: each risk is
    its RiskItem's fields plus severity_value and severity_band, and each
    citation its FrameworkCitation's fields. Raises RiskforgeError naming
    the first entry kind the snapshot lacks."""
    for key in ENTRY_KINDS:
        if key not in snapshot:
            raise RiskforgeError(f"context is missing entry kind {key!r}")
    return {
        "exec_summary": snapshot["report"].payload["exec_summary"],
        "profile": snapshot["org_profile"].payload,
        "risks": [{**vars(r), "severity_value": r.severity.value,
                   "severity_band": r.severity.band}
                  for r in rank_risks(register_items(snapshot))],
        "compliance": compliance_rollup(snapshot["control_assessment"].payload),
        "roadmap": snapshot["recommendations"].payload["recommendations"],
        "citations": [dict(vars(c))
                      for c in corpus.verify_citations(citation_source_text(snapshot))],
        "contradiction_flags": contradiction_flags(snapshot),
        "run_metadata": {
            "run_id": record.run_id,
            "model_id": record.model_id,
            "mode": record.mode,
            "wall_seconds": record.wall_seconds,
        },
    }


def render_report(doc: dict) -> str:
    """Deterministic Markdown of a report_document. Run id and wall clock
    are deliberately left out so identical inputs render byte-identically."""
    profile = doc["profile"]
    risks = doc["risks"]
    compliance = doc["compliance"]

    lines = ["# Cybersecurity Risk Assessment", ""]

    lines += ["## Executive Summary", "", doc["exec_summary"].strip(), ""]

    lines += ["## Organization Profile", ""]
    lines.append(f"- Industry: {profile['industry']}")
    lines.append(f"- Employees: {profile['employee_count']}")
    scope = profile["regulatory_scope"]
    lines.append(f"- Regulatory scope: {', '.join(scope) if scope else 'none identified'}")
    maturity = profile.get("self_rated_maturity")
    if maturity is not None:
        lines.append(f"- Self-rated maturity: {maturity}/10")
    ambiguities = profile["ambiguities"]
    if ambiguities:
        lines.append("- Open questions from intake:")
        for item in ambiguities:
            lines.append(f"  - {item}")
    lines.append("")

    lines += ["## Risk Register", ""]
    lines.append("| # | Risk | Likelihood | Impact | Severity |")
    lines.append("|---|------|------------|--------|----------|")
    for i, risk in enumerate(risks, start=1):
        lines.append(f"| {i} | {risk['title']} | {risk['likelihood']} | {risk['impact']} "
                     f"| {risk['severity_value']} ({risk['severity_band']}) |")
    lines.append("")
    for risk in risks:
        lines.append(f"### {risk['title']}")
        lines.append("")
        lines.append(risk["reasoning"].strip())
        if risk["linked_threat_titles"]:
            lines.append("")
            lines.append(f"Linked threats: {', '.join(risk['linked_threat_titles'])}")
        if risk["linked_control_gaps"]:
            lines.append(f"Linked control gaps: {', '.join(risk['linked_control_gaps'])}")
        lines.append("")

    lines += ["## NIST CSF Compliance", ""]
    lines.append("| Function | Status |")
    lines.append("|----------|--------|")
    for function in CSF_FUNCTIONS:
        lines.append(f"| {function} | {compliance['status'][function]} |")
    lines.append("")
    for function in CSF_FUNCTIONS:
        evidence = compliance["evidence"][function]
        if evidence:
            lines.append(f"**{function}**")
            for finding in evidence:
                lines.append(f"- {finding}")
            lines.append("")

    lines += ["## Remediation Roadmap", ""]
    for label, members in summarize_roadmap(doc["roadmap"], risks):
        lines.append(f"### {label}")
        lines.append("")
        for rec in members:
            linked = ", ".join(rec["linked_risk_titles"])
            lines.append(f"- {rec['action']} (cost: {rec['cost_range']}; "
                         f"addresses: {linked})")
        lines.append("")

    lines += ["## Citation Verification Appendix", ""]
    if doc["citations"]:
        for citation in doc["citations"]:
            if citation["verified"]:
                lines.append(f"- {citation['raw']} ({citation['framework']}): verified")
            else:
                lines.append(f"- {citation['raw']} ({citation['framework']}): "
                             f"UNVERIFIED, requires human review")
    else:
        lines.append("No framework citations were detected in the assessment.")
    lines.append("")

    lines += ["## Consistency Flags", ""]
    if doc["contradiction_flags"]:
        for flag in doc["contradiction_flags"]:
            lines.append(f"- [{flag['kind']}] {flag['title']}: {flag['detail']}")
    else:
        lines.append("No contradictions detected between the risk register and "
                     "the recommendations.")
    lines.append("")

    lines += ["## Run Metadata", "",
              f"- Model: {doc['run_metadata']['model_id']}",
              f"- Mode: {doc['run_metadata']['mode']}",
              ""]
    return "\n".join(lines)
