"""Final assessment document assembly.

Markdown only, rendered deterministically from the post-synthesis context
snapshot: identical inputs produce byte-identical output, which is what
the golden-file tests pin. Unverified citations and contradiction flags
always surface; nothing is silently dropped.
"""

from __future__ import annotations

from typing import Optional

from .context_store import ContextEntry
from .contracts import ENTRY_KINDS
from .errors import IncompleteContext
from .grounding import FrameworkCitation
from .risk_model import (CSF_FUNCTIONS, ContradictionFlag, RiskItem,
                         check_contradictions, compliance_rollup, derive_severity,
                         normalize_title, rank_risks)

PHASE_ORDER = (30, 60, 90, "beyond")
PHASE_LABELS = {30: "Days 0-30", 60: "Days 31-60", 90: "Days 61-90",
                "beyond": "Beyond 90 days"}


def _require(snapshot: dict[str, ContextEntry], key: str) -> dict:
    entry = snapshot.get(key)
    if entry is None:
        raise IncompleteContext(key)
    return entry.payload


def register_items(snapshot: dict[str, ContextEntry]) -> list[RiskItem]:
    doc = _require(snapshot, "risk_register")
    return [RiskItem.from_dict(r) for r in doc.get("risks", [])]


def contradiction_flags(snapshot: dict[str, ContextEntry]) -> list[ContradictionFlag]:
    return check_contradictions(register_items(snapshot),
                                _require(snapshot, "recommendations"))


def citation_source_text(snapshot: dict[str, ContextEntry]) -> str:
    """All free text a model could have salted with framework citations."""
    parts = []
    for risk in _require(snapshot, "risk_register").get("risks", []):
        parts.append(risk.get("reasoning", ""))
    for findings in _require(snapshot, "control_assessment").get("functions", {}).values():
        for finding in findings:
            parts.append(finding.get("finding", ""))
    for rec in _require(snapshot, "recommendations").get("recommendations", []):
        parts.append(rec.get("action", ""))
    parts.append(_require(snapshot, "report").get("exec_summary", ""))
    return "\n".join(parts)


def summarize_roadmap(recommendations: dict,
                      register: Optional[list[RiskItem]] = None) -> list[tuple[str, list[dict]]]:
    """Group recommendations by phase bucket ascending; within a bucket,
    order by the highest linked risk severity, then action text."""
    severity_of = {}
    for risk in register or []:
        severity_of[normalize_title(risk.title)] = risk.severity.value
    buckets: dict = {phase: [] for phase in PHASE_ORDER}
    for rec in recommendations.get("recommendations", []):
        buckets[rec["phase_days"]].append(rec)

    def max_severity(rec: dict) -> int:
        linked = [severity_of.get(normalize_title(t), 0)
                  for t in rec.get("linked_risk_titles", [])]
        return max(linked, default=0)

    grouped = []
    for phase in PHASE_ORDER:
        members = sorted(buckets[phase], key=lambda r: (-max_severity(r), r["action"]))
        if members:
            grouped.append((PHASE_LABELS[phase], members))
    return grouped


def report_document(snapshot: dict[str, ContextEntry], citations: list[FrameworkCitation],
                    flags: list[ContradictionFlag], record=None) -> dict:
    """Machine-readable companion mirroring the rendered report."""
    register = register_items(snapshot)
    ranked = rank_risks(register)
    rollup = compliance_rollup(_require(snapshot, "control_assessment"))
    doc = {
        "exec_summary": _require(snapshot, "report").get("exec_summary", ""),
        "profile": _require(snapshot, "org_profile"),
        "risks": [
            {
                "title": r.title,
                "likelihood": r.likelihood,
                "impact": r.impact,
                "severity_value": r.severity.value,
                "severity_band": r.severity.band,
                "reasoning": r.reasoning,
                "linked_threat_titles": r.linked_threat_titles,
                "linked_control_gaps": r.linked_control_gaps,
            }
            for r in ranked
        ],
        "compliance": {"status": rollup.status, "evidence": rollup.evidence},
        "roadmap": _require(snapshot, "recommendations").get("recommendations", []),
        "citations": [
            {
                "raw": c.raw,
                "framework": c.framework,
                "identifier": c.identifier,
                "verified": c.verified,
            }
            for c in citations
        ],
        "contradiction_flags": [
            {"kind": f.kind, "title": f.title, "detail": f.detail} for f in flags
        ],
    }
    if record is not None:
        doc["run_metadata"] = {
            "run_id": record.run_id,
            "model_id": record.model_id,
            "mode": record.mode,
            "wall_seconds": record.wall_seconds,
        }
    return doc


def render_report(snapshot: dict[str, ContextEntry], citations: list[FrameworkCitation],
                  flags: list[ContradictionFlag], *, model_id: str,
                  mode: str) -> str:
    """Deterministic Markdown. Run id and wall clock are deliberately left
    out so identical inputs render byte-identically."""
    for key in ENTRY_KINDS:
        _require(snapshot, key)

    profile = _require(snapshot, "org_profile")
    register = register_items(snapshot)
    ranked = rank_risks(register)
    rollup = compliance_rollup(_require(snapshot, "control_assessment"))
    recommendations = _require(snapshot, "recommendations")
    exec_summary = _require(snapshot, "report").get("exec_summary", "")

    lines = ["# Cybersecurity Risk Assessment", ""]

    lines += ["## Executive Summary", "", exec_summary.strip(), ""]

    lines += ["## Organization Profile", ""]
    lines.append(f"- Industry: {profile.get('industry', 'unknown')}")
    lines.append(f"- Employees: {profile.get('employee_count', 'unknown')}")
    scope = profile.get("regulatory_scope", [])
    lines.append(f"- Regulatory scope: {', '.join(scope) if scope else 'none identified'}")
    maturity = profile.get("self_rated_maturity")
    if maturity is not None:
        lines.append(f"- Self-rated maturity: {maturity}/10")
    ambiguities = profile.get("ambiguities", [])
    if ambiguities:
        lines.append("- Open questions from intake:")
        for item in ambiguities:
            lines.append(f"  - {item}")
    lines.append("")

    lines += ["## Risk Register", ""]
    lines.append("| # | Risk | Likelihood | Impact | Severity |")
    lines.append("|---|------|------------|--------|----------|")
    for i, risk in enumerate(ranked, start=1):
        sev = risk.severity
        lines.append(f"| {i} | {risk.title} | {risk.likelihood} | {risk.impact} "
                     f"| {sev.value} ({sev.band}) |")
    lines.append("")
    for risk in ranked:
        lines.append(f"### {risk.title}")
        lines.append("")
        lines.append(risk.reasoning.strip())
        if risk.linked_threat_titles:
            lines.append("")
            lines.append(f"Linked threats: {', '.join(risk.linked_threat_titles)}")
        if risk.linked_control_gaps:
            lines.append(f"Linked control gaps: {', '.join(risk.linked_control_gaps)}")
        lines.append("")

    lines += ["## NIST CSF Compliance", ""]
    lines.append("| Function | Status |")
    lines.append("|----------|--------|")
    for function in CSF_FUNCTIONS:
        lines.append(f"| {function} | {rollup.status[function]} |")
    lines.append("")
    for function in CSF_FUNCTIONS:
        evidence = rollup.evidence[function]
        if evidence:
            lines.append(f"**{function}**")
            for finding in evidence:
                lines.append(f"- {finding}")
            lines.append("")

    lines += ["## Remediation Roadmap", ""]
    for label, members in summarize_roadmap(recommendations, register):
        lines.append(f"### {label}")
        lines.append("")
        for rec in members:
            linked = ", ".join(rec.get("linked_risk_titles", []))
            lines.append(f"- {rec['action']} (cost: {rec.get('cost_range', 'n/a')}; "
                         f"addresses: {linked})")
        lines.append("")

    lines += ["## Citation Verification Appendix", ""]
    if citations:
        for citation in citations:
            if citation.verified:
                lines.append(f"- {citation.raw} ({citation.framework}): verified")
            else:
                lines.append(f"- {citation.raw} ({citation.framework}): "
                             f"UNVERIFIED, requires human review")
    else:
        lines.append("No framework citations were detected in the assessment.")
    lines.append("")

    lines += ["## Consistency Flags", ""]
    if flags:
        for flag in flags:
            lines.append(f"- [{flag.kind}] {flag.title}: {flag.detail}")
    else:
        lines.append("No contradictions detected between the risk register and "
                     "the recommendations.")
    lines.append("")

    lines += ["## Run Metadata", "",
              f"- Model: {model_id}",
              f"- Mode: {mode}",
              ""]
    return "\n".join(lines)
