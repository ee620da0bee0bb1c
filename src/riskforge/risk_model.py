"""Deterministic risk-domain logic.

Likelihood and impact are ordinal (Low < Medium < High); severity is
their product on a 1..9 scale with three bands. Compliance rolls control
findings up to the five CSF functions, and contradiction checks compare
the risk register against the recommendation links.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Any, Iterable

from .grounding import normalize_title
from .records import decode

ORDINALS = {"low": 1, "medium": 2, "high": 3}
CSF_FUNCTIONS = ("Identify", "Protect", "Detect", "Respond", "Recover")


def parse_level(value: str) -> int:
    level = ORDINALS.get(value.strip().lower())
    if level is None:
        raise ValueError(f"not an ordinal level: {value!r} (expected Low/Medium/High)")
    return level


@dataclass(frozen=True)
class SeverityScore:
    """Likelihood times impact on the 1..9 scale, with its band."""

    value: int
    band: str

    @property
    def label(self) -> str:
        return self.band.capitalize()


def derive_severity(likelihood: str, impact: str) -> SeverityScore:
    value = parse_level(likelihood) * parse_level(impact)
    if value >= 6:
        band = "high"
    elif value >= 3:
        band = "medium"
    else:
        band = "low"
    return SeverityScore(value=value, band=band)


@dataclass
class RiskItem:
    """One entry of a risk register."""

    title: str
    likelihood: str
    impact: str
    reasoning: str
    linked_threat_titles: list[str] = field(default_factory=list)
    linked_control_gaps: list[str] = field(default_factory=list)

    def __post_init__(self):
        # A register read from a file fails here, not at its first use.
        parse_level(self.likelihood)
        parse_level(self.impact)

    @property
    def severity(self) -> SeverityScore:
        return derive_severity(self.likelihood, self.impact)


def read_register(doc: Any) -> list[RiskItem]:
    """The RiskItems of a bare {"risks": [...]} register or of a report.json,
    whose severity_value (int) and severity_band (str), where present, must
    be derive_severity's (ValueError "risks[2].severity_value is 4, not 9").
    A document of another shape is a TypeError worded as decode words one."""
    if "risks" not in decode(dict, doc):
        raise TypeError("risks is missing")
    reported = {"severity_value": int, "severity_band": str}  # in SeverityScore's order
    register = []
    for index, raw in enumerate(decode(list[dict], doc["risks"], "risks")):
        risk = decode(RiskItem, {key: value for key, value in raw.items()
                                 if key not in reported}, f"risks[{index}]")
        for (name, tp), derived in zip(reported.items(), astuple(risk.severity)):
            if name in raw and decode(tp, raw[name], f"risks[{index}].{name}") != derived:
                raise ValueError(f"risks[{index}].{name} is {raw[name]!r}, not {derived!r}")
        register.append(risk)
    return register


def rank_risks(register: Iterable[RiskItem]) -> list[RiskItem]:
    """Descending severity; ties broken by impact descending, then title."""
    return sorted(
        register,
        key=lambda r: (-r.severity.value, -parse_level(r.impact), r.title),
    )


def compliance_rollup(control_assessment: dict) -> dict:
    """{"status": ..., "evidence": ...}, each keyed by CSF function: its
    Compliant, PartiallyCompliant or NotCompliant status and its finding
    strings. control_assessment is valid under control_assessment.json,
    which requires every CSF function."""
    functions = control_assessment["functions"]
    status = {}
    evidence = {}
    for function in CSF_FUNCTIONS:
        findings = functions[function]
        gaps = [f for f in findings if f["status"] == "gap"]
        if not gaps:
            status[function] = "Compliant"
        elif len(gaps) == len(findings):
            status[function] = "NotCompliant"
        else:
            status[function] = "PartiallyCompliant"
        evidence[function] = [f["finding"] for f in findings]
    return {"status": status, "evidence": evidence}


def check_contradictions(register: list[RiskItem], recommendations: dict) -> list[dict]:
    """The disagreements between the register and the recommendations, as
    {"kind", "title", "detail"} dicts: kind is dangling_reference or
    unaddressed_high_risk."""
    recs = recommendations["recommendations"]
    linked = set()
    flags = []
    register_titles = {normalize_title(r.title): r.title for r in register}
    for rec in recs:
        for title in rec["linked_risk_titles"]:
            norm = normalize_title(title)
            linked.add(norm)
            if norm not in register_titles:
                flags.append({
                    "kind": "dangling_reference",
                    "title": title,
                    "detail": f"recommendation {rec['action']!r} references a risk "
                              f"absent from the register",
                })
    for risk in register:
        if risk.severity.band == "high" and normalize_title(risk.title) not in linked:
            flags.append({
                "kind": "unaddressed_high_risk",
                "title": risk.title,
                "detail": "high-severity risk has no linked recommendation",
            })
    return flags
