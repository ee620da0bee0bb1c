"""Severity arithmetic, ranking, compliance rollup, contradiction checks."""

import itertools
import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from riskforge.contracts import DATA_DIR
from riskforge.errors import RiskforgeError
from riskforge.records import decode
from riskforge.risk_model import (CSF_FUNCTIONS, RiskItem, check_contradictions,
                                  compliance_rollup, derive_severity,
                                  normalize_title, parse_level, rank_risks)

LEVELS = ["Low", "Medium", "High"]
FIXTURES = DATA_DIR / "fixtures"


def risk(title, likelihood, impact, **kw):
    return RiskItem(title=title, likelihood=likelihood, impact=impact,
                    reasoning=kw.pop("reasoning", "because"), **kw)


# -- severity ----------------------------------------------------------------

def test_severity_full_mapping_table():
    expected = {
        ("Low", "Low"): (1, "low"),
        ("Low", "Medium"): (2, "low"),
        ("Medium", "Low"): (2, "low"),
        ("Low", "High"): (3, "medium"),
        ("High", "Low"): (3, "medium"),
        ("Medium", "Medium"): (4, "medium"),
        ("Medium", "High"): (6, "high"),
        ("High", "Medium"): (6, "high"),
        ("High", "High"): (9, "high"),
    }
    for (likelihood, impact), (value, band) in expected.items():
        score = derive_severity(likelihood, impact)
        assert (score.value, score.band) == (value, band)


def test_severity_label_capitalized():
    assert derive_severity("High", "Medium").label == "High"
    assert derive_severity("Low", "Low").label == "Low"


def test_parse_level_case_insensitive_and_strict():
    assert parse_level(" high ") == 3
    assert parse_level("MEDIUM") == 2
    with pytest.raises(ValueError):
        parse_level("severe")


@pytest.mark.parametrize("field, value, error, message", [
    ("title", 5, TypeError, "title must be str, not int"),
    ("reasoning", None, TypeError, "reasoning must be str, not NoneType"),
    ("likelihood", "Extreme", ValueError, "not an ordinal level: 'Extreme'"),
    ("impact", 3, TypeError, "impact must be str, not int"),
    ("linked_threat_titles", ["a", 1], TypeError,
     "linked_threat_titles[1] must be str, not int"),
    ("owner", "x", TypeError, "owner is not a field of RiskItem"),
])
def test_risk_item_is_checked_when_built(field, value, error, message):
    doc = {"title": "T", "likelihood": "High", "impact": "Low", "reasoning": "r",
           field: value}
    with pytest.raises(error, match=re.escape(message)):
        decode(RiskItem, doc)


@given(st.sampled_from(LEVELS), st.sampled_from(LEVELS), st.sampled_from(LEVELS))
def test_severity_monotone_in_each_argument(a, b, c):
    """Raising either input never lowers the product."""
    if parse_level(a) <= parse_level(b):
        assert derive_severity(a, c).value <= derive_severity(b, c).value
        assert derive_severity(c, a).value <= derive_severity(c, b).value


def test_severity_symmetric():
    for a, b in itertools.product(LEVELS, repeat=2):
        assert derive_severity(a, b).value == derive_severity(b, a).value


# -- normalize_title ---------------------------------------------------------

def test_normalize_examples():
    assert normalize_title("Data Security & Privacy") == "data security privacy"
    assert normalize_title("  OT/IIoT  Sensors ") == "ot iiot sensors"


@given(st.text(max_size=80))
def test_normalize_idempotent(title):
    once = normalize_title(title)
    assert normalize_title(once) == once


@given(st.text(max_size=80))
def test_normalize_output_alphabet(title):
    norm = normalize_title(title)
    assert all(ch.islower() or ch.isdigit() or ch == " " for ch in norm)
    assert "  " not in norm


# -- ranking -----------------------------------------------------------------

def test_rank_orders_by_severity_impact_title():
    items = [
        risk("b", "Medium", "Medium"),   # 4
        risk("a", "High", "Medium"),     # 6, impact Medium
        risk("c", "Medium", "High"),     # 6, impact High ranks above impact Medium
        risk("d", "High", "High"),       # 9
    ]
    assert [r.title for r in rank_risks(items)] == ["d", "c", "a", "b"]


def test_rank_tie_breaks_alphabetical():
    items = [risk("zeta", "High", "High"), risk("alpha", "High", "High")]
    assert [r.title for r in rank_risks(items)] == ["alpha", "zeta"]


def test_case_study_register_ranking():
    doc = json.loads((FIXTURES / "case_study_register.json").read_text())
    items = decode(list[RiskItem], doc["risks"])
    ranked = rank_risks(items)
    # the three 9s first, then the 6s (Medium/High before High/Medium by
    # impact, then alphabetical), then the lone 4
    assert [r.title for r in ranked] == [
        "Data Security & Privacy",
        "Inadequate Incident Response Plan",
        "Lack of Security Policies",
        "Unsecured Firewall Configuration",
        "Insufficient Authentication Controls",
        "Third-Party & Supply Chain Security",
        "Insufficient Cloud Security Controls",
    ]
    # every severity-6-or-9 item outranks the 4
    assert all(r.severity.value >= 6 for r in ranked[:-1])
    assert ranked[-1].severity.value == 4


def test_rank_is_permutation_invariant():
    rng = random.Random(3)
    base = [risk(f"r{i}", rng.choice(LEVELS), rng.choice(LEVELS)) for i in range(12)]
    expected = [r.title for r in rank_risks(base)]
    for _ in range(50):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert [r.title for r in rank_risks(shuffled)] == expected


@given(st.lists(st.tuples(st.integers(0, 999), st.sampled_from(LEVELS),
                          st.sampled_from(LEVELS)), max_size=15))
def test_rank_total_order_invariant(specs):
    items = [risk(f"t{n:03d}", l, i) for n, l, i in specs]
    ranked = rank_risks(items)
    assert sorted(r.title for r in ranked) == sorted(r.title for r in items)
    for a, b in zip(ranked, ranked[1:]):
        assert (-a.severity.value, -parse_levels(a), a.title) <= \
               (-b.severity.value, -parse_levels(b), b.title)


def parse_levels(item):
    return parse_level(item.impact)


# -- compliance rollup -------------------------------------------------------

def assessment(**statuses):
    functions = {}
    for fn in CSF_FUNCTIONS:
        members = statuses.get(fn, ["present"])
        functions[fn] = [{"finding": f"{fn} finding {i}", "status": s}
                         for i, s in enumerate(members)]
    return {"functions": functions}


def test_rollup_statuses():
    rollup = compliance_rollup(assessment(
        Identify=["gap", "gap"],
        Protect=["present", "gap"],
        Detect=["present", "present"],
    ))
    assert rollup.status["Identify"] == "NotCompliant"
    assert rollup.status["Protect"] == "PartiallyCompliant"
    assert rollup.status["Detect"] == "Compliant"
    assert rollup.status["Respond"] == "Compliant"
    assert rollup.evidence["Identify"] == ["Identify finding 0", "Identify finding 1"]


def test_rollup_requires_all_five_functions():
    doc = assessment()
    del doc["functions"]["Recover"]
    with pytest.raises(RiskforgeError, match=r"^control assessment lacks function 'Recover'$"):
        compliance_rollup(doc)


def test_case_study_control_rollup():
    import json as _json
    stub = _json.loads((DATA_DIR / "stub" /
                        "control_assessment.json").read_text())
    rollup = compliance_rollup(stub["profiles"]["health_15"][0])
    assert rollup.status == {
        "Identify": "NotCompliant",
        "Protect": "PartiallyCompliant",
        "Detect": "NotCompliant",
        "Respond": "NotCompliant",
        "Recover": "NotCompliant",
    }


# -- contradiction checks ----------------------------------------------------

def test_dangling_reference_flagged():
    register = [risk("Real Risk", "High", "High")]
    recs = {"recommendations": [
        {"action": "do x", "phase_days": 30,
         "linked_risk_titles": ["Real Risk", "Phantom Risk"]},
    ]}
    flags = check_contradictions(register, recs)
    kinds = {f.kind for f in flags}
    assert "dangling_reference" in kinds
    assert any(f.title == "Phantom Risk" for f in flags)


def test_unaddressed_high_risk_flagged():
    register = [risk("Covered", "High", "High"), risk("Orphan", "High", "High"),
                risk("Low One", "Low", "Low")]
    recs = {"recommendations": [
        {"action": "fix covered", "phase_days": 30, "linked_risk_titles": ["Covered"]},
    ]}
    flags = check_contradictions(register, recs)
    assert [f.title for f in flags if f.kind == "unaddressed_high_risk"] == ["Orphan"]


def test_title_matching_tolerates_formatting():
    register = [risk("Data Security & Privacy", "High", "High")]
    recs = {"recommendations": [
        {"action": "encrypt", "phase_days": 30,
         "linked_risk_titles": ["data security   privacy"]},
    ]}
    assert check_contradictions(register, recs) == []


def test_clean_register_yields_no_flags():
    register = [risk("A", "High", "High"), risk("B", "Medium", "Medium")]
    recs = {"recommendations": [
        {"action": "a", "phase_days": 30, "linked_risk_titles": ["A"]},
    ]}
    assert check_contradictions(register, recs) == []
