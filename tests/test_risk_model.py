"""Severity arithmetic, ranking, compliance rollup, contradiction checks."""

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from riskforge.context_store import ContextStore
from riskforge.contracts import DATA_DIR, SCHEMA_MODES, ContractSet
from riskforge.evalkit import SEVERITY_LABELS
from riskforge.records import decode
from riskforge.risk_model import (CSF_FUNCTIONS, ORDINALS, RiskItem, check_contradictions,
                                  compliance_rollup, derive_severity,
                                  normalize_title, parse_level, rank_risks,
                                  read_register)

LEVELS = ["Low", "Medium", "High"]
SCHEMA = ContractSet().schema


def schema_risk(name):
    """The schema of one risk in the named output schema."""
    return SCHEMA(name)["properties"]["risks"]["items"]


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


def test_annotation_labels_are_the_severity_labels():
    # evalkit keeps its own copy, as it must not load risk_model at start-up
    labels = {derive_severity(likelihood, impact).label
              for likelihood, impact in itertools.product(LEVELS, repeat=2)}
    assert set(SEVERITY_LABELS) == labels
    # and the output schemas state them as each risk's levels, in ORDINALS' order
    for name in ("risk_register.json", "single_agent.json"):
        for level in ("likelihood", "impact"):
            enum = schema_risk(name)["properties"][level]["enum"]
            assert enum == list(SEVERITY_LABELS)
            assert [value.lower() for value in enum] == list(ORDINALS)


def test_risk_item_fields_are_the_register_schema_properties():
    risk = schema_risk("risk_register.json")
    fields = dataclasses.fields(RiskItem)
    assert [f.name for f in fields] == list(risk["properties"])
    assert [f.name for f in fields if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING] == risk["required"]


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


def test_case_study_run_ranking(case_study_run):
    # the risk_register stage's own order, as the run's session log holds it
    store = ContextStore.load(case_study_run / "session.jsonl")
    items = decode(list[RiskItem], store.snapshot()["risk_register"].payload["risks"])
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


# -- register reader ---------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(LEVELS), st.sampled_from(LEVELS)),
                min_size=1, max_size=8), st.data())
def test_report_register_reads_as_its_bare_register(levels, data):
    """A report.json's risks, which carry the severity report_document
    derives, read as the same risks without it; changing one risk's
    severity_value or severity_band is an error naming that field."""
    bare = [{"title": f"r{n}", "likelihood": likelihood, "impact": impact,
             "reasoning": "why", "linked_threat_titles": ["t"], "linked_control_gaps": []}
            for n, (likelihood, impact) in enumerate(levels)]
    report = [dict(risk, severity_value=severity.value, severity_band=severity.band)
              for risk, severity in zip(bare, (derive_severity(*pair) for pair in levels))]
    # a list of RiskItems: a dataclass equals only an instance of its own class
    assert (read_register({"risks": report}) == read_register({"risks": bare})
            == decode(list[RiskItem], bare))

    index = data.draw(st.integers(0, len(report) - 1))
    name = data.draw(st.sampled_from(["severity_value", "severity_band"]))
    stated = report[index][name]
    report[index][name] = data.draw(
        (st.integers(1, 9) if name == "severity_value" else st.sampled_from(
            ["low", "medium", "high"])).filter(lambda wrong: wrong != stated))
    with pytest.raises(ValueError) as exc:
        read_register({"risks": report})
    assert str(exc.value) == (f"risks[{index}].{name} is {report[index][name]!r}, "
                              f"not {stated!r}")


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
    assert rollup["status"]["Identify"] == "NotCompliant"
    assert rollup["status"]["Protect"] == "PartiallyCompliant"
    assert rollup["status"]["Detect"] == "Compliant"
    assert rollup["status"]["Respond"] == "Compliant"
    assert rollup["evidence"]["Identify"] == ["Identify finding 0", "Identify finding 1"]


def test_rollup_requires_all_five_functions():
    """The control assessment schema requires exactly CSF_FUNCTIONS, in
    order, so its check, not the rollup, rejects a missing one."""
    doc = assessment()
    del doc["functions"]["Recover"]
    for mode in SCHEMA_MODES:
        contracts = ContractSet(mode)
        functions = contracts.schema("control_assessment.json")["properties"]["functions"]
        assert functions["required"] == list(CSF_FUNCTIONS)
        assert contracts.checker("control_assessment.json")(doc) == (
            ("$.functions", "'Recover' is a required property"),)


def test_case_study_control_rollup():
    import json as _json
    stub = _json.loads((DATA_DIR / "stub" /
                        "control_assessment.json").read_text())
    rollup = compliance_rollup(stub["profiles"]["health_15"][0])
    assert rollup["status"] == {
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
    kinds = {f["kind"] for f in flags}
    assert "dangling_reference" in kinds
    assert any(f["title"] == "Phantom Risk" for f in flags)


def test_unaddressed_high_risk_flagged():
    register = [risk("Covered", "High", "High"), risk("Orphan", "High", "High"),
                risk("Low One", "Low", "Low")]
    recs = {"recommendations": [
        {"action": "fix covered", "phase_days": 30, "linked_risk_titles": ["Covered"]},
    ]}
    flags = check_contradictions(register, recs)
    assert [f["title"] for f in flags if f["kind"] == "unaddressed_high_risk"] == ["Orphan"]


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
