"""Evaluation kit: case-study metrics of a run, generative oracles, ablation sweep."""

import json
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from riskforge import context_store, gateway, orchestrator
from riskforge.contracts import DATA_DIR, QUESTIONNAIRE_SCHEMA, ContractSet
from riskforge.errors import ProfileInvalid, RiskforgeError
from riskforge.evalkit import (AliasMap, PractitionerAnnotation, compute_metrics,
                               coverage, load_annotations, run_ablation,
                               severity_agreement)
from riskforge.gateway import ModelConfig, StubGateway
from riskforge.grounding import Corpus
from riskforge.orchestrator import RunRecord, execute_pipeline, load_ledger
from riskforge.records import decode
from riskforge.risk_model import RiskItem, read_register

FIXTURES = DATA_DIR / "fixtures"


@pytest.fixture
def case_study_system(case_study_run):
    """The case-study run's report.json, read as eval --register reads it."""
    return read_register(json.loads((case_study_run / "report.json").read_text()))


def fixture_aliases():
    return AliasMap(decode(list[tuple[str, str]],
                           json.loads((FIXTURES / "aliases.json").read_text())))


def run_record(**kw):
    base = dict(run_id="r", profile_id="p", model_id="m", mode="single_agent",
                seed=0, completed=True, structural_ok=True,
                unique_threat_titles=["A", "B", "C"])
    base.update(kw)
    return RunRecord(**base)


# -- case-study metrics of a pipeline run ------------------------------------

def test_case_study_agreement_is_18_of_21(case_study_system):
    stat = severity_agreement(case_study_system,
                              load_annotations(FIXTURES / "annotations.jsonl"),
                              fixture_aliases())
    assert (stat.matched, stat.total) == (18, 21)
    assert abs(float(stat.ratio) - 0.857) < 0.001


def test_case_study_coverage_is_12_of_13(case_study_system):
    stat = coverage(case_study_system,
                    load_annotations(FIXTURES / "annotations.jsonl"),
                    fixture_aliases())
    assert (stat.matched, stat.total) == (12, 13)
    assert abs(float(stat.ratio) - 0.923) < 0.001


def test_annotations_fixture_shape():
    annotations = load_annotations(FIXTURES / "annotations.jsonl")
    assert len(annotations) == 22
    assert {a.assessor_id for a in annotations} == {
        "assessor_a", "assessor_b", "assessor_c"}


def test_duplicate_annotation_rejected(tmp_path):
    line = json.dumps({"assessor_id": "a", "risk_title": "Same Risk",
                       "severity": "High"})
    path = tmp_path / "ann.jsonl"
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(RiskforgeError):
        load_annotations(path)


def test_non_string_annotation_field_names_the_line(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({"assessor_id": "a", "risk_title": 5,
                                "severity": "High"}) + "\n", encoding="utf-8")
    with pytest.raises(RiskforgeError, match=re.escape(
            f"{path}:1: not a PractitionerAnnotation record: risk_title must be str, "
            f"not int") + "$"):
        load_annotations(path)


@pytest.mark.parametrize("severity", ["Extreme", "high", ""])
def test_annotation_severity_must_be_a_severity_label(tmp_path, severity):
    path = tmp_path / "ann.jsonl"
    lines = [{"assessor_id": "a", "risk_title": "T", "severity": "High"},
             {"assessor_id": "b", "risk_title": "T", "severity": severity}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(RiskforgeError, match=re.escape(
            f"{path}:2: not a PractitionerAnnotation record: severity must be one of "
            f"Low, Medium, High, not {severity!r}") + "$"):
        load_annotations(path)


def test_ambiguous_alias_rejected():
    aliases = AliasMap([("Variant", "Sys A"), ("Variant", "Sys B")])
    system = [RiskItem(title="Sys A", likelihood="High", impact="High", reasoning=""),
              RiskItem(title="Sys B", likelihood="High", impact="High", reasoning="")]
    with pytest.raises(RiskforgeError):
        severity_agreement(system, [], aliases)


AMBIGUOUS = """
from riskforge.errors import RiskforgeError
from riskforge.evalkit import AliasMap
aliases = AliasMap([("beta", "Sys A"), ("beta", "Sys B"), ("alpha", "Sys A"),
                    ("alpha", "Sys B")])
try:
    aliases.check_unambiguous(["Sys A", "Sys B"])
except RiskforgeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_ambiguous_alias_error_names_the_first_title_whatever_the_hash_seed(package_env,
                                                                           hash_seed):
    """Two practitioner titles are ambiguous; the error names the first in
    sorted order under every string hash seed."""
    result = subprocess.run([sys.executable, "-c", AMBIGUOUS], capture_output=True, text=True,
                            env=dict(package_env, PYTHONHASHSEED=hash_seed), timeout=60,
                            check=True)
    assert result.stdout == ("title 'alpha' aliases to multiple system risks: "
                             "['sys a', 'sys b']\n")


@pytest.mark.parametrize("pair", [(5, "b"), ("a", None)])
def test_alias_title_must_be_a_string(pair):
    index, title = next((i, t) for i, t in enumerate(pair) if not isinstance(t, str))
    with pytest.raises(TypeError) as exc:
        AliasMap(decode(list[tuple[str, str]], [list(pair)]))
    assert str(exc.value) == f"[0][{index}] must be str, not {type(title).__name__}"


def test_empty_annotations_give_undefined_ratio(case_study_system):
    stat = severity_agreement(case_study_system, [], AliasMap())
    assert stat.ratio is None
    assert stat.display() == "n/a"


# -- generative oracles ------------------------------------------------------

def test_agreement_against_generative_oracle():
    """Construct instances where matched/total are known by construction."""
    rng = random.Random(11)
    for _ in range(200):
        n_risks = rng.randint(1, 6)
        system = [RiskItem(title=f"System Risk {i}",
                           likelihood=rng.choice(["Low", "Medium", "High"]),
                           impact=rng.choice(["Low", "Medium", "High"]),
                           reasoning="") for i in range(n_risks)]
        assessors = [f"assessor_{j}" for j in range(rng.randint(1, 4))]
        aliases = AliasMap()
        annotations = []
        expected_total = 0
        expected_matched = 0
        for i, risk in enumerate(system):
            for assessor in assessors:
                if rng.random() < 0.3:
                    continue  # this assessor skipped this risk
                expected_total += 1
                if rng.random() < 0.5:
                    title = risk.title
                else:
                    title = f"Variant {i} of {risk.title}"
                    aliases.add(title, risk.title)
                if rng.random() < 0.7:
                    severity = risk.severity.label
                    expected_matched += 1
                else:
                    others = [s for s in ("Low", "Medium", "High")
                              if s != risk.severity.label]
                    severity = rng.choice(others)
                annotations.append(PractitionerAnnotation(
                    assessor_id=assessor, risk_title=title, severity=severity))
        stat = severity_agreement(system, annotations, aliases)
        assert (stat.matched, stat.total) == (expected_matched, expected_total)


def test_coverage_against_generative_oracle():
    """Build pooled components explicitly and check class/match counts."""
    rng = random.Random(23)
    for _ in range(200):
        system = [RiskItem(title=f"Sys {i}", likelihood="High", impact="High",
                           reasoning="") for i in range(rng.randint(1, 5))]
        aliases = AliasMap()
        annotations = []
        serial = 0
        expected_classes = 0
        expected_matched = 0

        def annotate(title):
            annotations.append(PractitionerAnnotation(
                assessor_id=f"assessor_{rng.randint(0, 2)}",
                risk_title=title, severity="High"))

        # direct system-title mentions: each is its own matched class
        for risk in rng.sample(system, rng.randint(0, len(system))):
            annotate(risk.title)
            expected_classes += 1
            expected_matched += 1

        # variant components: chains of 1-3 variant titles merged by
        # practitioner-practitioner aliases; optionally matched by aliasing
        # the first variant to an unused system title
        unused = [r.title for r in system]
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(1, 3)
            members = []
            for _ in range(size):
                members.append(f"Unique Variant {serial}")
                serial += 1
            for a, b in zip(members, members[1:]):
                aliases.add(a, b)
            for member in members:
                annotate(member)
            expected_classes += 1
            if unused and rng.random() < 0.5:
                aliases.add(members[0], unused.pop())
                expected_matched += 1
        stat = coverage(system, annotations, aliases)
        assert (stat.matched, stat.total) == (expected_matched, expected_classes)


# -- stability, variability, latency ----------------------------------------

def test_stability_counts_failures_in_denominator():
    records = [run_record(run_id=f"r{i}") for i in range(28)]
    records.append(run_record(run_id="r28", completed=False,
                              failure_kind="context_overflow",
                              structural_ok=False, unique_threat_titles=[]))
    records.append(run_record(run_id="r29", completed=True, structural_ok=False))
    assert compute_metrics(records=records).stability == Fraction(28, 30)
    assert compute_metrics(records=[]).stability is None
    with pytest.warns(RuntimeWarning, match=r"^--select picks none of the 30 runs; no run "
                                            r"has model 'absent' \(the runs have m\)$"):
        assert compute_metrics(records=records, selector={"model": "absent"}).stability is None


def test_variability_unions_normalized_titles():
    records = [
        run_record(run_id="a", unique_threat_titles=["Phishing", "Data Breach"]),
        run_record(run_id="b", unique_threat_titles=["phishing", "Malware"]),
        run_record(run_id="c", completed=False, unique_threat_titles=["Ignored"]),
        run_record(run_id="d", model_id="other-model", completed=False,
                   unique_threat_titles=["Ignored"]),
    ]
    variability = compute_metrics(records=records).variability
    assert variability["p/m"] == 3
    # a cell with no completed run is absent, not zero
    assert "p/other-model" not in variability
    assert list(variability) == ["p/m"]


def test_variability_cells_in_profile_then_model_order():
    records = [run_record(run_id=f"r{i}", profile_id=profile, model_id=model)
               for i, (profile, model) in enumerate([("b", "m"), ("a-b", "m"), ("a", "z"),
                                                     ("a", "m")])]
    assert list(compute_metrics(records=records).variability) == [
        "a/m", "a/z", "a-b/m", "b/m"]


def test_latency_single_case_study_run():
    stats = compute_metrics(records=[run_record(wall_seconds=878.0)]).latency
    assert stats.mean_s == stats.min_s == stats.max_s == 878.0
    assert stats.runs == 1


def test_latency_mean_over_selector():
    records = [run_record(run_id=f"r{i}", wall_seconds=w, mode="multi_agent")
               for i, w in enumerate([60.2, 70.4, 80.6])]
    records.append(run_record(run_id="x", wall_seconds=900.0, mode="single_agent"))
    stats = compute_metrics(records=records, selector={"mode": "multi_agent"}).latency
    assert abs(stats.mean_s - 70.4) < 1e-9
    assert stats.runs == 3


def test_every_selector_key_must_match():
    records = [run_record(run_id="a", model_id="m1", profile_id="p1"),
               run_record(run_id="b", model_id="m1", profile_id="p2"),
               run_record(run_id="c", model_id="m2", profile_id="p1", mode="multi_agent")]
    for selector, run_ids in [
            ({"model": "m1"}, "ab"), ({"profile": "p1"}, "ac"),
            ({"mode": "multi_agent"}, "c"), ({"model": "m1", "profile": "p1"}, "a"),
            ({"model": "m1", "mode": "multi_agent"}, "")]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = compute_metrics(records=records, selector=selector)
        # each value is held by some record, so the warning names none of them
        assert [str(w.message) for w in caught] == (
            [] if run_ids else ["--select picks none of the 3 runs"]), selector
        runs = report.latency.runs if report.latency else 0
        assert runs == len(run_ids), selector
        assert list(report.variability) == sorted(
            f"{r.profile_id}/{r.model_id}" for r in records if r.run_id in run_ids)


@pytest.mark.parametrize("records", [None, [], [run_record()]],
                         ids=["no_ledger", "empty_ledger", "one_run"])
def test_unknown_selector_key_is_rejected(records):
    with pytest.raises(RiskforgeError, match="^unknown selector key 'colour'$"):
        compute_metrics(records=records, selector={"colour": "blue"})


def test_metrics_report_rendering(case_study_system):
    report = compute_metrics(
        records=[run_record()],
        system=case_study_system,
        annotations=load_annotations(FIXTURES / "annotations.jsonl"),
        aliases=fixture_aliases())
    table = report.render_table()
    assert "agreement     18/21 (0.857)" in table
    assert "coverage      12/13 (0.923)" in table
    assert "stability     1.000" in table
    doc = report.to_json()
    assert doc["agreement"]["matched"] == 18
    assert doc["stability"] == 1.0


def test_ledger_only_report_has_no_agreement_or_coverage():
    doc = compute_metrics(records=[run_record(wall_seconds=2.0)]).to_json()
    assert doc == {"agreement": None, "coverage": None, "stability": 1.0,
                   "variability": {"p/m": 3},
                   "latency": {"mean_s": 2.0, "min_s": 2.0, "max_s": 2.0, "runs": 1}}


# -- ablation sweep ----------------------------------------------------------

def test_ablation_runs_and_resumes(profiles, corpus, model_specs, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    contracts = ContractSet(schema_mode="cross_sector")
    executed = run_ablation(list(profiles.values()), model_specs, 1,
                            "single_agent", ledger, contracts, corpus,
                            DATA_DIR / "stub")
    assert executed == 10  # 5 profiles x 2 models x 1 seed
    records = load_ledger(ledger)
    assert len(records) == 10
    assert all(r.completed for r in records)
    # rerunning the same sweep is a no-op
    assert run_ablation(list(profiles.values()), model_specs, 1,
                        "single_agent", ledger, contracts, corpus,
                        DATA_DIR / "stub") == 0
    # extending runs_per_cell only adds the missing seeds
    assert run_ablation(list(profiles.values()), model_specs, 2,
                        "single_agent", ledger, contracts, corpus,
                        DATA_DIR / "stub") == 10


def test_ablation_checks_every_profile_before_the_first_cell(profiles, corpus,
                                                            model_specs, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    with pytest.raises(ProfileInvalid) as exc:
        run_ablation([profiles["health_15"], {"x": 1}], model_specs, 1, "single_agent",
                     ledger, ContractSet(schema_mode="cross_sector"), corpus,
                     DATA_DIR / "stub")
    assert str(exc.value).startswith("questionnaire invalid: ")
    assert not ledger.exists()


def test_resume_key_includes_mode(profiles, corpus, model_specs, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    contracts = ContractSet(schema_mode="cross_sector")

    def sweep(mode):
        return run_ablation(list(profiles.values()), model_specs, 1, mode, ledger,
                            contracts, corpus, DATA_DIR / "stub")

    assert sweep("single_agent") == 10
    assert sweep("multi_agent") == 10
    assert sweep("multi_agent") == 0
    assert Counter(r.mode for r in load_ledger(ledger)) == {
        "single_agent": 10, "multi_agent": 10}


def _comparable(record):
    """A record's cell and outcome, without the fields each run draws anew."""
    doc = record.to_json()
    del doc["run_id"], doc["wall_seconds"]
    return doc


def test_threaded_sweep_writes_the_records_of_a_serial_one(profiles, corpus, model_specs,
                                                           tmp_path):
    """The bundled single-agent sweep with workers=2 writes the records it
    writes with workers=1, in some order."""
    contracts = ContractSet(schema_mode="cross_sector")
    ledgers = []
    for workers in (1, 2):
        ledger = tmp_path / f"workers{workers}.jsonl"
        assert run_ablation(list(profiles.values()), model_specs, 3, "single_agent", ledger,
                            contracts, corpus, DATA_DIR / "stub", workers=workers) == 30
        ledgers.append(sorted((_comparable(r) for r in load_ledger(ledger)),
                              key=lambda doc: (doc["profile_id"], doc["model_id"],
                                               doc["seed"])))
    assert ledgers[0] == ledgers[1]


def test_sweep_parses_each_stub_script_once_per_spec(profiles, corpus, model_specs,
                                                     tmp_path, monkeypatch):
    contracts = ContractSet(schema_mode="cross_sector")
    stub_root = DATA_DIR / "stub"

    # the sweep's cells run one by one, each with a gateway of its own
    expected = []
    for profile in profiles.values():
        for spec in model_specs:
            for seed in range(2):
                config = ModelConfig(model_id=spec.label, seed=seed,
                                     context_window_tokens=spec.context_window_tokens)
                record, _ = execute_pipeline(profile, config, "single_agent",
                                             StubGateway(stub_root / spec.script),
                                             corpus, contracts)
                expected.append(_comparable(record))

    loads = []
    read_text = Path.read_text

    def counting_read_text(path, *args, **kwargs):
        if stub_root in path.parents:
            loads.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    ledger = tmp_path / "ledger.jsonl"
    assert run_ablation(list(profiles.values()), model_specs, 2, "single_agent",
                        ledger, contracts, corpus, stub_root) == 20
    assert sorted(loads) == sorted(stub_root / spec.script / "single_agent.json"
                                   for spec in model_specs)
    assert [_comparable(r) for r in load_ledger(ledger)] == expected


def test_sweep_checks_and_serializes_each_profile_once(profiles, corpus, model_specs,
                                                      tmp_path, monkeypatch):
    """The bundled sweep, 5 profiles x 2 models x 3 seeds, runs the
    questionnaire checker and canonical_json once per profile, not once
    per cell: every cell reuses its profile's Questionnaire."""
    contracts = ContractSet(schema_mode="cross_sector")
    checker = contracts.checker(QUESTIONNAIRE_SCHEMA)
    checked = []

    def counting_checker(doc):
        checked.append(doc)
        return checker(doc)

    monkeypatch.setattr(contracts, "checker", lambda name: counting_checker
                        if name == QUESTIONNAIRE_SCHEMA
                        else ContractSet.checker(contracts, name))
    serialized = []
    for module in (context_store, orchestrator):
        original = module.canonical_json
        monkeypatch.setattr(module, "canonical_json",
                            lambda doc, original=original: serialized.append(doc)
                            or original(doc))
    assert run_ablation(list(profiles.values()), model_specs, 3, "single_agent",
                        tmp_path / "ledger.jsonl", contracts, corpus,
                        DATA_DIR / "stub") == 30
    assert checked == serialized == list(profiles.values())


def test_sweep_builds_and_hashes_each_single_agent_prompt_once_per_profile(
        profiles, corpus, model_specs, tmp_path, monkeypatch):
    """The single-agent prompt depends on the profile alone: the bundled
    sweep builds it (and retrieves its excerpts) once per profile, and each
    model's stub hashes it once, as the seeds of a cell reuse the pick."""
    counts = Counter()

    def counting(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: counts.update([name])
                            or original(*args))

    counting(ContractSet, "_single_prompt")
    counting(Corpus, "retrieve")
    counting(gateway, "prompt_hash")
    assert run_ablation(list(profiles.values()), model_specs, 3, "single_agent",
                        tmp_path / "ledger.jsonl", ContractSet(schema_mode="cross_sector"),
                        corpus, DATA_DIR / "stub") == 30
    assert counts == {"_single_prompt": 5, "retrieve": 5, "prompt_hash": 10}


def test_sweep_resumes_a_ledger_torn_anywhere_in_its_last_two_lines(profiles, corpus,
                                                                   model_specs, tmp_path):
    """A ledger cut at any byte of its last two lines, as a killed writer
    leaves it, resumes to the cells and outcomes of an uninterrupted sweep.
    A torn tail is cut off with one warning before the first append, and
    the resumed ledger reads back with no line skipped."""
    contracts = ContractSet(schema_mode="cross_sector")
    ledger = tmp_path / "ledger.jsonl"

    def sweep():
        return run_ablation(list(profiles.values()), model_specs, 3, "single_agent",
                            ledger, contracts, corpus, DATA_DIR / "stub")

    assert sweep() == 30
    whole = ledger.read_bytes()
    expected = [_comparable(record) for record in load_ledger(ledger)]
    lines = whole.splitlines(keepends=True)
    for cut in range(len(whole) - len(lines[-1]) - len(lines[-2]), len(whole)):
        ledger.write_bytes(whole[:cut])
        # whole records left; a line lacking only its newline is one
        kept = whole[:cut].count(b"\n") + (whole[cut:cut + 1] == b"\n")
        tail = cut - whole.rfind(b"\n", 0, cut) - 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sweep() == 30 - kept, cut
        torn = [f"{ledger}:{kept + 1}: cut a torn last line ({tail} bytes, no trailing "
                f"newline) before appending"]
        assert [str(w.message) for w in caught] == (
            torn if tail and whole[cut:cut + 1] != b"\n" else []), cut
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [_comparable(record) for record in load_ledger(ledger)] == expected, cut


def test_multi_agent_ablation_at_4096_never_completes(profiles, corpus,
                                                      model_specs, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    contracts = ContractSet(schema_mode="cross_sector")
    run_ablation(list(profiles.values()), model_specs, 1, "multi_agent",
                 ledger, contracts, corpus, DATA_DIR / "stub")
    records = load_ledger(ledger)
    assert len(records) == 10
    assert all(not r.completed for r in records)
    assert {r.failure_kind for r in records} == {"context_overflow"}
    assert compute_metrics(records=records).stability == 0
