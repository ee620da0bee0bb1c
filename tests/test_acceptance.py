"""Acceptance gate: one test per shipping criterion, one pass/fail line each."""

import json
import random
import threading
import time

import pytest

from riskforge.context_store import ContextStore
from riskforge.contracts import DATA_DIR, ENTRY_KINDS, ContractSet
from riskforge.evalkit import (AliasMap, compute_metrics, coverage, load_annotations,
                               run_ablation, severity_agreement)
from riskforge.gateway import ModelConfig, StubGateway
from riskforge.orchestrator import execute_pipeline, load_ledger
from riskforge.records import decode
from riskforge.risk_model import (RiskItem, derive_severity, parse_level, rank_risks,
                                  read_register)

FIXTURES = DATA_DIR / "fixtures"
STUB = DATA_DIR / "stub"


def conclude(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[criterion {number}] {label}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def stage_register(run_dir):
    """The risk_register stage's risks, in its own order, from a run's session log."""
    store = ContextStore.load(run_dir / "session.jsonl")
    return store.snapshot()["risk_register"].payload["risks"]


@pytest.fixture(scope="module")
def ablation(profiles, corpus, model_specs, tmp_path_factory):
    """The bundled 5-profile x 2-model x 3-seed sweep, both modes."""
    root = tmp_path_factory.mktemp("ablation")
    contracts = ContractSet(schema_mode="cross_sector")
    ledgers = {}
    for mode in ("single_agent", "multi_agent"):
        ledger = root / f"{mode}.jsonl"
        run_ablation(list(profiles.values()), model_specs, 3, mode, ledger,
                     contracts, corpus, STUB)
        ledgers[mode] = load_ledger(ledger)
    return ledgers


def test_criterion_1_end_to_end_stub_pipeline(health_profile, case_contracts,
                                              corpus, specific_gateway, tmp_path):
    start = time.perf_counter()
    record, _ = execute_pipeline(
        health_profile,
        ModelConfig(model_id="stub-model", context_window_tokens=131072, seed=0),
        "multi_agent", specific_gateway, corpus, case_contracts, out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    run_dir = tmp_path / record.run_id
    session = [json.loads(l) for l in
               (run_dir / "session.jsonl").read_text().splitlines()]
    keys = [e["key"] for e in session]
    # the two stage-2 entries may land in either order
    staged_ok = (keys[0] == "org_profile"
                 and set(keys[1:3]) == {"threat_model", "control_assessment"}
                 and keys[3:] == ["risk_register", "recommendations", "report"])
    conclude(1, "end-to-end stub pipeline",
             record.completed
             and staged_ok
             and (run_dir / "report.md").is_file()
             and (run_dir / "report.json").is_file()
             and elapsed < 5.0,
             f"all 5 stages in {elapsed:.2f}s")


def test_criterion_2_context_budget_reproduction(ablation):
    multi = ablation["multi_agent"]
    single = ablation["single_agent"]
    multi_failed_right = all(
        not r.completed and r.failure_kind == "context_overflow"
        and r.failed_stage == "risk_scoring"
        for r in multi)
    conclude(2, "context-budget reproduction",
             len(multi) == 30 and len(single) == 30
             and multi_failed_right
             and all(r.completed for r in single),
             f"multi {sum(r.completed for r in multi)}/30 completed, "
             f"single {sum(r.completed for r in single)}/30 completed")


def test_criterion_3_metrics_fixture_exactness(case_study_run):
    """The case-study metrics score the report.json that the multi-agent stub
    pipeline writes for health_15 (the case_study_run fixture)."""
    system = read_register(json.loads((case_study_run / "report.json").read_text()))
    annotations = load_annotations(FIXTURES / "annotations.jsonl")
    aliases = AliasMap(decode(list[tuple[str, str]],
                              json.loads((FIXTURES / "aliases.json").read_text())))
    agree = severity_agreement(system, annotations, aliases)
    cover = coverage(system, annotations, aliases)
    conclude(3, "case-study metrics from a pipeline run",
             (agree.matched, agree.total) == (18, 21)
             and abs(float(agree.ratio) - 0.857) < 0.001
             and (cover.matched, cover.total) == (12, 13)
             and abs(float(cover.ratio) - 0.923) < 0.001,
             f"agreement {agree.display()}, coverage {cover.display()}")


def test_criterion_3_register_is_the_pipeline_output(case_study_run, health_profile,
                                                    case_contracts, corpus,
                                                    specific_gateway, tmp_path):
    """The register criterion 3 scores is what the multi-agent stub pipeline's
    risk_register stage writes for health_15, the same at stub seeds 0, 1 and 2."""
    registers = [stage_register(case_study_run)]
    for seed in (1, 2):
        record, _ = execute_pipeline(
            health_profile,
            ModelConfig(model_id="stub-model", context_window_tokens=131072, seed=seed),
            "multi_agent", specific_gateway, corpus, case_contracts, out_dir=tmp_path)
        registers.append(stage_register(tmp_path / record.run_id))
    conclude(3, "case-study register from the pipeline",
             len(registers[0]) == 7 and registers == [registers[0]] * 3,
             f"{len(registers[0])} risks equal at stub seeds 0, 1 and 2")


def test_criterion_4_citation_verification(corpus):
    seeded = corpus.verify_citations(
        (FIXTURES / "seeded_report.md").read_text(encoding="utf-8"))
    grounded = corpus.verify_citations(
        (FIXTURES / "grounded_report.md").read_text(encoding="utf-8"))
    flagged = sum(1 for c in seeded if not c.verified)
    false_flags = sum(1 for c in grounded if not c.verified)

    # randomized membership oracle: plant known and fabricated identifiers,
    # verification must flag exactly the non-members
    known = [(e.framework, e.identifier) for e in corpus.excerpts]
    fabricated = [("nist_csf", "ZZ.XX-9"), ("nist_csf", "QQ.YY-42"),
                  ("cis", "77"), ("cis", "19.19"), ("nist_csf", "AA.BB-1")]
    rng = random.Random(20260824)
    oracle_ok = True
    for _ in range(1000):
        picks = [rng.choice(known + fabricated)
                 for _ in range(rng.randint(0, 8))]
        text = " and ".join(
            f"CIS Control {ident}" if fw == "cis" else ident
            for fw, ident in picks)
        result = corpus.verify_citations(text)
        expected = [(fw, ident) in set(known) for fw, ident in picks]
        if [c.verified for c in result] != expected:
            oracle_ok = False
            break
    conclude(4, "citation verification",
             flagged == 7 and false_flags == 0 and oracle_ok,
             f"seeded fixture flagged {flagged}/7, grounded false flags "
             f"{false_flags}, 1000-case oracle {'ok' if oracle_ok else 'violated'}")


def test_criterion_5_structural_stability(ablation):
    stability = compute_metrics(records=ablation["single_agent"]).stability
    conclude(5, "structural stability",
             len(ablation["single_agent"]) == 30 and stability == 1,
             f"stability {float(stability):.3f} over 30 runs")


def test_criterion_6_title_variability(ablation, profiles):
    variability = compute_metrics(records=ablation["single_agent"]).variability
    observed = {}
    ok = True
    for profile_id in profiles:
        # a cell with no completed run is absent, and fails the bounds as 0
        specific = variability.get(f"{profile_id}/ft-cybersec", 0)
        generic = variability.get(f"{profile_id}/mistral-7b", 0)
        observed[profile_id] = (specific, generic)
        ok = ok and 6 <= specific <= 9 and 3 <= generic <= 4
    conclude(6, "title variability", ok,
             "; ".join(f"{pid} specific={s} generic={g}"
                       for pid, (s, g) in observed.items()))


def test_criterion_7_severity_and_ranking(case_study_run):
    rng = random.Random(7)
    levels = ["Low", "Medium", "High"]
    property_ok = True
    for _ in range(1000):
        a, b, c = (rng.choice(levels) for _ in range(3))
        sym = derive_severity(a, b).value == derive_severity(b, a).value
        mono = (parse_level(a) > parse_level(b)
                and derive_severity(a, c).value < derive_severity(b, c).value)
        items = [RiskItem(title=f"r{i}", likelihood=rng.choice(levels),
                          impact=rng.choice(levels), reasoning="")
                 for i in range(rng.randint(0, 10))]
        ranked = rank_risks(items)
        sorted_ok = all(
            (-x.severity.value, -parse_level(x.impact), x.title)
            <= (-y.severity.value, -parse_level(y.impact), y.title)
            for x, y in zip(ranked, ranked[1:]))
        if not sym or mono or not sorted_ok:
            property_ok = False
            break

    ranked = rank_risks(decode(list[RiskItem], stage_register(case_study_run)))
    register_ok = (all(r.severity.value >= 6 for r in ranked[:6])
                   and ranked[6].likelihood == ranked[6].impact == "Medium")
    conclude(7, "severity and ranking", property_ok and register_ok,
             "1000 property cases; four severity>=6 items above Medium/Medium")


def test_criterion_8_determinism(health_profile, case_contracts, corpus,
                                 specific_gateway, tmp_path):
    reports = []
    for sub in ("a", "b"):
        record, _ = execute_pipeline(
            health_profile,
            ModelConfig(model_id="stub-model", context_window_tokens=131072, seed=3),
            "multi_agent", specific_gateway, corpus, case_contracts,
            out_dir=tmp_path / sub)
        reports.append(
            (tmp_path / sub / record.run_id / "report.md").read_bytes())

    log = tmp_path / "log.jsonl"
    store = ContextStore(log_path=log)
    store.append_entry("org_profile", "risk_intake", {"x": [1, {"y": "z"}]})
    store.append_entry("org_profile", "risk_intake", {"x": 2})
    store.append_entry("report", "report_synthesis", {"exec_summary": "s"})
    reloaded = ContextStore.load(log)
    round_trip_ok = all(reloaded.read_history(key) == store.read_history(key)
                        for key in ENTRY_KINDS)
    conclude(8, "determinism",
             reports[0] == reports[1] and round_trip_ok,
             "same-seed reports byte-identical; store round-trips its log")


def test_criterion_9_parallel_stage(health_profile, case_contracts, corpus):
    calls = []
    lock = threading.Lock()

    class Recorder(StubGateway):
        def complete(self, request):
            start = time.perf_counter()
            result = super().complete(request)
            with lock:
                calls.append((request.role, start, time.perf_counter()))
            return result

    gateway = Recorder(STUB / "specific", sleep_seconds=0.5)
    record, _ = execute_pipeline(
        health_profile,
        ModelConfig(model_id="stub-model", context_window_tokens=131072, seed=0),
        "multi_agent", gateway, corpus, case_contracts)
    started = {role: s for role, s, _ in calls}
    ended = {role: e for role, _, e in calls}
    stage2_wall = (max(ended["threat_modeling"], ended["control_assessment"])
                   - min(started["threat_modeling"], started["control_assessment"]))
    dag_ok = (ended["risk_intake"] <= min(started["threat_modeling"],
                                          started["control_assessment"])
              and max(ended["threat_modeling"], ended["control_assessment"])
              <= started["risk_scoring"]
              and ended["risk_scoring"] <= started["mitigation"]
              and ended["mitigation"] <= started["report_synthesis"])
    conclude(9, "parallel stage", record.completed and stage2_wall < 0.9 and dag_ok,
             f"stage-2 wall {stage2_wall:.3f}s with 0.5s per-call sleeps; "
             "call order respects the stage DAG")
