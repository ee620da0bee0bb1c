"""Pipeline orchestration: staging, budget enforcement, run records."""

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

import riskforge
from riskforge import orchestrator
from riskforge.context_store import ContextStore
from riskforge.contracts import (DATA_DIR, ENTRY_KINDS, MAX_ATTEMPTS, STAGES,
                                 ContractSet)
from riskforge.errors import NoScriptForRole, ProfileInvalid, StorageFailure
from riskforge.gateway import ModelConfig, StubGateway
from riskforge.orchestrator import (RunRecord, enforce_budget, execute_pipeline,
                                    load_ledger, record_run)

STUB = DATA_DIR / "stub"


def config(window=131072, seed=0, model="stub-model"):
    return ModelConfig(model_id=model, context_window_tokens=window, seed=seed)


class RecordingGateway(StubGateway):
    """Stub that records (role, start, end) per completion call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []
        self._lock = threading.Lock()

    def complete(self, request):
        start = time.perf_counter()
        result = super().complete(request)
        with self._lock:
            self.calls.append((request.role, start, time.perf_counter()))
        return result


class UnsaidGateway:
    """A third-party gateway: delegates to another one and has no
    waits_on_io attribute."""

    def __init__(self, inner):
        self.inner = inner

    def complete(self, request):
        return self.inner.complete(request)


class TruncatingGateway:
    """Delegates to a stub; the first `truncate` calls for `role` come back
    marked truncated, their text untouched."""

    def __init__(self, inner, role, truncate):
        self.inner = inner
        self.role = role
        self.truncate = truncate
        self.prompts = defaultdict(list)

    def complete(self, request):
        self.prompts[request.role].append(request.prompt)
        result = self.inner.complete(request)
        if request.role == self.role and len(self.prompts[self.role]) <= self.truncate:
            return dataclasses.replace(result, truncated=True)
        return result


class ProseGateway(TruncatingGateway):
    """As TruncatingGateway, but the spoiled calls come back untruncated, as
    prose with no JSON object in it."""

    def complete(self, request):
        result = super().complete(request)
        if result.truncated:
            return dataclasses.replace(result, truncated=False,
                                       text="I could not complete this assessment.")
        return result


# -- budget decision ---------------------------------------------------------

def test_budget_deficit_arithmetic():
    decision = enforce_budget(None, "risk_scoring", config(window=4096),
                              prompt_tokens=3900)
    assert not decision.ok
    # 3900 prompt + 1024 reserved - 4096 window
    assert decision.deficit == 828
    assert "overflows by 828" in decision.describe()


def test_budget_fit_reports_zero_deficit():
    decision = enforce_budget(None, "mitigation", config(window=4096),
                              prompt_tokens=3072)
    assert decision.ok
    assert decision.deficit == 0


def test_budget_names_largest_context_entry():
    store = ContextStore(ENTRY_KINDS)
    store.append_entry("org_profile", "risk_intake", {"small": 1})
    store.append_entry("control_assessment", "control_assessment",
                       {"functions": {"Identify": ["x" * 400]}})
    decision = enforce_budget(store.snapshot(), "risk_scoring",
                              config(window=4096), prompt_tokens=4000)
    assert decision.largest_entry_key == "control_assessment"
    assert decision.largest_entry_tokens > 0


# -- run records -------------------------------------------------------------

def test_record_round_trip(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    record = RunRecord(run_id="r1", profile_id="p", model_id="m",
                       mode="multi_agent", seed=2, completed=True,
                       wall_seconds=1.5, structural_ok=True,
                       unique_threat_titles=["A", "B"])
    record_run(record, ledger)
    loaded = load_ledger(ledger)
    assert loaded == [record]


def test_concurrent_ledger_appends_one_line_each(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    n = 40

    def work(i):
        record_run(RunRecord(run_id=f"r{i}", profile_id="p", model_id="m",
                             mode="single_agent", seed=i, completed=True), ledger)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    lines = ledger.read_text().splitlines()
    assert len(lines) == n
    ids = {json.loads(line)["run_id"] for line in lines}
    assert len(ids) == n


_APPENDER = """
import sys
from riskforge.orchestrator import RunRecord, record_run
path, worker, count, width = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
for i in range(count):
    record_run(RunRecord(run_id=f"w{worker}-r{i}", profile_id="p", model_id="m",
                         mode="multi_agent", seed=i, completed=True,
                         unique_threat_titles=[str(worker) * width, str(i) * width]),
               path)
"""


def test_concurrent_processes_append_whole_lines(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    workers, count, width = 4, 25, io.DEFAULT_BUFFER_SIZE
    src = str(Path(riskforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-c", _APPENDER, str(ledger), str(w),
                               str(count), str(width)], env=env)
             for w in range(workers)]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    lines = ledger.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == workers * count
    assert all(len(line) > io.DEFAULT_BUFFER_SIZE for line in lines)
    records = [json.loads(line) for line in lines]
    assert {r["run_id"] for r in records} == {f"w{w}-r{i}" for w in range(workers)
                                              for i in range(count)}


def test_ledger_short_write_is_a_storage_failure(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(orchestrator.os, "write", lambda fd, data: real_write(fd, data[:5]))
    with pytest.raises(StorageFailure, match="short write"):
        record_run(RunRecord(run_id="r", profile_id="p", model_id="m",
                             mode="multi_agent", seed=0, completed=True),
                   tmp_path / "ledger.jsonl")


def test_unwritable_ledger_is_a_storage_failure(tmp_path):
    (tmp_path / "ledger.jsonl").mkdir()
    with pytest.raises(StorageFailure):
        record_run(RunRecord(run_id="r", profile_id="p", model_id="m",
                             mode="multi_agent", seed=0, completed=True),
                   tmp_path / "ledger.jsonl")


# -- pipeline execution ------------------------------------------------------

def test_multi_agent_end_to_end(health_profile, case_contracts, corpus,
                                specific_gateway, tmp_path):
    start = time.perf_counter()
    record, report = execute_pipeline(
        health_profile, config(), "multi_agent", specific_gateway, corpus,
        case_contracts, out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    assert record.completed
    assert record.failed_stage is None
    assert report is not None and report.key == "report"
    assert elapsed < 5.0

    run_dir = tmp_path / record.run_id
    assert (run_dir / "report.md").is_file()
    assert (run_dir / "report.json").is_file()
    session = [json.loads(l) for l in (run_dir / "session.jsonl").read_text().splitlines()]
    keys = [e["key"] for e in session]
    assert keys[0] == "org_profile"
    # the two stage-2 entries may land in either order
    assert set(keys[1:3]) == {"threat_model", "control_assessment"}
    assert keys[3:] == ["risk_register", "recommendations", "report"]
    doc = json.loads((run_dir / "report.json").read_text())
    assert doc["run_metadata"]["run_id"] == record.run_id
    assert doc["run_metadata"]["mode"] == "multi_agent"


def test_multi_agent_overflows_at_small_window(health_profile, case_contracts,
                                               corpus, specific_gateway, tmp_path):
    record, report = execute_pipeline(
        health_profile, config(window=4096), "multi_agent", specific_gateway,
        corpus, case_contracts, out_dir=tmp_path)
    assert not record.completed
    assert record.failure_kind == "context_overflow"
    assert record.failed_stage == "risk_scoring"
    assert report is None
    # clean abort: only the stages that ran are in the session log, and no
    # report artifacts exist
    run_dir = tmp_path / record.run_id
    session = [json.loads(l) for l in (run_dir / "session.jsonl").read_text().splitlines()]
    keys = [e["key"] for e in session]
    assert keys[0] == "org_profile"
    assert set(keys[1:]) == {"threat_model", "control_assessment"}
    assert not (run_dir / "report.md").exists()


@pytest.mark.parametrize("script", ["specific", "generic"])
def test_every_profile_overflows_multi_at_4096(profiles, corpus, script):
    from riskforge.contracts import ContractSet
    gateway = StubGateway(STUB / script)
    for pid, profile in profiles.items():
        contracts = ContractSet(
            schema_mode="case_study" if pid == "health_15" else "cross_sector")
        record, _ = execute_pipeline(profile, config(window=4096), "multi_agent",
                                     gateway, corpus, contracts)
        assert not record.completed, pid
        assert record.failure_kind == "context_overflow", pid


def test_single_agent_completes_at_4096(profiles, cross_contracts, corpus,
                                        specific_gateway, tmp_path):
    record, report = execute_pipeline(
        profiles["saas_25"], config(window=4096), "single_agent",
        specific_gateway, corpus, cross_contracts, out_dir=tmp_path)
    assert record.completed
    assert record.structural_ok
    assert len(record.unique_threat_titles) == 3
    doc = json.loads((tmp_path / record.run_id / "report.json").read_text())
    assert len(doc["threats"]) == len(doc["risks"]) == len(doc["recommendations"]) == 3
    assert report.payload == doc


def test_single_agent_overflow_is_recorded(profiles, cross_contracts, corpus):
    # the single-agent prompt is ~2,400 tokens; 1,024 fit beside the reserve
    gateway = RecordingGateway(STUB / "specific")
    record, report = execute_pipeline(profiles["saas_25"], config(window=2048),
                                      "single_agent", gateway, corpus, cross_contracts)
    assert not record.completed
    assert (record.failed_stage, record.failure_kind) == ("single_agent",
                                                         "context_overflow")
    assert gateway.calls == []
    assert report is None


def test_single_agent_schema_failure_is_recorded(profiles, cross_contracts,
                                                 corpus, tmp_path):
    (tmp_path / "single_agent.json").write_text(
        json.dumps({"default": [{"threats": []}]}), encoding="utf-8")
    record, report = execute_pipeline(
        profiles["retail_20"], config(), "single_agent", StubGateway(tmp_path),
        corpus, cross_contracts)
    assert not record.completed
    assert record.failed_stage == "single_agent"
    assert record.failure_kind == "agent_failed"
    assert report is None


def test_invalid_questionnaire_raises_before_any_stage(case_contracts, corpus,
                                                       specific_gateway):
    with pytest.raises(ProfileInvalid):
        execute_pipeline({"profile_id": "x"}, config(), "multi_agent",
                         specific_gateway, corpus, case_contracts)


@pytest.mark.parametrize("edit, message", [
    ({"industry": None}, "'industry' is a required property"),
    ({"employee_count": True}, "True is not of type 'integer'"),
    ({"employee_count": 0}, "0 is less than the minimum of 1"),
    ({"extra": 1}, "Additional properties are not allowed ('extra' was unexpected)"),
    ({"systems": ["a", 3]}, "3 is not of type 'string'"),
])
def test_invalid_questionnaire_message_names_the_first_violation(
        health_profile, case_contracts, corpus, specific_gateway, edit, message):
    profile = {**health_profile, **edit}
    profile = {key: value for key, value in profile.items() if value is not None}
    with pytest.raises(ProfileInvalid) as exc:
        execute_pipeline(profile, config(), "multi_agent", specific_gateway, corpus,
                         case_contracts)
    assert str(exc.value) == f"questionnaire invalid: {message}"


def test_integral_float_questionnaire_counts_are_accepted(health_profile, case_contracts,
                                                         corpus, specific_gateway):
    profile = {**health_profile, "self_rated_maturity": 10.0}
    record, _ = execute_pipeline(profile, config(), "multi_agent", specific_gateway,
                                 corpus, case_contracts)
    assert record.completed


def test_session_log_closed_when_an_unclassified_error_escapes(
        health_profile, case_contracts, corpus, tmp_path, monkeypatch):
    closed = []

    class TrackedStore(ContextStore):
        def close(self):
            closed.append(self._log_path)
            super().close()

    monkeypatch.setattr(orchestrator, "ContextStore", TrackedStore)
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    # only the intake script: stage 2 raises NoScriptForRole, which is not
    # a classified stage failure and so escapes execute_pipeline
    shutil.copy(STUB / "specific" / "risk_intake.json", scripts)
    with pytest.raises(NoScriptForRole):
        execute_pipeline(health_profile, config(), "multi_agent", StubGateway(scripts),
                         corpus, case_contracts, out_dir=tmp_path / "out")
    assert len(closed) == 1 and closed[0].name == "session.jsonl"
    session = closed[0].read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["key"] for line in session] == ["org_profile"]


@pytest.mark.parametrize("mode, schema", [("multi_agent", "threat_model.json"),
                                          ("single_agent", "single_agent.json")])
def test_unsupported_schema_fails_before_the_run_starts(health_profile, corpus,
                                                        specific_gateway, tmp_path,
                                                        mode, schema):
    schemas = tmp_path / "schemas"
    shutil.copytree(DATA_DIR / "schemas", schemas)
    doc = json.loads((schemas / schema).read_text(encoding="utf-8"))
    doc["description"] = "an annotation compile_schema does not support"
    (schemas / schema).write_text(json.dumps(doc), encoding="utf-8")
    contracts = ContractSet(schemas_dir=schemas, schema_mode="case_study")
    with pytest.raises(ValueError, match="unsupported keyword 'description'"):
        execute_pipeline(health_profile, config(), mode, specific_gateway, corpus,
                         contracts, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, role", [("multi_agent", "threat_modeling"),
                                        ("single_agent", "single_agent")])
def test_truncated_output_is_retried(profiles, cross_contracts, corpus, mode, role):
    gateway = TruncatingGateway(StubGateway(STUB / "specific"), role, truncate=1)
    record, _ = execute_pipeline(profiles["saas_25"], config(), mode, gateway, corpus,
                                 cross_contracts)
    assert record.completed
    first, retry = gateway.prompts[role]
    assert retry == (first + "\n\n=== PREVIOUS OUTPUT FAILED VALIDATION ===\n"
                     "Your previous output did not satisfy the schema:\n"
                     "- $: output truncated by the provider\n"
                     "Emit a corrected JSON object.")


@pytest.mark.parametrize("mode, role", [("multi_agent", "threat_modeling"),
                                        ("single_agent", "single_agent")])
def test_unparseable_output_is_retried(profiles, cross_contracts, corpus, mode, role):
    gateway = ProseGateway(StubGateway(STUB / "specific"), role, truncate=1)
    record, _ = execute_pipeline(profiles["saas_25"], config(), mode, gateway, corpus,
                                 cross_contracts)
    assert record.completed
    first, retry = gateway.prompts[role]
    assert retry == (first + "\n\n=== PREVIOUS OUTPUT FAILED VALIDATION ===\n"
                     "Your previous output did not satisfy the schema:\n"
                     "- $: no balanced JSON object found in output\n"
                     "Emit a corrected JSON object.")


@pytest.mark.parametrize("mode, role", [("multi_agent", "threat_modeling"),
                                        ("single_agent", "single_agent")])
def test_output_truncated_on_every_attempt_fails_the_agent(profiles, cross_contracts,
                                                           corpus, mode, role):
    gateway = TruncatingGateway(StubGateway(STUB / "specific"), role,
                                truncate=MAX_ATTEMPTS)
    record, report = execute_pipeline(profiles["saas_25"], config(), mode, gateway,
                                      corpus, cross_contracts)
    assert not record.completed
    assert (record.failed_stage, record.failure_kind) == (role, "agent_failed")
    assert len(gateway.prompts[role]) == MAX_ATTEMPTS
    assert report is None


def test_unknown_mode_rejected(health_profile, case_contracts, corpus,
                               specific_gateway):
    with pytest.raises(ValueError):
        execute_pipeline(health_profile, config(), "both", specific_gateway,
                         corpus, case_contracts)


# -- staging and parallelism -------------------------------------------------

def test_call_order_respects_stage_dag(health_profile, case_contracts, corpus):
    gateway = RecordingGateway(STUB / "specific")
    record, _ = execute_pipeline(health_profile, config(), "multi_agent",
                                 gateway, corpus, case_contracts)
    assert record.completed
    started = {role: start for role, start, _ in gateway.calls}
    ended = {role: end for role, _, end in gateway.calls}
    assert ended["risk_intake"] <= min(started["threat_modeling"],
                                       started["control_assessment"])
    assert max(ended["threat_modeling"],
               ended["control_assessment"]) <= started["risk_scoring"]
    assert ended["risk_scoring"] <= started["mitigation"]
    assert ended["mitigation"] <= started["report_synthesis"]


@pytest.mark.parametrize("wrap", [lambda gateway: gateway, UnsaidGateway],
                         ids=["sleeping_stub", "no_waits_on_io"])
def test_parallel_stage_overlaps(health_profile, case_contracts, corpus, wrap):
    gateway = RecordingGateway(STUB / "specific", sleep_seconds=0.5)
    record, _ = execute_pipeline(health_profile, config(), "multi_agent",
                                 wrap(gateway), corpus, case_contracts)
    assert record.completed
    windows = {role: (start, end) for role, start, end in gateway.calls}
    tm = windows["threat_modeling"]
    ca = windows["control_assessment"]
    # the two stage-2 agents ran concurrently: combined wall < 0.9 s even
    # though each sleeps 0.5 s
    stage2_wall = max(tm[1], ca[1]) - min(tm[0], ca[0])
    assert stage2_wall < 0.9
    # and they genuinely overlap in time
    assert tm[0] < ca[1] and ca[0] < tm[1]


def test_stage_roles_run_on_the_calling_thread_when_calls_never_wait(
        health_profile, case_contracts, corpus, tmp_path):
    threads = []

    class ThreadRecorder(StubGateway):
        def complete(self, request):
            threads.append((request.role, threading.get_ident()))
            return super().complete(request)

    record, _ = execute_pipeline(health_profile, config(), "multi_agent",
                                 ThreadRecorder(STUB / "specific"), corpus,
                                 case_contracts, out_dir=tmp_path)
    assert record.completed
    assert [role for role, _ in threads] == [role for stage in STAGES for role in stage]
    assert {ident for _, ident in threads} == {threading.get_ident()}
    session = (tmp_path / record.run_id / "session.jsonl").read_text().splitlines()
    assert [json.loads(line)["key"] for line in session] == [
        "org_profile", "threat_model", "control_assessment", "risk_register",
        "recommendations", "report"]


@pytest.mark.parametrize("sleep_seconds", [0.0, 0.01], ids=["inline", "threaded"])
def test_stage_failure_parity(health_profile, case_contracts, corpus, tmp_path,
                              sleep_seconds):
    scripts = tmp_path / "scripts"
    shutil.copytree(STUB / "specific", scripts)
    # threat_modeling never validates: no threats, and no on_retry pool
    (scripts / "threat_modeling.json").write_text(
        json.dumps({"default": [{"threats": []}]}), encoding="utf-8")
    gateway = StubGateway(scripts, sleep_seconds=sleep_seconds)
    record, report = execute_pipeline(health_profile, config(), "multi_agent", gateway,
                                      corpus, case_contracts, out_dir=tmp_path / "out")
    assert (record.failed_stage, record.failure_kind) == ("threat_modeling",
                                                          "agent_failed")
    assert report is None
    session = (tmp_path / "out" / record.run_id / "session.jsonl").read_text()
    assert [json.loads(line)["key"] for line in session.splitlines()] == [
        "org_profile", "control_assessment"]


def test_same_seed_runs_are_reproducible(health_profile, case_contracts, corpus,
                                         specific_gateway, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rec_a, _ = execute_pipeline(health_profile, config(seed=1), "multi_agent",
                                specific_gateway, corpus, case_contracts, out_dir=out_a)
    rec_b, _ = execute_pipeline(health_profile, config(seed=1), "multi_agent",
                                specific_gateway, corpus, case_contracts, out_dir=out_b)
    report_a = (out_a / rec_a.run_id / "report.md").read_bytes()
    report_b = (out_b / rec_b.run_id / "report.md").read_bytes()
    assert report_a == report_b
