"""Pipeline orchestration: staging, budget enforcement, run records."""

import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from riskforge import context_store, orchestrator, records
from riskforge.context_store import ContextEntry, ContextStore
from riskforge.contracts import (DATA_DIR, MAX_ATTEMPTS, QUESTIONNAIRE_SCHEMA, SINGLE_AGENT,
                                 STAGES, ContractSet, excerpt_lines)
from riskforge.errors import (AgentFailed, ContextOverflow, ProfileInvalid, ProviderError,
                              RiskforgeError)
from riskforge.gateway import (RESERVED_OUTPUT_TOKENS, BudgetDecision, ModelConfig,
                               StubGateway)
from riskforge.grounding import Corpus
from riskforge.orchestrator import (RunRecord, check_profile, enforce_budget,
                                    execute_pipeline, load_ledger, record_run)
from riskforge.records import decode
from riskforge.tokens import canonical_json, estimate_tokens

from conftest import PROFILE_IDS

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


class SurrogateGateway(TruncatingGateway):
    """As TruncatingGateway, but the spoiled calls come back untruncated,
    with `insert` put at the start of the reply's first string value."""

    def __init__(self, inner, role, truncate, insert=r"\ud800"):
        super().__init__(inner, role, truncate)
        self.insert = insert

    def complete(self, request):
        result = super().complete(request)
        if result.truncated:
            return dataclasses.replace(
                result, truncated=False,
                text=result.text.replace('": "', '": "' + self.insert, 1))
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
    store = ContextStore()
    store.append_entry("org_profile", "risk_intake", {"small": 1})
    store.append_entry("control_assessment", "control_assessment",
                       {"functions": {"Identify": ["x" * 400]}})
    decision = enforce_budget(store.snapshot(), "risk_scoring",
                              config(window=4096), prompt_tokens=4000)
    assert decision.largest_entry_key == "control_assessment"
    assert decision.largest_entry_tokens > 0


def test_context_overflow_carries_the_decision_and_its_text():
    store = ContextStore()
    store.append_entry("control_assessment", "control_assessment",
                       {"functions": {"Identify": ["x" * 400]}})
    decision = enforce_budget(store.snapshot(), "risk_scoring",
                              config(window=4096), prompt_tokens=4000)
    error = ContextOverflow(decision)
    assert error.decision is decision
    assert str(error) == (
        "context overflow for role risk_scoring: 4000 prompt tokens + 1024 reserved vs "
        "window 4096 (overflows by 928); largest context entry: control_assessment "
        "(108 tokens)")


class Sent(Exception):
    """Raised by a provider that has been sent a prompt."""


@settings(max_examples=60, deadline=None)
@given(length=st.integers(0, 24000), window=st.integers(RESERVED_OUTPUT_TOKENS + 1, 6000))
@example(length=4 * (4096 - RESERVED_OUTPUT_TOKENS), window=4096)  # fits exactly
@example(length=4 * (4096 - RESERVED_OUTPUT_TOKENS) + 1, window=4096)  # over by one
def test_stage_check_and_agent_loop_agree_on_the_window(length, window):
    """enforce_budget fits a prompt exactly when run_agent sends it to the
    provider; otherwise run_agent raises the same decision."""
    prompt, sent = "x" * length, []

    class Provider:
        def complete(self, request):
            sent.append(request.prompt)
            raise Sent

    cfg = config(window=window)
    decision = enforce_budget(None, "threat_modeling", cfg, estimate_tokens(prompt))
    with pytest.raises((Sent, ContextOverflow)) as exc:
        ContractSet(schema_mode="cross_sector").run_agent(
            "threat_modeling", prompt, ContextStore(), Provider(), cfg)
    assert decision.ok == (sent == [prompt])
    if not decision.ok:
        raised = exc.value.decision
        assert (raised.role, raised.prompt_tokens, raised.context_window_tokens,
                raised.deficit) == ("threat_modeling", decision.prompt_tokens, window,
                                    decision.deficit)


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


def test_concurrent_processes_append_whole_lines(tmp_path, package_env):
    ledger = tmp_path / "ledger.jsonl"
    workers, count, width = 4, 25, io.DEFAULT_BUFFER_SIZE
    procs = [subprocess.Popen([sys.executable, "-c", _APPENDER, str(ledger), str(w),
                               str(count), str(width)], env=package_env)
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


def _record(run_id="r"):
    return RunRecord(run_id=run_id, profile_id="p", model_id="m",
                     mode="multi_agent", seed=0, completed=True)


def _append_run(path):
    record_run(_record(), path)


def _append_entry(path):
    ContextStore(log_path=path).append_entry("org_profile", "risk_intake", {})


# both JSON Lines writers: the run ledger and the session log
writers = pytest.mark.parametrize("append", [_append_run, _append_entry],
                                  ids=["record_run", "append_entry"])


@writers
def test_short_write_is_a_storage_failure(tmp_path, monkeypatch, append):
    real_write = os.write
    monkeypatch.setattr(records.os, "write",
                        lambda fd, data: real_write(fd, data[:5]))
    with pytest.raises(RiskforgeError, match=re.escape(
            f"short write to {tmp_path / 'log.jsonl'}: 5 of ") + r"\d+ bytes$"):
        append(tmp_path / "log.jsonl")


@writers
def test_unwritable_log_is_a_storage_failure(tmp_path, append):
    (tmp_path / "log.jsonl").mkdir()
    with pytest.raises(RiskforgeError,
                       match=re.escape(f"cannot append to {tmp_path / 'log.jsonl'}: ")):
        append(tmp_path / "log.jsonl")


def _session_line(revision):
    return ContextEntry(key="org_profile", agent_id="risk_intake", revision=revision,
                        created_at="2026-01-01T00:00:00+00:00", payload={}).to_json()


def _encode(doc):
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def _torn(doc):
    line = _encode(doc)
    return line[:len(line) // 2]


def _torn_in_a_character(doc):
    line = _encode({**doc, next(iter(doc)): "é"})
    return line[:line.index("é".encode("utf-8")) + 1]


def _missing_field(doc):
    return _encode(dict(list(doc.items())[1:]))  # the first field has no default


def _wrong_types(doc):
    # each string a number and each integer a string, as in {"agent_id": 5,
    # "revision": "1", "token_estimate": "1"}
    return _encode({key: 5 if type(value) is str else str(value) if type(value) is int
                    else value for key, value in doc.items()})


# the two readers of a file that append_line writes, with a line each reads
READERS = pytest.mark.parametrize("reader, line, cls", [
    (load_ledger, lambda n: _record(f"r{n}").to_json(), "RunRecord"),
    (lambda path: ContextStore.load(path), _session_line, "ContextEntry"),
], ids=["load_ledger", "ContextStore.load"])


@READERS
@pytest.mark.parametrize("corrupt", [_torn, _torn_in_a_character, _missing_field,
                                     _wrong_types],
                         ids=["torn", "torn_in_a_character", "missing_field", "wrong_types"])
def test_bad_middle_line_is_a_storage_failure_naming_it(tmp_path, reader, line, cls,
                                                        corrupt):
    log = tmp_path / "log.jsonl"
    log.write_bytes(b"\n".join([_encode(line(1)), corrupt(line(2)), _encode(line(3))])
                    + b"\n")
    with pytest.raises(RiskforgeError, match=re.escape(f"{log}:2: not a {cls} record: ")):
        reader(log)


def _record_count(loaded):
    """The records a ledger (a list) or a session log (a store) holds."""
    return len(loaded if isinstance(loaded, list) else loaded.read_history("org_profile"))


@READERS
@pytest.mark.parametrize("tear", [_torn, _torn_in_a_character],
                         ids=["torn", "torn_in_a_character"])
def test_torn_last_line_is_skipped_with_a_warning(tmp_path, reader, line, cls, tear):
    """A killed writer leaves a last line with no newline that is no JSON
    document: the record it held never completed, so the reader skips it."""
    log = tmp_path / "log.jsonl"
    torn = tear(line(2))
    log.write_bytes(_encode(line(1)) + b"\n" + torn)
    with pytest.warns(RuntimeWarning) as caught:
        loaded = reader(log)
    assert [str(w.message) for w in caught] == [
        f"{log}:2: skipped a torn last line ({len(torn)} bytes, no trailing newline)"]
    assert _record_count(loaded) == 1


@READERS
@pytest.mark.parametrize("corrupt", [_missing_field, _wrong_types],
                         ids=["missing_field", "wrong_types"])
def test_unterminated_last_line_that_is_json_is_no_torn_line(tmp_path, reader, line, cls,
                                                            corrupt):
    """Only a line that is no JSON document counts as torn: a whole document
    that is no record still raises, newline or not, and a whole record
    lacking only its newline is read."""
    log = tmp_path / "log.jsonl"
    log.write_bytes(_encode(line(1)) + b"\n" + corrupt(line(2)))
    with pytest.raises(RiskforgeError, match=re.escape(f"{log}:2: not a {cls} record: ")):
        reader(log)
    log.write_bytes(_encode(line(1)) + b"\n" + _encode(line(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = reader(log)
    assert _record_count(loaded) == 2


@pytest.mark.parametrize("field, value, message", [
    pytest.param("wall_seconds", "slow", "wall_seconds must be float, not str",
                 id="wall_seconds-slow"),
    pytest.param("seed", "0", "seed must be int, not str", id="seed-0"),
    pytest.param("seed", True, "seed must be int, not bool", id="seed-True"),
    pytest.param("completed", 1, "completed must be bool, not int", id="completed-1"),
    pytest.param("failed_stage", 3, "failed_stage must be Optional[str], not int",
                 id="failed_stage-3"),
    pytest.param("run_id", None, "run_id must be str, not NoneType", id="run_id-None"),
    pytest.param("unique_threat_titles", "t",
                 "unique_threat_titles must be list[str], not str",
                 id="unique_threat_titles-t"),
    pytest.param("unique_threat_titles", ["t", 2],
                 "unique_threat_titles[1] must be str, not int",
                 id="unique_threat_titles-value7"),
    pytest.param("window", 4096, "window is not a field of RunRecord", id="window-4096"),
])
def test_ledger_field_of_the_wrong_type_names_its_line(tmp_path, field, value, message):
    lines = [_record(f"r{n}").to_json() for n in (1, 2, 3)]
    lines[1][field] = value
    log = tmp_path / "log.jsonl"
    log.write_bytes(b"\n".join(map(_encode, lines)) + b"\n")
    with pytest.raises(RiskforgeError,
                       match=re.escape(f"{log}:2: not a RunRecord record: {message}") + "$"):
        load_ledger(log)


def test_run_record_takes_an_int_duration_and_null_optionals():
    record = decode(RunRecord, {**_record().to_json(), "wall_seconds": 2,
                                "failed_stage": None, "failure_kind": None,
                                "unique_threat_titles": ["a"]})
    assert record.wall_seconds == 2 and record.failed_stage is None


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


def test_repeated_run_id_never_shares_a_run_directory(health_profile, case_contracts,
                                                      corpus, specific_gateway, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(orchestrator, "_new_run_id", lambda: "20260101T000000-0000")
    record, _ = execute_pipeline(health_profile, config(), "multi_agent", specific_gateway,
                                 corpus, case_contracts, out_dir=tmp_path)
    assert record.completed
    run_dir = tmp_path / record.run_id
    before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    assert sorted(before) == ["report.json", "report.md", "session.jsonl"]

    def complete(request):
        raise AssertionError(f"role {request.role} ran")

    monkeypatch.setattr(specific_gateway, "complete", complete)
    with pytest.raises(RiskforgeError,
                       match="^" + re.escape(f"run directory {run_dir} already exists") + "$"):
        execute_pipeline(health_profile, config(), "multi_agent", specific_gateway,
                         corpus, case_contracts, out_dir=tmp_path)
    assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before
    store = ContextStore.load(run_dir / "session.jsonl")
    assert len(store.snapshot()) == 6  # one revision of each entry


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


@pytest.mark.parametrize("mode", ["multi_agent", "single_agent"])
def test_four_threats_complete_without_structural_stability(profiles, case_contracts,
                                                            corpus, tmp_path, mode):
    """case_study admits 3..5 threats, so a run with four completes but
    fails the 3/3/3 check. The titles are deduplicated, from the
    threat_model entry or, for the single agent, from the report."""
    shutil.copytree(STUB, tmp_path / "stub")
    role = "threat_modeling" if mode == "multi_agent" else "single_agent"
    script = tmp_path / "stub" / "specific" / f"{role}.json"
    doc = json.loads(script.read_text(encoding="utf-8"))["profiles"]["saas_25"][0]
    first = doc["threats"][0]
    doc["threats"].append(dict(first, title=f"  {first['title'].upper()}"))
    script.write_text(json.dumps({"default": [doc]}), encoding="utf-8")
    record, _ = execute_pipeline(profiles["saas_25"], config(), mode,
                                 StubGateway(script.parent), corpus, case_contracts)
    assert (record.completed, record.structural_ok) == (True, False)
    assert len(doc["threats"]) == 4
    assert record.unique_threat_titles == [t["title"] for t in doc["threats"][:3]]


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


@pytest.mark.parametrize("field", ["threats", "risks", "recommendations"])
def test_surplus_item_at_4096_fails_the_agent_not_the_window(profiles, cross_contracts,
                                                             corpus, tmp_path, field):
    """An output with one item too many is re-prompted until every attempt
    is spent: the violation names the surplus by count, so the retry
    feedback does not grow with the output and push the prompt past the
    window."""
    script = json.loads((STUB / "specific" / "single_agent.json").read_text())
    assert sorted(script["profiles"]) == sorted(profiles)
    for pid, pool in script["profiles"].items():
        doc = json.loads(json.dumps(pool[0]))
        doc[field].append(doc[field][0])
        (tmp_path / "single_agent.json").write_text(json.dumps({"default": [doc]}),
                                                    encoding="utf-8")
        gateway = RecordingGateway(tmp_path)
        record, _ = execute_pipeline(profiles[pid], config(window=4096), "single_agent",
                                     gateway, corpus, cross_contracts)
        assert (record.failure_kind, len(gateway.calls)) == ("agent_failed",
                                                             MAX_ATTEMPTS), pid


def test_retry_prompt_carries_only_the_latest_violation_block(profiles, cross_contracts,
                                                              corpus, tmp_path):
    """Thirty threats that each lack a rationale give a 31-line violation
    block. Each retry sends the first prompt plus that one block, so the
    third call is no longer than the second and the run ends agent_failed,
    not context_overflow at the 4,096-token window."""
    doc = json.loads((STUB / "specific" / "single_agent.json").read_text())
    doc = doc["profiles"]["health_15"][0]
    threat = {k: v for k, v in doc["threats"][0].items() if k != "rationale"}
    doc["threats"] = [{**threat, "title": f"{threat['title']} {i}"} for i in range(30)]
    (tmp_path / "single_agent.json").write_text(json.dumps({"default": [doc]}),
                                                encoding="utf-8")
    requests = []

    class Recorder(StubGateway):
        def complete(self, request):
            requests.append(request)
            return super().complete(request)

    record, _ = execute_pipeline(profiles["health_15"], config(window=4096), "single_agent",
                                 Recorder(tmp_path), corpus, cross_contracts)
    assert (record.failure_kind, len(requests)) == ("agent_failed", MAX_ATTEMPTS)
    assert [r.prompt_tokens for r in requests] == [2464, 2893, 2893]
    assert requests[2].prompt == requests[1].prompt
    assert requests[1].prompt.startswith(requests[0].prompt)


def test_retry_prompt_past_the_window_ends_the_run_before_any_provider_sees_it(
        health_profile, case_contracts, corpus):
    """A provider with no window logic returns output that fails validation.
    The window fits the first prompt exactly but not the retry prompt, so
    the run ends context_overflow after one provider call."""
    first = case_contracts.build_prompt("risk_intake", {}, corpus,
                                        canonical_json(health_profile))
    prompts = []

    class Provider:
        def complete(self, request):
            prompts.append(request.prompt)
            return SimpleNamespace(text="no JSON object here", truncated=False)

    window = estimate_tokens(first) + RESERVED_OUTPUT_TOKENS
    record, report = execute_pipeline(health_profile, config(window=window), "multi_agent",
                                      Provider(), corpus, case_contracts)
    assert (record.failed_stage, record.failure_kind) == ("risk_intake", "context_overflow")
    assert prompts == [first]
    assert report is None


def test_unlogged_single_agent_run_never_serializes_its_report(profiles, cross_contracts,
                                                               corpus, monkeypatch,
                                                               tmp_path):
    """Nothing reads the single-agent report entry of a run without a
    session log, so its canonical text is never made; the one
    serialization left is the questionnaire's, for the prompt."""
    serialized = []
    for module in (context_store, orchestrator):
        original = module.canonical_json
        monkeypatch.setattr(module, "canonical_json",
                            lambda doc, original=original: serialized.append(doc)
                            or original(doc))
    profile = profiles["saas_25"]
    record, report = execute_pipeline(profile, config(window=4096), "single_agent",
                                      StubGateway(STUB / "specific"), corpus,
                                      cross_contracts)
    assert record.completed
    assert serialized == [profile]
    # a logged run writes the entry's token estimate, so it serializes it once
    execute_pipeline(profile, config(window=4096), "single_agent",
                     StubGateway(STUB / "specific"), corpus, cross_contracts,
                     out_dir=tmp_path)
    assert serialized == [profile, profile, report.payload]


@pytest.fixture
def kept_stores(monkeypatch):
    """Every ContextStore that execute_pipeline makes, so a test can read
    the store of a run, which execute_pipeline does not return."""
    made = []

    def make(*args, **kwargs):
        made.append(ContextStore(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(orchestrator, "ContextStore", make)
    return made


BUNDLED_PROFILES = sorted(p.stem for p in (DATA_DIR / "profiles").glob("*.json"))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode", ["multi_agent", "single_agent"])
@pytest.mark.parametrize("profile_id", BUNDLED_PROFILES)
def test_run_artifacts_are_canonical_and_replay(profiles, case_contracts, corpus,
                                                kept_stores, tmp_path, profile_id, mode,
                                                seed):
    """Each session-log line is its entry's log_line() and the log reloads
    to the run's final context; report.json is one canonical line, from
    which report.md re-renders."""
    from riskforge.report import render_report
    record, report = execute_pipeline(profiles[profile_id], config(seed=seed), mode,
                                      StubGateway(STUB / "specific"), corpus,
                                      case_contracts, out_dir=tmp_path)
    assert record.completed
    run_dir = tmp_path / record.run_id
    lines = (run_dir / "session.jsonl").read_text(encoding="utf-8").splitlines()
    assert [ContextEntry.from_json(json.loads(line)).log_line() for line in lines] == lines
    [store] = kept_stores
    final = store.snapshot()
    loaded = ContextStore.load(run_dir / "session.jsonl").snapshot()
    assert list(loaded) == list(final)
    assert [e.to_json() for e in loaded.values()] == [e.to_json() for e in final.values()]
    text = (run_dir / "report.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == canonical_json(doc) + "\n"
    if mode == "single_agent":
        assert text == report.canonical_text + "\n"
        assert not (run_dir / "report.md").exists()
    else:
        assert render_report(doc) == (run_dir / "report.md").read_text(encoding="utf-8")


class Killed(BaseException):
    """Stands for a kill: no `except Exception` stops it."""


def test_reports_are_whole_or_absent_when_a_write_is_cut_short(health_profile,
                                                               case_contracts, corpus,
                                                               monkeypatch, tmp_path):
    """For N = 1, 2, ...: the Nth write call of a logged multi-agent run
    (os.write, Path.write_text or os.replace) writes half of its text, if it
    takes one, and raises. report.md and report.json are each absent or
    byte-equal to an uninterrupted run's."""
    monkeypatch.setattr(orchestrator, "_new_run_id", lambda: "run")
    monkeypatch.setattr(orchestrator, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    reports = ("report.md", "report.json")

    def run(out):
        execute_pipeline(health_profile, config(), "multi_agent",
                         StubGateway(STUB / "specific"), corpus, case_contracts, out_dir=out)
        return out / "run"

    whole_dir = run(tmp_path / "whole")
    whole = {name: (whole_dir / name).read_bytes() for name in reports}
    calls, cut_at = 0, 0

    def cut(write, halve):
        def interrupted(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == cut_at:
                if halve:
                    write(*args[:-1], args[-1][:len(args[-1]) // 2], **kwargs)
                raise Killed
            return write(*args, **kwargs)
        return interrupted

    monkeypatch.setattr(os, "write", cut(os.write, halve=True))
    monkeypatch.setattr(Path, "write_text", cut(Path.write_text, halve=True))
    monkeypatch.setattr(os, "replace", cut(os.replace, halve=False))
    while True:
        calls, cut_at = 0, cut_at + 1
        out = tmp_path / str(cut_at)
        try:
            run_dir = run(out)
        except Killed:
            for name in reports:
                path = out / "run" / name
                assert not path.exists() or path.read_bytes() == whole[name], (cut_at, name)
        else:
            break
    assert {name: (run_dir / name).read_bytes() for name in reports} == whole
    # six session-log lines, then a write and a rename per report
    assert cut_at == 6 + 2 * 2 + 1


def test_logged_multi_agent_run_serializes_each_payload_once(health_profile,
                                                             case_contracts, corpus,
                                                             kept_stores, monkeypatch,
                                                             tmp_path):
    """Each entry's payload is serialized once, for its canonical text,
    which its log line and the prompts that quote it share; the report
    document is serialized once, for report.json."""
    def containers(doc):
        """doc and every object and array nested in it."""
        items = doc.values() if type(doc) is dict else doc if type(doc) is list else None
        if items is None:
            return []
        return [doc] + [c for item in items for c in containers(item)]

    dumped = []  # what each json.dumps call serialized, at any depth
    original = json.dumps
    monkeypatch.setattr(json, "dumps", lambda doc, **kwargs: dumped.append(containers(doc))
                        or original(doc, **kwargs))
    record, _ = execute_pipeline(health_profile, config(), "multi_agent",
                                 StubGateway(STUB / "specific"), corpus, case_contracts,
                                 out_dir=tmp_path)
    assert record.completed
    documents = [walked[0] for walked in dumped
                 if walked and type(walked[0]) is dict and "run_metadata" in walked[0]]
    assert len(documents) == 1
    # the report document quotes the intake profile; every other serialization
    # that reaches a payload is that payload's canonical text
    others = [walked for walked in dumped if not walked or walked[0] is not documents[0]]
    [store] = kept_stores
    assert [sum(any(c is entry.payload for c in walked) for walked in others)
            for entry in store.snapshot().values()] == [1] * 6
    assert json.loads((tmp_path / record.run_id / "report.json").read_text(
        encoding="utf-8")) == documents[0]


def test_invalid_questionnaire_raises_before_any_stage(case_contracts, corpus,
                                                       specific_gateway):
    with pytest.raises(ProfileInvalid):
        execute_pipeline({"profile_id": "x"}, config(), "multi_agent",
                         specific_gateway, corpus, case_contracts)


def test_check_profile_passes_its_own_questionnaire_through(health_profile,
                                                           case_contracts, cross_contracts):
    questionnaire = check_profile(health_profile, case_contracts)
    assert questionnaire == (health_profile, canonical_json(health_profile))
    assert check_profile(questionnaire, case_contracts) is questionnaire
    assert check_profile(questionnaire, cross_contracts) is questionnaire


def test_questionnaire_schema_reads_the_same_in_both_schema_modes():
    """The invariant a Questionnaire's pass-through rests on: no schema
    mode bounds a questionnaire field."""
    assert (ContractSet(schema_mode="case_study").schema(QUESTIONNAIRE_SCHEMA)
            == ContractSet(schema_mode="cross_sector").schema(QUESTIONNAIRE_SCHEMA))


def test_questionnaire_from_another_schema_mode_runs_unchecked(health_profile,
                                                              case_contracts, corpus,
                                                              monkeypatch):
    """A Questionnaire checked under case_study runs a single-agent cell
    under cross_sector without that set's questionnaire checker, with the
    prompt and the record the profile dict gets."""
    questionnaire = check_profile(health_profile, case_contracts)
    runs = []
    for profile in (questionnaire, health_profile):
        contracts = ContractSet(schema_mode="cross_sector")
        check = contracts.checker(QUESTIONNAIRE_SCHEMA)
        checked = []
        monkeypatch.setattr(contracts, "checker",
                            lambda name, contracts=contracts, check=check, checked=checked:
                            (lambda doc: checked.append(doc) or check(doc))
                            if name == QUESTIONNAIRE_SCHEMA
                            else ContractSet.checker(contracts, name))
        gateway = TruncatingGateway(StubGateway(STUB / "specific"), "single_agent",
                                    truncate=0)
        record, _ = execute_pipeline(profile, config(), "single_agent", gateway, corpus,
                                     contracts)
        assert record.completed
        kept = {key: value for key, value in record.to_json().items()
                if key not in ("run_id", "wall_seconds")}
        runs.append((len(checked), dict(gateway.prompts), kept))
    (unchecked, *first), (checked_once, *second) = runs
    assert (unchecked, checked_once) == (0, 1)
    assert first == second


def test_non_ascii_stub_candidate_is_appended_as_the_same_payload(
        health_profile, cross_contracts, corpus, tmp_path):
    """The stub replies with ASCII-escaped JSON, which parses back to the
    candidate it scripted, so the report entry holds that candidate."""
    script = json.loads((STUB / "specific" / "single_agent.json").read_text(
        encoding="utf-8"))
    candidate = script["profiles"]["health_15"][0]
    candidate["threats"][0]["title"] = "Données de santé non chiffrées — S3 ✓"
    script_dir = tmp_path / "stub" / "accented"
    script_dir.mkdir(parents=True)
    (script_dir / "single_agent.json").write_text(
        json.dumps({"default": [candidate]}, ensure_ascii=False), encoding="utf-8")
    gateway = StubGateway(script_dir)
    assert gateway.stub_complete("single_agent", "p", 0).isascii()
    record, report = execute_pipeline(health_profile, config(window=4096), "single_agent",
                                      gateway, corpus, cross_contracts)
    assert record.completed
    assert report.payload == candidate
    assert record.unique_threat_titles[0] == "Données de santé non chiffrées — S3 ✓"


@pytest.mark.parametrize("edit, message, path", [
    ({"industry": None}, "'industry' is a required property", "$"),
    ({"employee_count": True}, "True is not of type 'integer'", "$.employee_count"),
    ({"employee_count": 0}, "0 is less than the minimum of 1", "$.employee_count"),
    ({"extra": 1}, "Additional properties are not allowed ('extra' was unexpected)", "$"),
    ({"systems": ["a", 3]}, "3 is not of type 'string'", "$.systems[1]"),
])
def test_invalid_questionnaire_message_names_the_first_violation(
        health_profile, case_contracts, corpus, specific_gateway, edit, message, path):
    profile = {**health_profile, **edit}
    profile = {key: value for key, value in profile.items() if value is not None}
    with pytest.raises(ProfileInvalid) as exc:
        execute_pipeline(profile, config(), "multi_agent", specific_gateway, corpus,
                         case_contracts)
    assert str(exc.value) == f"questionnaire invalid: {path}: {message}"


@pytest.mark.parametrize("edit, field", [
    ({"industry": "health\ud800"}, "industry"),
    ({"systems": ["EHR", "\udfffportal"]}, "systems"),
    ({"free_text": "ok", "profile_id": "health\udc00_15"}, "profile_id"),
])
def test_questionnaire_with_an_unpaired_surrogate_is_invalid(
        health_profile, case_contracts, corpus, tmp_path, edit, field):
    """A questionnaire string holding an unpaired surrogate, which no UTF-8
    prompt can quote, is rejected before any provider call or file write;
    the message escapes the field's name, so it can be printed."""
    gateway = RecordingGateway(STUB / "specific")
    with pytest.raises(ProfileInvalid) as exc:
        execute_pipeline({**health_profile, **edit}, config(), "multi_agent", gateway,
                         corpus, case_contracts, out_dir=tmp_path / "out")
    assert str(exc.value) == (f"questionnaire invalid: {field!r} holds an unpaired "
                              f"UTF-16 surrogate")
    assert gateway.calls == []
    assert not (tmp_path / "out").exists()


def test_questionnaire_with_a_paired_surrogate_runs(health_profile, case_contracts,
                                                    corpus, specific_gateway):
    """\ud83d\ude00 in a JSON file decodes to one character, which encodes."""
    profile = json.loads(json.dumps({**health_profile, "free_text": "\U0001f600"}))
    record, _ = execute_pipeline(profile, config(), "multi_agent", specific_gateway,
                                 corpus, case_contracts)
    assert record.completed


def test_integral_float_questionnaire_counts_are_accepted(health_profile, case_contracts,
                                                         corpus, specific_gateway):
    profile = {**health_profile, "self_rated_maturity": 10.0}
    record, _ = execute_pipeline(profile, config(), "multi_agent", specific_gateway,
                                 corpus, case_contracts)
    assert record.completed


def test_session_log_kept_when_a_role_raises_an_internal_error(
        health_profile, case_contracts, corpus, tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    # only the intake script: both stage-2 roles find no script, a
    # RiskforgeError of no narrower kind, and the first in stage order is kept
    shutil.copy(STUB / "risk_intake.json", scripts)
    message = f"no stub script for role 'threat_modeling' in {scripts} or {tmp_path}"
    with pytest.warns(RuntimeWarning) as warned:
        record, report = execute_pipeline(health_profile, config(), "multi_agent",
                                          StubGateway(scripts), corpus, case_contracts,
                                          out_dir=tmp_path / "out")
    assert (record.completed, record.failed_stage, record.failure_kind) == (
        False, "threat_modeling", "internal_error")
    assert report is None
    assert [str(w.message) for w in warned] == [f"threat_modeling: {message}"]
    [log] = (tmp_path / "out").glob("*/session.jsonl")
    assert log.parent.name == record.run_id
    session = log.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["key"] for line in session] == ["org_profile"]


def test_session_log_append_failing_mid_run_is_recorded_at_its_role(
        health_profile, case_contracts, corpus, specific_gateway, tmp_path, monkeypatch):
    """The second log append, threat_modeling's, is aimed at the run
    directory itself, so the write fails as a full disk's would."""
    append_text = context_store.append_text
    calls = []

    def second_append_fails(path, text):
        calls.append(path)
        append_text(path.parent if len(calls) == 2 else path, text)

    monkeypatch.setattr(context_store, "append_text", second_append_fails)
    with pytest.warns(RuntimeWarning) as warned:
        record, report = execute_pipeline(health_profile, config(), "multi_agent",
                                          specific_gateway, corpus, case_contracts,
                                          out_dir=tmp_path)
    assert (record.completed, record.failed_stage, record.failure_kind) == (
        False, "threat_modeling", "internal_error")
    assert report is None
    run_dir = tmp_path / record.run_id
    [message] = [str(w.message) for w in warned]
    assert message.startswith(f"threat_modeling: cannot append to {run_dir}: ")
    session = (run_dir / "session.jsonl").read_text(encoding="utf-8").splitlines()
    # control_assessment, the stage's other role, still ran and logged
    assert [json.loads(line)["key"] for line in session] == ["org_profile",
                                                             "control_assessment"]


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


SURROGATE_RETRY = ("\n\n=== PREVIOUS OUTPUT FAILED VALIDATION ===\n"
                   "Your previous output did not satisfy the schema:\n"
                   "- $: output holds an unpaired UTF-16 surrogate\n"
                   "Emit a corrected JSON object.")


@pytest.mark.parametrize("insert", [r"\ud800", "\ud800"], ids=["escaped", "raw"])
@pytest.mark.parametrize("mode, role", [("multi_agent", "risk_intake"),
                                        ("single_agent", "single_agent")])
@pytest.mark.parametrize("logged", [False, True], ids=["unlogged", "logged"])
def test_unpaired_surrogate_is_retried(profiles, case_contracts, corpus, tmp_path, mode,
                                       role, insert, logged):
    gateway = SurrogateGateway(StubGateway(STUB / "specific"), role, 1, insert)
    record, report = execute_pipeline(profiles["saas_25"], config(), mode, gateway, corpus,
                                      case_contracts, out_dir=tmp_path if logged else None)
    assert record.completed
    first, retry = gateway.prompts[role]
    assert retry == first + SURROGATE_RETRY
    if logged:
        assert report.log_line() in (tmp_path / record.run_id / "session.jsonl").read_text(
            encoding="utf-8")


@pytest.mark.parametrize("mode, role", [("multi_agent", "risk_intake"),
                                        ("single_agent", "single_agent")])
@pytest.mark.parametrize("logged", [False, True], ids=["unlogged", "logged"])
def test_unpaired_surrogate_on_every_attempt_fails_the_agent(profiles, case_contracts,
                                                             corpus, tmp_path, mode, role,
                                                             logged):
    """The run ends as a record, not as a UnicodeEncodeError from the log
    write or from the next prompt's hash."""
    gateway = SurrogateGateway(StubGateway(STUB / "specific"), role, MAX_ATTEMPTS)
    record, report = execute_pipeline(profiles["saas_25"], config(), mode, gateway, corpus,
                                      case_contracts, out_dir=tmp_path if logged else None)
    assert (record.failed_stage, record.failure_kind) == (role, "agent_failed")
    assert len(gateway.prompts[role]) == MAX_ATTEMPTS
    assert report is None
    if logged:
        assert (tmp_path / record.run_id / "session.jsonl").read_bytes() == b""


def test_paired_surrogate_escape_is_accepted(profiles, case_contracts, corpus, tmp_path):
    gateway = SurrogateGateway(StubGateway(STUB / "specific"), "single_agent", 1,
                               r"\ud83d\ude00 ")
    record, report = execute_pipeline(profiles["saas_25"], config(), "single_agent",
                                      gateway, corpus, case_contracts, out_dir=tmp_path)
    assert record.completed
    assert len(gateway.prompts["single_agent"]) == 1
    assert record.unique_threat_titles[0].startswith("\U0001F600 ")
    assert (tmp_path / record.run_id / "report.json").read_text(
        encoding="utf-8") == report.canonical_text + "\n"


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
    shutil.copytree(STUB, tmp_path / "stub")
    scripts = tmp_path / "stub" / "specific"
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


@pytest.mark.parametrize("sleep_seconds", [0.0, 0.01], ids=["inline", "threaded"])
def test_first_failure_in_stage_order_is_recorded(health_profile, case_contracts,
                                                  corpus, tmp_path, sleep_seconds):
    shutil.copytree(STUB, tmp_path / "stub")
    # neither stage-2 role ever validates
    (tmp_path / "stub" / "specific" / "threat_modeling.json").write_text(
        json.dumps({"default": [{"threats": []}]}), encoding="utf-8")
    (tmp_path / "stub" / "control_assessment.json").write_text(
        json.dumps({"default": [{"functions": {}}]}), encoding="utf-8")
    gateway = StubGateway(tmp_path / "stub" / "specific", sleep_seconds=sleep_seconds)
    record, report = execute_pipeline(health_profile, config(), "multi_agent", gateway,
                                      corpus, case_contracts)
    assert (record.failed_stage, record.failure_kind) == ("threat_modeling",
                                                          "agent_failed")
    assert report is None


@pytest.mark.parametrize("sleep_seconds", [0.0, 0.01], ids=["inline", "threaded"])
def test_riskforge_errors_of_one_stage_record_the_first_in_stage_order(
        health_profile, case_contracts, corpus, tmp_path, sleep_seconds):
    shutil.copytree(STUB, tmp_path / "stub")
    # threat_modeling fails first in stage order; control_assessment then
    # finds no script, an internal_error that comes second and is not kept
    (tmp_path / "stub" / "specific" / "threat_modeling.json").write_text(
        json.dumps({"default": [{"threats": []}]}), encoding="utf-8")
    (tmp_path / "stub" / "control_assessment.json").unlink()
    gateway = StubGateway(tmp_path / "stub" / "specific", sleep_seconds=sleep_seconds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only an internal_error recorded is warned
        record, report = execute_pipeline(health_profile, config(), "multi_agent",
                                          gateway, corpus, case_contracts)
    assert (record.failed_stage, record.failure_kind) == ("threat_modeling",
                                                          "agent_failed")
    assert report is None


class RaisingGateway:
    """Delegates to another gateway, except that every call for role raises
    error."""

    def __init__(self, inner, role, error):
        self.inner = inner
        self.role = role
        self.error = error
        self.waits_on_io = inner.waits_on_io

    def complete(self, request):
        if request.role == self.role:
            raise self.error
        return self.inner.complete(request)


@pytest.mark.parametrize("sleep_seconds", [0.0, 0.01], ids=["inline", "threaded"])
def test_unclassified_error_outranks_stage_failure(health_profile, case_contracts,
                                                   corpus, tmp_path, sleep_seconds):
    shutil.copytree(STUB, tmp_path / "stub")
    # threat_modeling fails first in stage order; control_assessment then
    # raises an error from outside riskforge, which has no recorded kind
    (tmp_path / "stub" / "specific" / "threat_modeling.json").write_text(
        json.dumps({"default": [{"threats": []}]}), encoding="utf-8")
    error = KeyError("response")
    gateway = RaisingGateway(
        StubGateway(tmp_path / "stub" / "specific", sleep_seconds=sleep_seconds),
        "control_assessment", error)
    with pytest.raises(KeyError) as raised:
        execute_pipeline(health_profile, config(), "multi_agent", gateway, corpus,
                         case_contracts)
    assert raised.value is error


# each mode with the role of its first stage
modes = pytest.mark.parametrize("mode, first_role", [("multi_agent", "risk_intake"),
                                                     ("single_agent", "single_agent")],
                                ids=["multi_agent", "single_agent"])


@modes
@pytest.mark.parametrize("error, kind", [
    (ProviderError("provider returned status 503: overloaded"), "provider_error"),
    (ProviderError("cannot reach the model server"), "provider_error"),
    (ContextOverflow(BudgetDecision("risk_intake", 5000, 4096)), "context_overflow"),
    (AgentFailed("agent 'risk_intake' failed after retries: []"), "agent_failed"),
    (RiskforgeError("no stub script"), "internal_error"),
], ids=["ProviderError", "ProviderError-unreachable", "ContextOverflow", "AgentFailed",
        "RiskforgeError"])
def test_provider_side_failures_land_in_the_record(health_profile, case_contracts,
                                                   corpus, specific_gateway, mode,
                                                   first_role, error, kind):
    gateway = RaisingGateway(specific_gateway, first_role, error)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        record, report = execute_pipeline(health_profile, config(), mode, gateway, corpus,
                                          case_contracts)
    assert not record.completed
    assert (record.failed_stage, record.failure_kind) == (first_role, kind)
    assert report is None
    # only an internal_error is warned, as the record holds no message
    assert [(w.category, str(w.message)) for w in warned] == (
        [(RuntimeWarning, f"{first_role}: {error}")] if kind == "internal_error" else [])


@modes
@pytest.mark.parametrize("error", [KeyError("response")], ids=["KeyError"])
def test_errors_that_are_no_stage_error_propagate_unchanged(
        health_profile, case_contracts, corpus, specific_gateway, mode, first_role, error):
    # an error from outside riskforge is raised, so execute_pipeline returns
    # no record
    gateway = RaisingGateway(specific_gateway, first_role, error)
    with pytest.raises(type(error)) as exc:
        execute_pipeline(health_profile, config(), mode, gateway, corpus, case_contracts)
    assert exc.value is error


class NthCallRaisingGateway:
    """Delegates to the bundled specific stub, except that its nth complete
    call, counting from 1, raises error; raised_role is that call's role."""

    def __init__(self, n, error, waits_on_io):
        self.inner = StubGateway(STUB / "specific")
        self.n, self.error, self.waits_on_io = n, error, waits_on_io
        self.calls = 0
        self.raised_role = None
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:  # the pair's calls may come from two threads
            self.calls += 1
            nth = self.calls == self.n
        if nth:
            self.raised_role = request.role
            raise self.error
        return self.inner.complete(request)


DRAWN_ERRORS = [
    lambda: ProviderError("provider returned status 503: overloaded"),
    lambda: AgentFailed("agent failed after retries: []"),
    lambda: ContextOverflow(BudgetDecision("risk_intake", 5000, 4096)),
    lambda: RiskforgeError("no stub script"),
    lambda: KeyError("response"),
]


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(["multi_agent", "single_agent"]), waits_on_io=st.booleans(),
       profile_id=st.sampled_from(PROFILE_IDS), n=st.integers(1, 9),
       make_error=st.sampled_from(DRAWN_ERRORS))
def test_an_error_on_any_provider_call_is_recorded_or_propagates(
        profiles, corpus, mode, waits_on_io, profile_id, n, make_error):
    """A RiskforgeError from the nth provider call, whichever role makes it,
    ends the run in its record as its kind; only an internal_error is also
    warned. A KeyError propagates as itself. With no raise, as when n lies
    past the run's last call, the run completes."""
    error = make_error()
    gateway = NthCallRaisingGateway(n, error, waits_on_io)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            record, report = execute_pipeline(profiles[profile_id], config(), mode,
                                              gateway, corpus,
                                              ContractSet(schema_mode="case_study"))
        except KeyError as exc:
            assert exc is error
            assert gateway.raised_role is not None
            return
    runtime = [str(w.message) for w in warned if w.category is RuntimeWarning]
    assert record.completed == (record.failure_kind is None)
    if gateway.raised_role is None:
        assert record.completed
        assert report is not None
        assert runtime == []
        return
    assert isinstance(error, RiskforgeError)
    assert (record.failed_stage, record.failure_kind, report) == (gateway.raised_role,
                                                                  error.kind, None)
    expected = [f"{gateway.raised_role}: {error}"] if error.kind == "internal_error" else []
    assert runtime == expected


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


def test_single_agent_prompt_shows_the_excerpts_its_contract_names(health_profile, corpus):
    shown = corpus.retrieve(SINGLE_AGENT.grounding_query, SINGLE_AGENT.grounding_k)
    assert len(shown) == SINGLE_AGENT.grounding_k == 4
    questionnaire = canonical_json(health_profile)
    prompt = ContractSet().build_prompt("single_agent", {}, corpus, questionnaire)
    section = "\n".join(["=== FRAMEWORK EXCERPTS ===", *excerpt_lines(shown), ""])
    assert section in prompt
    empty = ContractSet().build_prompt("single_agent", {}, Corpus([]), questionnaire)
    assert "=== FRAMEWORK EXCERPTS ===\n(none supplied)\n\n" in empty
