"""CLI verbs: assess, eval, ablate, index-corpus."""

import errno
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest

from riskforge import orchestrator
from riskforge.cli import main
from riskforge.contracts import DATA_DIR, ROLES
from riskforge.gateway import StubGateway
from riskforge.orchestrator import RunRecord, record_run

from conftest import ModelHandler

FIXTURES = DATA_DIR / "fixtures"
PROFILE = DATA_DIR / "profiles" / "health_15.json"
ANNOTATIONS = str(FIXTURES / "annotations.jsonl")
ALIASES = str(FIXTURES / "aliases.json")


class _Tee(io.StringIO):
    """A stream that also writes what it is given to another one."""

    def __init__(self, other):
        super().__init__()
        self.other = other

    def write(self, text):
        self.other.write(text)
        return super().write(text)


class Runner:
    """Calls a CLI entry point in this process. The result's output holds
    stdout and stderr together, and its stderr stderr alone; exit_code is
    the SystemExit code, or 1 for any other exception, which is kept as
    exception (as is a SystemExit with a non-zero code)."""

    def invoke(self, entry, args):
        output, exit_code, exception = io.StringIO(), 0, None
        stderr = _Tee(output)
        with redirect_stdout(output), redirect_stderr(stderr):
            try:
                entry(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return SimpleNamespace(exit_code=exit_code, output=output.getvalue(),
                               stderr=stderr.getvalue(), exception=exception)


@pytest.fixture
def runner():
    return Runner()


def test_index_corpus_reports_counts(runner):
    result = runner.invoke(main, ["index-corpus"])
    assert result.exit_code == 0
    assert "nist_csf: 15 excerpts" in result.output
    assert "cis: 2 excerpts" in result.output
    assert "total: 17 excerpts" in result.output


def test_index_corpus_reads_the_bundled_corpus_whatever_the_environment(
        runner, tmp_path, monkeypatch):
    monkeypatch.setenv("RISKFORGE_CORPUS", str(tmp_path / "missing.jsonl"))
    result = runner.invoke(main, ["index-corpus"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith(f"corpus: {DATA_DIR / 'corpus' / 'mini_csf.jsonl'}\n")


def test_index_corpus_rejects_malformed_file(runner, tmp_path):
    bad = tmp_path / "corpus.jsonl"
    bad.write_text('{"framework": "nist_csf"}\n', encoding="utf-8")
    result = runner.invoke(main, ["index-corpus", "--corpus", str(bad)])
    assert result.exit_code != 0
    assert "cannot ingest corpus" in result.output


def test_assess_multi_default_window_completes(runner, tmp_path):
    result = runner.invoke(main, [
        "assess", "--profile", str(PROFILE), "--mode", "multi",
        "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    assert record["completed"] is True
    run_dir = tmp_path / record["run_id"]
    assert (run_dir / "report.md").is_file()
    assert (run_dir / "report.json").is_file()
    ledger = (tmp_path / "ledger.jsonl").read_text().splitlines()
    assert len(ledger) == 1
    assert json.loads(ledger[0])["run_id"] == record["run_id"]


def test_assess_multi_small_window_exits_2_but_records(runner, tmp_path):
    result = runner.invoke(main, [
        "assess", "--profile", str(PROFILE), "--mode", "multi",
        "--window", "4096", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "context_overflow" in result.output
    record = json.loads((tmp_path / "ledger.jsonl").read_text())
    assert record["completed"] is False
    assert record["failure_kind"] == "context_overflow"


def test_assess_ledger_it_cannot_mend_is_an_error_before_the_run(runner, tmp_path):
    """assess --out mends the ledger before the run: a ledger.jsonl it
    cannot mend, here a directory, is one Error line and no run directory."""
    ledger = tmp_path / "ledger.jsonl"
    ledger.mkdir()
    result = runner.invoke(main, ["assess", "--profile", str(PROFILE), "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert re.fullmatch(f"Error: cannot mend {re.escape(str(ledger))}: .*Is a directory.*\n",
                        result.output)
    assert list(tmp_path.iterdir()) == [ledger]


def test_assess_single_small_window_completes(runner, tmp_path):
    for schema_mode in ("cross_sector", "case_study"):
        result = runner.invoke(main, [
            "assess", "--profile", str(PROFILE), "--mode", "single",
            "--window", "4096", "--schema-mode", schema_mode,
            "--out", str(tmp_path / schema_mode)])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["completed"] is True
        assert record["structural_ok"] is True


def test_assess_window_within_reserved_output_is_a_one_line_error(runner, tmp_path):
    result = runner.invoke(main, [
        "assess", "--profile", str(PROFILE), "--window", "1000", "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "--window 1000: reserved_output_tokens (1024)" in result.output
    assert "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == []


def test_assess_http_provider_needs_url(runner, monkeypatch):
    monkeypatch.delenv("RISKFORGE_MODEL_URL", raising=False)
    result = runner.invoke(main, [
        "assess", "--profile", str(PROFILE), "--provider", "http"])
    assert result.exit_code != 0
    assert "RISKFORGE_MODEL_URL" in result.output


def test_assess_http_provider_failure_exits_2_and_records(runner, tmp_path, monkeypatch,
                                                        http_server):
    ModelHandler.status = 503
    monkeypatch.setenv("RISKFORGE_MODEL_URL", http_server)
    result = runner.invoke(main, ["assess", "--profile", str(PROFILE), "--provider", "http",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert result.stderr == "run failed at stage risk_intake (provider_error)\n"
    record = json.loads((tmp_path / "ledger.jsonl").read_text())
    assert (record["completed"], record["failed_stage"], record["failure_kind"]) == (
        False, "risk_intake", "provider_error")
    assert len(ModelHandler.captured) == 1


def test_assess_with_a_missing_stub_script_exits_2_and_records(runner, tmp_path):
    """An absolute --script replaces the bundled stub root. A set without
    threat_modeling's script ends the run there as an internal_error, with
    the missing script named in one warning."""
    shutil.copytree(DATA_DIR / "stub", tmp_path / "stub")
    scripts = tmp_path / "stub" / "specific"
    (scripts / "threat_modeling.json").unlink()
    out = tmp_path / "out"
    result = runner.invoke(main, ["assess", "--profile", str(PROFILE), "--script",
                                  str(scripts), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr == (
        f"Warning: threat_modeling: no stub script for role 'threat_modeling' in "
        f"{scripts} or {tmp_path / 'stub'}\n"
        f"run failed at stage threat_modeling (internal_error)\n")
    [line] = (out / "ledger.jsonl").read_text().splitlines()
    record = json.loads(line)
    assert (record["completed"], record["failed_stage"], record["failure_kind"]) == (
        False, "threat_modeling", "internal_error")


TORN_SCRIPT = '{"profiles": \n'  # a stub script cut short mid-write
TORN_PROBLEM = "JSONDecodeError: Expecting value: line 2 column 1 (char 14)"


def stub_copy_with(tmp_path, text):
    """The specific set of a copy of the bundled stub scripts, whose
    threat_modeling script holds text."""
    shutil.copytree(DATA_DIR / "stub", tmp_path / "stub")
    scripts = tmp_path / "stub" / "specific"
    (scripts / "threat_modeling.json").write_text(text, encoding="utf-8")
    return scripts


@pytest.mark.parametrize("text, problem", [
    (TORN_SCRIPT, TORN_PROBLEM),
    ("[]\n", "TypeError: document must be dict, not list"),
    ('{"profiles": []}', "TypeError: profiles must be dict, not list"),
    ('{"default": {"a": 1}}', "TypeError: default must be list[Any], not dict"),
    ('{"default": "abc"}', "TypeError: default must be list[Any], not str"),
], ids=["torn", "array", "profiles_array", "default_object", "default_string"])
def test_assess_with_an_unreadable_stub_script_exits_2_and_records(runner, tmp_path,
                                                                   text, problem):
    """A stub script that holds no JSON object, or whose pools are not
    arrays, ends the run at its role as an internal_error, named in one
    warning, with no traceback."""
    scripts = stub_copy_with(tmp_path, text)
    out = tmp_path / "out"
    result = runner.invoke(main, ["assess", "--profile", str(PROFILE), "--script",
                                  str(scripts), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr == (
        f"Warning: threat_modeling: cannot read stub script "
        f"{scripts / 'threat_modeling.json'}: {problem}\n"
        f"run failed at stage threat_modeling (internal_error)\n")
    assert "Traceback" not in result.output
    [line] = (out / "ledger.jsonl").read_text().splitlines()
    record = json.loads(line)
    assert (record["completed"], record["failed_stage"], record["failure_kind"]) == (
        False, "threat_modeling", "internal_error")


def test_assess_report_it_cannot_write_is_an_error_with_no_ledger_line(runner, tmp_path,
                                                                       monkeypatch):
    """A run is complete when its ledger line exists, and assess --out
    appends it after both reports: a completed run whose report.md cannot
    be written is one Error line naming it, exit 1, a whole session log and
    no ledger."""
    def disk_full(path, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
    monkeypatch.setattr(orchestrator, "_replace_with", disk_full)
    result = runner.invoke(main, ["assess", "--profile", str(PROFILE), "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    [run_dir] = tmp_path.iterdir()
    assert result.output == (f"Error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                             f"'{run_dir / 'report.md'}'\n")
    lines = (run_dir / "session.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert [json.loads(line)["agent_id"] for line in lines if line.endswith("\n")] == list(ROLES)
    assert len(lines) == 6
    assert not (tmp_path / "ledger.jsonl").exists()


def test_assess_rejects_unreadable_profile(runner, tmp_path):
    bad = tmp_path / "profile.json"
    bad.write_text("{not json", encoding="utf-8")
    result = runner.invoke(main, ["assess", "--profile", str(bad)])
    assert result.exit_code != 0
    assert "cannot read profile" in result.output


SURROGATE_INVALID = "'industry' holds an unpaired UTF-16 surrogate"


@pytest.mark.parametrize("verb, field, value, invalid", [
    ("assess", "industry", "health\ud800", SURROGATE_INVALID),
    ("ablate", "industry", "health\ud800", SURROGATE_INVALID),
    ("assess", "employee_count", 0, "$.employee_count: 0 is less than the minimum of 1"),
], ids=["assess", "ablate", "assess_employee_count_0"])
def test_questionnaire_with_an_unpaired_surrogate_is_a_one_line_error(
        runner, tmp_path, monkeypatch, verb, field, value, invalid):
    """assess --profile and ablate --profiles reject a questionnaire string
    holding an unpaired surrogate as an invalid questionnaire, as assess
    does a count below its minimum: one Error line naming the file, exit 1,
    no provider call, no ledger line."""
    doc = json.loads(PROFILE.read_text(encoding="utf-8"))
    doc[field] = value
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    path = profiles / "health_15.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # the JSON escape \ud800
    calls = []
    monkeypatch.setattr(StubGateway, "complete", lambda self, request: calls.append(request))
    out = tmp_path / "out"
    args = (["assess", "--profile", str(path), "--out", str(out)] if verb == "assess" else
            ["ablate", "--profiles", str(profiles), "--out", str(out / "ledger.jsonl")])
    result = runner.invoke(main, args)
    assert (result.exit_code, result.output) == (
        1, f"Error: cannot read profile {path}: ProfileInvalid: questionnaire invalid: "
           f"{invalid}\n")
    assert isinstance(result.exception, SystemExit)
    assert calls == []
    assert not out.exists()


def test_eval_fixture_table(runner, case_study_run, tmp_path):
    """eval --register scores the report.json that assess --out writes, and a
    bare register of the same risks the same."""
    report, bare = case_study_run / "report.json", tmp_path / "register.json"
    bare.write_text(json.dumps({"risks": [
        {key: value for key, value in risk.items() if not key.startswith("severity_")}
        for risk in json.loads(report.read_text(encoding="utf-8"))["risks"]]}))
    results = [runner.invoke(main, ["eval", "--register", str(register), "--annotations",
                                    ANNOTATIONS, "--aliases", ALIASES])
               for register in (report, bare)]
    assert [result.exit_code for result in results] == [0, 0], results[0].output
    assert "18/21 (0.857)" in results[0].output
    assert "12/13 (0.923)" in results[0].output
    assert results[1].output == results[0].output


@pytest.mark.parametrize("name, edit", [("severity_value", 4), ("severity_band", "low")])
def test_eval_register_with_an_edited_severity_is_a_one_line_error(
        runner, case_study_run, tmp_path, name, edit):
    doc = json.loads((case_study_run / "report.json").read_text(encoding="utf-8"))
    derived = doc["risks"][2][name]
    doc["risks"][2][name] = edit
    register = tmp_path / "report.json"
    register.write_text(json.dumps(doc), encoding="utf-8")
    result = runner.invoke(main, ["eval", "--register", str(register),
                                  "--annotations", ANNOTATIONS])
    assert (result.exit_code, result.output) == (
        1, f"Error: cannot read register {register}: ValueError: risks[2].{name} is "
           f"{edit!r}, not {derived!r}\n")
    assert isinstance(result.exception, SystemExit)


def test_eval_json_output(runner, case_study_run):
    result = runner.invoke(main, [
        "eval", "--register", str(case_study_run / "report.json"),
        "--annotations", ANNOTATIONS, "--aliases", ALIASES, "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["agreement"] == {"matched": 18, "total": 21, "ratio": 0.857143}
    assert doc["coverage"]["matched"] == 12


def test_eval_requires_some_input(runner):
    result = runner.invoke(main, ["eval"])
    assert result.exit_code != 0
    assert "nothing to evaluate" in result.output


@pytest.mark.parametrize("args, error", [
    (["--register", "{missing}"], "--register needs --annotations"),
    (["--annotations", "{missing}"], "--annotations needs --register"),
    (["--aliases", "{missing}"], "--aliases needs --register and --annotations"),
    (["--register", "{missing}", "--aliases", "{missing}"], "--register needs --annotations"),
    (["--annotations", "{missing}", "--aliases", "{missing}"],
     "--annotations needs --register"),
    (["--ledger", "{ledger}", "--aliases", "{missing}"],
     "--aliases needs --register and --annotations"),
], ids=["register", "annotations", "aliases", "register_aliases", "annotations_aliases",
        "ledger_aliases"])
def test_eval_option_without_its_partners_is_a_one_line_error(runner, tmp_path, args,
                                                              error):
    """An option that evaluates nothing alone is an error before any file
    is read: every other path named here is missing, and reading it would
    be another error."""
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text("", encoding="utf-8")
    result = runner.invoke(main, ["eval"] + [
        arg.format(missing=tmp_path / "missing.json", ledger=ledger) for arg in args])
    assert (result.exit_code, result.output) == (1, f"Error: {error}\n")


def test_eval_table_prints_latency_in_ms(runner, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    for seed, wall in enumerate((0.0012, 0.0034)):
        record_run(RunRecord(run_id=f"r{seed}", profile_id="p", model_id="m",
                             mode="single_agent", seed=seed, completed=True,
                             wall_seconds=wall), ledger)
    result = runner.invoke(main, ["eval", "--ledger", str(ledger)])
    assert result.exit_code == 0, result.output
    assert "latency       mean 2.3ms min 1.2ms max 3.4ms over 2 runs" in (
        result.output.splitlines())


def test_eval_rejects_bad_selector(runner, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text("", encoding="utf-8")
    for args in (["--select", "model"], ["--select", "colour=blue"]):
        result = runner.invoke(main, ["eval", "--ledger", str(ledger)] + args)
        assert result.exit_code != 0


def test_eval_ledger_with_selector(runner, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    runner.invoke(main, [
        "assess", "--profile", str(PROFILE), "--mode", "single",
        "--window", "4096", "--schema-mode", "cross_sector",
        "--out", str(tmp_path)])
    result = runner.invoke(main, [
        "eval", "--ledger", str(tmp_path / "ledger.jsonl"),
        "--select", "mode=single_agent"])
    assert result.exit_code == 0, result.output
    assert "stability     1.000" in result.output


def test_eval_selects_a_mode_as_assess_and_ablate_spell_it(runner, tmp_path):
    """--select mode=single picks the runs a ledger records as single_agent."""
    ledger = str(tmp_path / "ledger.jsonl")
    result = runner.invoke(main, ["ablate", "--runs", "1", "--out", ledger])
    assert result.exit_code == 0, result.output
    tables = [runner.invoke(main, ["eval", "--ledger", ledger, "--select", f"mode={mode}"])
              for mode in ("single", "single_agent")]
    assert [table.exit_code for table in tables] == [0, 0]
    assert tables[0].output == tables[1].output
    assert "stability     1.000" in tables[0].output
    assert tables[0].output.endswith(" over 10 runs\n")


def test_eval_select_that_picks_no_run_warns(runner, tmp_path):
    """A selector value that no record of a ledger holds, most likely a
    misspelling, is one warning naming the values the ledger does hold;
    the exit code stays 0."""
    ledger = str(tmp_path / "ledger.jsonl")
    assert runner.invoke(main, ["ablate", "--runs", "1", "--out", ledger]).exit_code == 0
    for selector, warning in [
            ("mode=singel", "no run has mode 'singel' (the runs have single_agent)"),
            ("model=ft-cybersek",
             "no run has model 'ft-cybersek' (the runs have ft-cybersec, mistral-7b)"),
            ("mode=single", None)]:
        result = runner.invoke(main, ["eval", "--ledger", ledger, "--select", selector])
        assert result.exit_code == 0, result.output
        assert result.stderr == ("" if warning is None else
                                 f"Warning: --select picks none of the 10 runs; {warning}\n")
        assert ("stability     n/a" in result.output) == (warning is not None)


def test_ablate_runs_and_resumes(runner, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    args = ["ablate", "--runs", "1", "--out", str(ledger)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "executed 10 new runs (0 already in ledger)" in result.output
    assert len(ledger.read_text().splitlines()) == 10

    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "executed 0 new runs (10 already in ledger)" in result.output


def test_ablate_records_a_profile_no_stub_pool_matches_and_goes_on(runner, tmp_path):
    """A copy of saas_25 renamed zz_clinic_9 matches no pool of either
    single-agent script: its 6 cells are recorded as internal_error, each
    script set's message is warned once, and the sweep exits 0. On resume
    those cells count as done, like any failed cell."""
    profiles = tmp_path / "profiles"
    shutil.copytree(DATA_DIR / "profiles", profiles)
    saas = json.loads((profiles / "saas_25.json").read_text(encoding="utf-8"))
    (profiles / "zz_clinic_9.json").write_text(
        json.dumps({**saas, "profile_id": "zz_clinic_9"}), encoding="utf-8")
    ledger = tmp_path / "ledger.jsonl"
    result = runner.invoke(main, ["ablate", "--profiles", str(profiles), "--out", str(ledger)])
    assert result.exit_code == 0, result.output
    assert result.output.endswith("executed 36 new runs (0 already in ledger)\n")
    assert result.stderr == "".join(
        f"Warning: single_agent: stub script {DATA_DIR / 'stub' / script / 'single_agent.json'} "
        f"for role 'single_agent' has no 'default' pool and no profile matched (profiles: "
        f"health_15, fintech_30, mfg_40, retail_20, saas_25)\n"
        for script in ("specific", "generic"))
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert len(records) == 36
    failed = [r for r in records if not r["completed"]]
    assert {(r["profile_id"], r["failed_stage"], r["failure_kind"]) for r in failed} == {
        ("zz_clinic_9", "single_agent", "internal_error")}
    assert len(failed) == 6
    result = runner.invoke(main, ["ablate", "--profiles", str(profiles), "--out", str(ledger)])
    assert result.output == "executed 0 new runs (36 already in ledger)\n"


def test_ablate_records_every_cell_of_an_unreadable_stub_script_and_goes_on(runner,
                                                                           tmp_path):
    """A models file naming a stub set whose threat_modeling script is torn:
    the multi-agent sweep records all 15 cells as internal_error at that
    role, warns once and exits 0."""
    scripts = stub_copy_with(tmp_path, TORN_SCRIPT)
    models = tmp_path / "models.json"
    models.write_text(json.dumps([{"label": "torn", "script": str(scripts),
                                   "window": 131072}]), encoding="utf-8")
    ledger = tmp_path / "ledger.jsonl"
    result = runner.invoke(main, ["ablate", "--mode", "multi", "--models", str(models),
                                  "--out", str(ledger)])
    assert result.exit_code == 0, result.output
    assert result.stderr == (f"Warning: threat_modeling: cannot read stub script "
                             f"{scripts / 'threat_modeling.json'}: {TORN_PROBLEM}\n")
    assert result.output.endswith("executed 15 new runs (0 already in ledger)\n")
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert len(records) == 15
    assert {(r["completed"], r["failed_stage"], r["failure_kind"]) for r in records} == {
        (False, "threat_modeling", "internal_error")}


def test_ablate_creates_the_ledger_directory(runner, tmp_path):
    ledger = tmp_path / "new" / "dir" / "l.jsonl"
    result = runner.invoke(main, ["ablate", "--runs", "1", "--out", str(ledger)])
    assert result.exit_code == 0, result.output
    assert len(ledger.read_text().splitlines()) == 10


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_ablate_rejects_fewer_than_one_run_per_cell(runner, tmp_path, runs):
    ledger = tmp_path / "ledger.jsonl"
    result = runner.invoke(main, ["ablate", "--runs", runs, "--out", str(ledger)])
    assert result.exit_code == 2
    assert "--runs" in result.output
    assert "executed" not in result.output
    assert not ledger.exists()


@pytest.mark.parametrize("corrupt", [
    lambda line: line[:len(line) // 2],
    lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "seed"}),
    lambda line: json.dumps({**json.loads(line), "wall_seconds": "slow"}),
], ids=["torn", "missing_field", "wall_seconds_not_a_number"])
@pytest.mark.parametrize("verb", [["eval", "--ledger"], ["ablate", "--out"]],
                         ids=["eval", "ablate"])
def test_corrupt_ledger_line_is_a_clean_error(runner, tmp_path, verb, corrupt):
    line = json.dumps(RunRecord(run_id="r", profile_id="p", model_id="m",
                                mode="single_agent", seed=0, completed=True).to_json())
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text(f"{line}\n{corrupt(line)}\n", encoding="utf-8")
    result = runner.invoke(main, verb + [str(ledger)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"{ledger}:2: " in result.output
    assert "Traceback" not in result.output


ANNOTATION = '{"assessor_id": "a1", "risk_title": "Phishing", "severity": "High"}\n'


EVAL_ALIASES = ["eval", "--register", "{register}", "--annotations", ANNOTATIONS,
                "--aliases", "{file}"]
ABLATE_MODELS = ["ablate", "--models", "{file}", "--out", "{ledger}"]
CORPUS_LINE = '{"framework": "nist_csf", "identifier": "ID.AM-1", "title": "t", "body": "b"}\n'
INDEX_CORPUS = ["index-corpus", "--corpus", "{file}"]
CORPUS_ERROR = "cannot ingest corpus: {file}:1: not a FrameworkExcerpt record: "


@pytest.mark.parametrize("name, text, args, error", [
    ("register.json", '{"risks": [',
     ["eval", "--register", "{file}", "--annotations", ANNOTATIONS],
     "cannot read register {file}: JSONDecodeError: "),
    ("register.json", '{"risks": [{"title": 5, "likelihood": "High", '
                      '"impact": "High", "reasoning": "r"}]}',
     ["eval", "--register", "{file}", "--annotations", ANNOTATIONS],
     "cannot read register {file}: TypeError: risks[0].title must be str, not int"),
    ("register.json", '{"risks": [{"title": "T", "likelihood": "Extreme", '
                      '"impact": "High", "reasoning": "r"}]}',
     ["eval", "--register", "{file}", "--annotations", ANNOTATIONS],
     "cannot read register {file}: ValueError: not an ordinal level: 'Extreme'"),
    ("register.json", '{"risks": [{"title": "T", "likelihood": "High", "impact": "High", '
                      '"reasoning": "r", "foo": 1}]}',
     ["eval", "--register", "{file}", "--annotations", ANNOTATIONS],
     "cannot read register {file}: TypeError: risks[0].foo is not a field of RiskItem"),
    ("register.json", '{"risks": "T"}',
     ["eval", "--register", "{file}", "--annotations", ANNOTATIONS],
     "cannot read register {file}: TypeError: risks must be list[dict], not str"),
    ("register.json", '{"risks": [{"title": "T", "likelihood": "High", "impact": "High", '
                      '"reasoning": "r", "severity_value": true}]}',
     ["eval", "--register", "{file}", "--annotations", ANNOTATIONS],
     "cannot read register {file}: TypeError: risks[0].severity_value must be int, "
     "not bool"),
    ("register.json", '[]',
     ["eval", "--register", "{file}", "--annotations", ANNOTATIONS],
     "cannot read register {file}: TypeError: document must be dict, not list"),
    ("register.json", '{}',
     ["eval", "--register", "{file}", "--annotations", ANNOTATIONS],
     "cannot read register {file}: TypeError: risks is missing"),
    ("annotations.jsonl", ANNOTATION * 2,
     ["eval", "--register", "{register}", "--annotations", "{file}"],
     "{file}: duplicate annotation for ('a1', 'phishing')"),
    ("annotations.jsonl", ANNOTATION + ANNOTATION[:20],
     ["eval", "--register", "{register}", "--annotations", "{file}"],
     "{file}:2: not a PractitionerAnnotation record: "),
    ("annotations.jsonl", '{"assessor_id": "a", "risk_title": 5, "severity": "High"}\n',
     ["eval", "--register", "{register}", "--annotations", "{file}"],
     "{file}:1: not a PractitionerAnnotation record: risk_title must be str, not int"),
    ("annotations.jsonl", '{"assessor_id": "a", "risk_title": "T", "severity": "Extreme"}\n',
     ["eval", "--register", "{register}", "--annotations", "{file}"],
     "{file}:1: not a PractitionerAnnotation record: severity must be one of Low, "
     "Medium, High, not 'Extreme'"),
    ("aliases.json", '[["a", "b", "c"]]', EVAL_ALIASES,
     "cannot read aliases {file}: TypeError: [0] must be tuple[str, str], not 3 items"),
    ("aliases.json", '[[5, "b"]]', EVAL_ALIASES,
     "cannot read aliases {file}: TypeError: [0][0] must be str, not int"),
    ("aliases.json", '["xy"]', EVAL_ALIASES,
     "cannot read aliases {file}: TypeError: [0] must be tuple[str, str], not str"),
    ("aliases.json", '{"ab": 1}', EVAL_ALIASES,
     "cannot read aliases {file}: TypeError: document must be list[tuple[str, str]], "
     "not dict"),
    ("profiles/bad.json", '{"profile_id": ',
     ["ablate", "--profiles", "{dir}", "--out", "{ledger}"],
     "cannot read profile {file}: JSONDecodeError: "),
    ("profiles/bad.json", '{"x": 1}',
     ["ablate", "--profiles", "{dir}", "--out", "{ledger}"],
     "cannot read profile {file}: ProfileInvalid: questionnaire invalid: "),
    ("models.json", '[{"label": "x"}]', ABLATE_MODELS,
     "cannot read models {file}: TypeError: [0].script is missing"),
    ("models.json", '[{"label": "a", "script": "specific"}, '
                    '{"label": "b", "script": "specific", "window": 512}]', ABLATE_MODELS,
     "cannot read models {file}: ValueError: "),
    ("models.json", '[{"label": 5, "script": "specific"}]', ABLATE_MODELS,
     "cannot read models {file}: TypeError: [0].label must be str, not int"),
    ("models.json", '[{"label": "x", "script": 5}]', ABLATE_MODELS,
     "cannot read models {file}: TypeError: [0].script must be str, not int"),
    ("models.json", '[{"label": "a", "script": "specific", "window": "big"}]', ABLATE_MODELS,
     "cannot read models {file}: TypeError: [0].window must be int, not str"),
    ("models.json", '[{"label": "a", "script": "specific", "context_window_tokens": 4096}]',
     ABLATE_MODELS,
     "cannot read models {file}: TypeError: [0].context_window_tokens is not a field of "
     "ModelSpec"),
    ("corpus.jsonl", CORPUS_LINE.replace('"t"', "5"), INDEX_CORPUS,
     CORPUS_ERROR + "title must be str, not int"),
    ("corpus.jsonl", CORPUS_LINE.replace('"ID.AM-1"', "5"), INDEX_CORPUS,
     CORPUS_ERROR + "identifier must be str, not int"),
    ("corpus.jsonl", '["framework", "identifier", "title", "body"]\n', INDEX_CORPUS,
     CORPUS_ERROR + "document must be FrameworkExcerpt, not list"),
    ("corpus.jsonl", CORPUS_LINE.replace('"t"', '"\xff"').encode("latin-1"), INDEX_CORPUS,
     CORPUS_ERROR + "'utf-8' codec can't decode byte 0xff"),
    ("corpus.jsonl", CORPUS_LINE.replace("}", ', "source": "s"}'), INDEX_CORPUS,
     CORPUS_ERROR + "source is not a field of FrameworkExcerpt"),
], ids=["register_torn", "register_title_not_string", "register_level_unknown",
        "register_unknown_key", "register_risks_not_a_list", "register_severity_value_bool",
        "register_not_an_object", "register_without_risks",
        "annotations_duplicate", "annotations_torn", "annotations_title_not_string",
        "annotations_severity_unknown", "aliases_triple", "aliases_title_not_string",
        "aliases_string_not_pair", "aliases_object", "profile_torn", "profile_invalid",
        "models_no_script", "models_window_too_small", "models_label_not_string",
        "models_script_not_string", "models_window_not_int", "models_field_name_as_key",
        "corpus_title_not_string",
        "corpus_identifier_not_string", "corpus_line_not_an_object",
        "corpus_not_utf8", "corpus_unknown_key"])
def test_bad_input_file_is_a_one_line_error(runner, tmp_path, case_study_run, name, text,
                                           args, error):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    result = runner.invoke(main, [arg.format(file=path, dir=path.parent,
                                             ledger=tmp_path / "ledger.jsonl",
                                             register=case_study_run / "report.json")
                                  for arg in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert str(path) in result.output
    assert "Traceback" not in result.output
    assert result.output.startswith("Error: " + error.format(file=path))
    assert result.output.count("\n") == 1
    assert not (tmp_path / "ledger.jsonl").exists()


@pytest.mark.parametrize("models, copies, error", [
    ('[{"label": "a", "script": "specific"}, {"label": "a", "script": "generic"}]', 1,
     "model label 'a' repeated"),
    ('[{"label": "a", "script": "specific"}]', 2, "profile_id 'health_15' repeated"),
], ids=["model_label", "profile_id"])
def test_ablate_rejects_a_repeated_cell_name(runner, tmp_path, models, copies, error):
    """Two models with one label, or two profiles with one id, would run
    into one ledger cell; the sweep stops before its first run."""
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for copy in range(copies):
        (profiles / f"copy{copy}.json").write_bytes(PROFILE.read_bytes())
    (tmp_path / "models.json").write_text(models, encoding="utf-8")
    ledger = tmp_path / "ledger.jsonl"
    result = runner.invoke(main, ["ablate", "--profiles", str(profiles), "--models",
                                  str(tmp_path / "models.json"), "--out", str(ledger)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {error}: its runs would share one cell\n"
    assert not ledger.exists()


def test_ablate_requires_profiles(runner, tmp_path):
    empty = tmp_path / "profiles"
    empty.mkdir()
    result = runner.invoke(main, [
        "ablate", "--profiles", str(empty), "--out", str(tmp_path / "l.jsonl")])
    assert result.exit_code != 0
    assert "no profile JSON files" in result.output


# The interpreters run_verbs runs on: this one, and any that
# RISKFORGE_TEST_PYTHONS names (paths joined by os.pathsep).
PYTHONS = [sys.executable,
           *filter(None, os.environ.get("RISKFORGE_TEST_PYTHONS", "").split(os.pathsep))]


def run_verbs(python, verbs, report, package_env):
    """Run each argv of verbs through main in one fresh python without
    site-packages (python -S), so an import of any third-party package
    fails; report, the source of a function that prints one line, runs
    at start-up and after each verb. Returns the process's stdout."""
    code = (f"from riskforge.cli import main\n{report}\nreport()\n"
            f"for argv in {verbs!r}:\n    main(argv)\n    report()\n")
    return subprocess.run([python, "-S", "-c", code], capture_output=True,
                          text=True, env=package_env, timeout=60, check=True).stdout


def test_cli_import_and_stub_run_leave_unneeded_modules_unloaded(tmp_path, package_env,
                                                                 case_study_run):
    """Every verb runs on the standard library alone: where jsonschema
    cannot be imported, a CLI start-up and each verb (assess --out in both
    modes, ablate, eval of its ledger and of a case-study run's report.json,
    index-corpus) complete, and none loads a third-party package, an HTTP
    client or a secrets module, under each of PYTHONS."""
    report = (
        "def report():\n"
        "    import sys\n"
        "    unwanted = ('click', 'requests', 'urllib.request', 'http.client', 'secrets',\n"
        "                'jsonschema')\n"
        "    print('unwanted:', sorted(m for m in unwanted if m in sys.modules))\n"
        "    try:\n"
        "        import jsonschema\n"
        "    except ModuleNotFoundError:\n"
        "        print('jsonschema: ModuleNotFoundError')\n"
    )
    for index, python in enumerate(PYTHONS):
        out = tmp_path / str(index)
        ledger = str(out / "ledger.jsonl")
        stdout = run_verbs(python, [
            ["assess", "--profile", str(PROFILE), "--out", str(out)],
            ["assess", "--mode", "single", "--profile", str(PROFILE), "--out", str(out)],
            ["ablate", "--out", ledger],
            ["eval", "--ledger", ledger, "--json", "--select", "mode=single_agent"],
            ["eval", "--register", str(case_study_run / "report.json"),
             "--annotations", ANNOTATIONS, "--aliases", ALIASES],
            ["index-corpus"],
        ], report, package_env)
        lines = stdout.splitlines()
        assert [line for line in lines if line.startswith(("unwanted: ", "jsonschema: "))] == [
            "unwanted: []", "jsonschema: ModuleNotFoundError"] * 7, python
        assert stdout.count('"completed": true') == 2, python
        assert "executed 30 new runs (0 already in ledger)" in lines, python
        assert "agreement     18/21 (0.857)" in lines, python
        assert "coverage      12/13 (0.923)" in lines, python
        assert "  total: 17 excerpts" in lines, python


def test_cli_start_up_defers_modules_until_a_verb_uses_them(tmp_path, package_env):
    """The executor (with logging), exact ratios (fractions, decimal), the
    evaluation kit, the report renderer and the risk model load only where a
    verb uses them: neither a CLI start-up nor a single-agent assess loads
    any of them, the bundled sweep loads the evaluation kit alone, and a
    multi-agent assess with --out loads the renderer but, with a stub that
    does not wait on I/O, no executor, and no evaluation kit before a sweep;
    under each of PYTHONS."""
    report = (
        "def report():\n"
        "    import sys\n"
        "    lazy = ('concurrent.futures', 'logging', 'fractions', 'decimal',\n"
        "            'riskforge.evalkit', 'riskforge.report', 'riskforge.risk_model')\n"
        "    print('loaded:', sorted(m for m in lazy if m in sys.modules))\n"
    )
    renderer = "'riskforge.report', 'riskforge.risk_model'"
    for (index, python), (order, loaded) in itertools.product(enumerate(PYTHONS), [
        (["single", "ablate", "multi"],
         ["[]", "[]", "['riskforge.evalkit']", f"['riskforge.evalkit', {renderer}]"]),
        (["multi", "ablate"], ["[]", f"[{renderer}]", f"['riskforge.evalkit', {renderer}]"]),
    ]):
        root = tmp_path / str(index) / "-".join(order)
        verbs = {
            "single": ["assess", "--mode", "single", "--profile", str(PROFILE),
                       "--out", str(root / "single")],
            "ablate": ["ablate", "--out", str(root / "ledger.jsonl")],
            "multi": ["assess", "--profile", str(PROFILE), "--out", str(root / "run")],
        }
        stdout = run_verbs(python, [verbs[name] for name in order], report, package_env)
        assert [line for line in stdout.splitlines() if line.startswith("loaded: ")] == [
            f"loaded: {modules}" for modules in loaded], python
        assert "executed 30 new runs" in stdout, python
        assert [path.name for path in (root / "run").glob("*/report.md")] == ["report.md"]


def test_torn_last_ledger_line_is_one_warning_and_its_cell_runs_again(runner, tmp_path):
    """A bundled sweep ledger cut 40 bytes short, as a killed writer leaves
    it: eval skips the torn line with one warning, ablate cuts it off with
    one and reruns its cell, and the mended ledger reads with none."""
    ledger = tmp_path / "l.jsonl"
    assert runner.invoke(main, ["ablate", "--out", str(ledger)]).exit_code == 0
    whole = ledger.read_bytes()
    ledger.write_bytes(whole[:-40])
    tail = len(whole.splitlines(keepends=True)[-1]) - 40
    result = runner.invoke(main, ["eval", "--ledger", str(ledger)])
    assert result.exit_code == 0, result.output
    assert result.stderr == (f"Warning: {ledger}:30: skipped a torn last line ({tail} "
                             f"bytes, no trailing newline)\n")
    assert "over 29 runs" in result.output
    result = runner.invoke(main, ["ablate", "--out", str(ledger)])
    assert result.exit_code == 0, result.output
    assert result.output == (f"Warning: {ledger}:30: cut a torn last line ({tail} bytes, "
                             f"no trailing newline) before appending\n"
                             f"executed 1 new runs (29 already in ledger)\n")
    result = runner.invoke(main, ["eval", "--ledger", str(ledger)])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert "over 30 runs" in result.output


def test_assess_out_cuts_a_torn_last_ledger_line_before_appending(runner, tmp_path):
    args = ["assess", "--mode", "single", "--profile", str(PROFILE), "--out", str(tmp_path)]
    ledger = tmp_path / "ledger.jsonl"
    assert runner.invoke(main, args).exit_code == 0
    whole = ledger.read_bytes()
    ledger.write_bytes(whole[:-40])
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.output.startswith(f"Warning: {ledger}:1: cut a torn last line "
                                    f"({len(whole) - 40} bytes, no trailing newline) "
                                    f"before appending\n")
    result = runner.invoke(main, ["eval", "--ledger", str(ledger)])
    assert result.exit_code == 0, result.output
    assert "Warning" not in result.output
    assert "over 1 runs" in result.output


@pytest.mark.parametrize("args", [
    ["assess", "--profile", "{missing}"],
    ["eval", "--ledger", "{missing}"],
    ["eval", "--register", "{register}", "--annotations", "{missing}"],
    ["eval", "--register", "{missing}", "--annotations", ANNOTATIONS],
    ["eval", "--register", "{register}", "--annotations", ANNOTATIONS, "--aliases",
     "{missing}"],
    ["ablate", "--models", "{missing}", "--out", "{ledger}"],
    ["index-corpus", "--corpus", "{missing}"],
    ["assess", "--profile", str(PROFILE), "--out", "{file}"],
], ids=["profile", "ledger", "annotations", "register", "aliases", "models", "corpus",
        "out_is_a_file"])
def test_missing_input_file_is_a_one_line_error(runner, tmp_path, case_study_run, args):
    missing, file = tmp_path / "missing.json", tmp_path / "file.txt"
    file.write_text("", encoding="utf-8")
    result = runner.invoke(main, [arg.format(missing=missing, file=file,
                                             ledger=tmp_path / "ledger.jsonl",
                                             register=case_study_run / "report.json")
                                  for arg in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    # named once: not again inside the OSError's own message
    assert result.output.count(str(missing if "{missing}" in args else file)) == 1
    assert "Traceback" not in result.output
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file.txt"]


@pytest.mark.parametrize("args, error", [
    (["assess", "--profile", str(PROFILE), "--out", "{file}"],
     "--out {file} is not a directory"),
    (["ablate", "--runs", "1", "--out", "{file}/l.jsonl"],
     "--out {file}/l.jsonl: {file} is not a directory"),
], ids=["assess", "ablate"])
def test_out_under_a_file_is_a_one_line_error_naming_it(runner, tmp_path, args, error):
    file = tmp_path / "file.txt"
    file.write_text("", encoding="utf-8")
    result = runner.invoke(main, [arg.format(file=file) for arg in args])
    assert result.exit_code == 1
    assert result.output == f"Error: {error.format(file=file)}\n"
    assert list(tmp_path.iterdir()) == [file]
    assert file.read_text(encoding="utf-8") == ""


VERB_OPTIONS = {
    None: ["--help"],
    "assess": ["--help", "--profile", "--mode", "--provider", "--script", "--model",
               "--window", "--seed", "--schema-mode", "--corpus", "--out"],
    "eval": ["--help", "--ledger", "--annotations", "--aliases", "--register", "--select",
             "--json"],
    "ablate": ["--help", "--profiles", "--models", "--runs", "--mode", "--schema-mode",
               "--corpus", "--out", "--workers"],
    "index-corpus": ["--help", "--corpus"],
}


@pytest.mark.parametrize("verb", VERB_OPTIONS, ids=lambda verb: verb or "riskforge")
def test_help_names_every_option(runner, verb):
    result = runner.invoke(main, [verb, "--help"] if verb else ["--help"])
    assert result.exit_code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", result.output)) == set(VERB_OPTIONS[verb])
    if verb is None:
        assert all(name in result.output for name in VERB_OPTIONS if name)


@pytest.mark.parametrize("extra", [["--colour", "blue"], ["--mode", "triple"]],
                         ids=["unknown_option", "mode_not_a_choice"])
def test_usage_error_exits_2_and_writes_nothing(runner, tmp_path, extra):
    result = runner.invoke(main, ["assess", "--profile", str(PROFILE),
                                  "--out", str(tmp_path / "out")] + extra)
    assert result.exit_code == 2
    assert result.output.startswith("usage: riskforge ")
    assert extra[0] in result.output
    assert list(tmp_path.iterdir()) == []
