"""Pipeline execution: staged DAG, budget enforcement, run records.

Multi-agent mode runs five stages with one parallel pair (threat
modeling and control assessment both read only the intake profile); the
single-agent baseline is a plan of one stage with one role. Both run
through the same stage runner and ContractSet.run_agent. Before every
stage each role's prompt is assembled once, checked against the context
window and handed to the agent as is; the paper-observed failure mode is
context accumulation outpacing the window mid-pipeline, so the check
runs per stage, not just once.

The pair overlaps only when the gateway's waits_on_io says its calls
wait on I/O (a model server, or a stub with simulated latency): then each
role runs on its own executor thread. A call that is pure Python
computation, such as the stub's without a sleep, would only hand the
interpreter lock back and forth, so those roles run one after another on
the calling thread, in stage order. Either way every role of the stage
runs, prompts come from the snapshot taken before the stage, and the
first failure in stage order is reported.
The three classified failure kinds (context_overflow, agent_failed,
provider_error) land in the RunRecord so ablation sweeps can count them;
any other exception propagates out of execute_pipeline once the session
log is closed.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .context_store import ContextEntry, ContextSnapshot, ContextStore
from .contracts import (ENTRY_KINDS, QUESTIONNAIRE_SCHEMA, SINGLE_AGENT_ROLE, STAGES,
                        ContractSet)
from .errors import (AgentFailed, ContextOverflow, ProfileInvalid, ProviderError,
                     ProviderUnreachable, StorageFailure)
from .gateway import ModelConfig
from .grounding import Corpus
from .risk_model import normalize_title
from .tokens import canonical_json, estimate_tokens
from . import report as report_mod


@dataclass
class RunRecord:
    run_id: str
    profile_id: str
    model_id: str
    mode: str  # multi_agent | single_agent
    seed: int
    completed: bool
    failed_stage: Optional[str] = None
    failure_kind: Optional[str] = None  # context_overflow | agent_failed | provider_error
    wall_seconds: float = 0.0
    structural_ok: bool = False
    unique_threat_titles: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "profile_id": self.profile_id,
            "model_id": self.model_id,
            "mode": self.mode,
            "seed": self.seed,
            "completed": self.completed,
            "failed_stage": self.failed_stage,
            "failure_kind": self.failure_kind,
            "wall_seconds": self.wall_seconds,
            "structural_ok": self.structural_ok,
            "unique_threat_titles": self.unique_threat_titles,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RunRecord":
        return cls(**doc)


@dataclass(frozen=True)
class BudgetDecision:
    ok: bool
    role: str
    prompt_tokens: int
    reserved_output_tokens: int
    context_window_tokens: int
    deficit: int
    largest_entry_key: Optional[str] = None
    largest_entry_tokens: int = 0

    def describe(self) -> str:
        verdict = "fits" if self.ok else f"overflows by {self.deficit}"
        detail = (f"role {self.role}: {self.prompt_tokens} prompt tokens + "
                  f"{self.reserved_output_tokens} reserved vs window "
                  f"{self.context_window_tokens} ({verdict})")
        if self.largest_entry_key:
            detail += (f"; largest context entry: {self.largest_entry_key} "
                       f"({self.largest_entry_tokens} tokens)")
        return detail


def enforce_budget(snapshot: Optional[ContextSnapshot], role: str,
                   config: ModelConfig, prompt_tokens: int) -> BudgetDecision:
    """Decide whether a fully assembled prompt fits the context window."""
    deficit = prompt_tokens + config.reserved_output_tokens - config.context_window_tokens
    largest_key = None
    largest_tokens = 0
    if snapshot is not None and snapshot.entries:
        largest = max(snapshot.entries, key=lambda e: e.token_estimate)
        largest_key = largest.key
        largest_tokens = largest.token_estimate
    return BudgetDecision(
        ok=deficit <= 0,
        role=role,
        prompt_tokens=prompt_tokens,
        reserved_output_tokens=config.reserved_output_tokens,
        context_window_tokens=config.context_window_tokens,
        deficit=max(deficit, 0),
        largest_entry_key=largest_key,
        largest_entry_tokens=largest_tokens,
    )


def record_run(record: RunRecord, path: Path) -> None:
    """Append one record to the run ledger as a single JSON line, written by
    one write() on an O_APPEND descriptor, so lines from concurrent threads
    or processes never interleave."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(record.to_json(), ensure_ascii=False) + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
    except OSError as exc:
        raise StorageFailure(f"cannot append to run ledger {path}: {exc}") from exc
    if written != len(line):
        raise StorageFailure(f"short write to run ledger {path}: "
                             f"{written} of {len(line)} bytes")


def load_ledger(path: Path) -> list[RunRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_json(json.loads(line)))
    return records


def _new_run_id() -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{secrets.token_hex(2)}"


class _StageFailure(Exception):
    def __init__(self, role: str, kind: str, cause: Exception):
        self.role = role
        self.kind = kind
        self.cause = cause
        super().__init__(f"stage {role} failed ({kind}): {cause}")


def _classify(role: str, exc: Exception) -> Exception:
    """The stage failure exc stands for, or exc itself when it is of no
    classified kind (it then escapes execute_pipeline)."""
    if isinstance(exc, ContextOverflow):
        return _StageFailure(role, "context_overflow", exc)
    if isinstance(exc, AgentFailed):
        return _StageFailure(role, "agent_failed", exc)
    if isinstance(exc, (ProviderError, ProviderUnreachable)):
        return _StageFailure(role, "provider_error", exc)
    return exc


def _dedupe_titles(titles: list[str]) -> list[str]:
    seen = set()
    out = []
    for title in titles:
        norm = normalize_title(title)
        if norm not in seen:
            seen.add(norm)
            out.append(title)
    return out


def execute_pipeline(profile: dict, config: ModelConfig, mode: str, gateway,
                     corpus: Optional[Corpus], contracts: ContractSet,
                     out_dir: Optional[Path] = None) -> tuple[RunRecord, Optional[ContextEntry]]:
    """Run one assessment. Returns the run record and, when the run
    completed, the final report entry. Before any stage executes or any
    file is written, raises ProfileInvalid for an invalid questionnaire
    and ValueError for an unknown mode or for a schema the mode validates
    against that compile_schema does not support. A context overflow, a
    failed agent or a provider error lands in the record; any other
    exception propagates once the session log is closed."""
    if mode not in ("multi_agent", "single_agent"):
        raise ValueError(f"unknown mode {mode!r}")
    if not contracts.acceptor(QUESTIONNAIRE_SCHEMA)(profile):
        import jsonschema  # only a rejection needs explaining

        try:
            jsonschema.Draft202012Validator(
                contracts.schema(QUESTIONNAIRE_SCHEMA)).validate(profile)
        except jsonschema.ValidationError as exc:
            raise ProfileInvalid(f"questionnaire invalid: {exc.message}") from exc
    plan, build_prompt = _plan(mode, profile, contracts, corpus)
    for stage in plan:
        for role in stage:
            # compiled now, so an unsupported schema fails first
            contracts.acceptor(contracts.contract(role).schema_name)

    run_id = _new_run_id()
    run_dir = None
    if out_dir is not None:
        run_dir = Path(out_dir) / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
    store = ContextStore(ENTRY_KINDS,
                         log_path=run_dir / "session.jsonl" if run_dir else None)

    record = RunRecord(
        run_id=run_id,
        profile_id=profile["profile_id"],
        model_id=config.model_id,
        mode=mode,
        seed=config.seed if config.seed is not None else 0,
        completed=False,
    )

    report_entry: Optional[ContextEntry] = None
    start = time.perf_counter()
    try:
        try:
            _run_stages(plan, build_prompt, config, gateway, contracts, store)
            record.completed = True
        except _StageFailure as failure:
            record.failed_stage = failure.role
            record.failure_kind = failure.kind
        record.wall_seconds = time.perf_counter() - start

        if record.completed:
            report_entry = store.read_latest("report")
            record.structural_ok, record.unique_threat_titles = _structure_check(store, mode)
            if run_dir is not None:
                _write_outputs(store, corpus, config, mode, record, run_dir)
    finally:
        store.close()
    return record, report_entry


def _run_role(contracts: ContractSet, role: str, prompt: str, store: ContextStore,
              gateway, config: ModelConfig) -> Optional[Exception]:
    """Run one agent; return its failure, classified where possible, instead
    of raising it, so the other roles of the stage still run."""
    try:
        contracts.run_agent(role, prompt, store, gateway, config)
    except Exception as exc:  # re-raised by _run_stages once the stage is over
        return _classify(role, exc)
    return None


def _plan(mode: str, profile: dict, contracts: ContractSet, corpus: Optional[Corpus]):
    """The mode's stages and its prompt builder, build(role, snapshot)."""
    if mode == "single_agent":
        return ((SINGLE_AGENT_ROLE,),), lambda role, snapshot: _single_prompt(
            profile, contracts, corpus)
    questionnaire = {"questionnaire": canonical_json(profile)}

    def build(role: str, snapshot: ContextSnapshot) -> str:
        extra = questionnaire if role == "risk_intake" else None
        return contracts.build_prompt(role, snapshot, corpus, extra=extra)
    return STAGES, build


def _run_stages(plan, build_prompt, config: ModelConfig, gateway,
                contracts: ContractSet, store: ContextStore) -> None:
    # A gateway that does not say is assumed to wait on I/O.
    threaded = getattr(gateway, "waits_on_io", True)
    for stage in plan:
        snapshot = store.snapshot()
        prompts = {}
        for role in stage:
            prompt = build_prompt(role, snapshot)
            decision = enforce_budget(snapshot, role, config, estimate_tokens(prompt))
            if not decision.ok:
                raise _StageFailure(role, "context_overflow", ContextOverflow(
                    role, decision.prompt_tokens, decision.reserved_output_tokens,
                    decision.context_window_tokens))
            prompts[role] = prompt
        if threaded and len(stage) > 1:
            with ThreadPoolExecutor(max_workers=len(stage)) as pool:
                futures = [pool.submit(_run_role, contracts, role, prompt, store,
                                       gateway, config)
                           for role, prompt in prompts.items()]
            outcomes = [future.result() for future in futures]
        else:
            outcomes = [_run_role(contracts, role, prompt, store, gateway, config)
                        for role, prompt in prompts.items()]
        failures = [failure for failure in outcomes if failure is not None]
        if failures:
            # an unclassified error outranks a stage failure: it escapes the run
            raise next((f for f in failures if not isinstance(f, _StageFailure)),
                       failures[0])


def _single_prompt(profile: dict, contracts: ContractSet,
                   corpus: Optional[Corpus]) -> str:
    questionnaire = canonical_json(profile)
    grounding = []
    if corpus is not None:
        grounding = corpus.retrieve(
            "access control authentication policy incident response monitoring", 4)
    parts = [
        "You are a security analyst performing a complete cybersecurity risk "
        "assessment in a single pass. Work through every stage below in order.",
        "",
        "=== QUESTIONNAIRE ===",
        questionnaire,
        "",
        "=== FRAMEWORK EXCERPTS ===",
    ]
    if grounding:
        for excerpt in grounding:
            parts.append(f"[{excerpt.framework} {excerpt.identifier}] "
                         f"{excerpt.title}: {excerpt.body}")
    else:
        parts.append("(none supplied)")
    parts += [
        "",
        "=== CITATION POLICY ===",
        "Reference framework control identifiers only if they appear verbatim in "
        "the FRAMEWORK EXCERPTS section above.",
        "",
        "=== TASK ===",
        contracts.combined_task_text(questionnaire),
        "",
        "Respond with a single JSON object with exactly three threats, three "
        "risks, and three recommendations.",
    ]
    return "\n".join(parts)


def _structure_check(store: ContextStore, mode: str) -> tuple[bool, list[str]]:
    """The 3/3/3 structural stability check plus threat title collection."""
    if mode == "single_agent":
        doc = store.read_latest("report").payload
        threats = doc.get("threats", [])
        risks = doc.get("risks", [])
        recs = doc.get("recommendations", [])
    else:
        threats = store.read_latest("threat_model").payload.get("threats", [])
        risks = store.read_latest("risk_register").payload.get("risks", [])
        recs = store.read_latest("recommendations").payload.get("recommendations", [])
    titles = _dedupe_titles([t.get("title", "") for t in threats])
    structural_ok = len(threats) == 3 and len(risks) == 3 and len(recs) == 3
    return structural_ok, titles


def _write_outputs(store: ContextStore, corpus: Optional[Corpus],
                   config: ModelConfig, mode: str, record: RunRecord,
                   run_dir: Path) -> None:
    if mode == "single_agent":
        doc = store.read_latest("report").payload
        (run_dir / "report.json").write_text(
            json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
            encoding="utf-8")
        return
    snapshot = store.snapshot()
    citations = []
    if corpus is not None:
        citations = corpus.verify_citations(report_mod.citation_source_text(snapshot))
    flags = report_mod.contradiction_flags(snapshot)
    markdown = report_mod.render_report(snapshot, citations, flags,
                                        model_id=config.model_id, mode=mode)
    (run_dir / "report.md").write_text(markdown, encoding="utf-8")
    doc = report_mod.report_document(snapshot, citations, flags, record)
    (run_dir / "report.json").write_text(
        json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8")
