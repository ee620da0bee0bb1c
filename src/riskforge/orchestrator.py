"""Pipeline execution: staged DAG, budget enforcement, run records.

The stage plans, contracts.PLANS, are derived from the contracts' reads
and writes at import: multi-agent mode runs five stages with one parallel
pair (threat modeling and control assessment both read only the intake
profile), and the single-agent baseline is a plan of one stage with one
role. Both run through the same stage runner, which takes every prompt
from ContractSet.build_prompt and hands it to ContractSet.run_agent; it
does not branch on the mode.
Before every stage each role's prompt is built once, checked against
the context window (enforce_budget) and handed to the agent as is; the
paper-observed failure mode is context accumulation outpacing the window
mid-pipeline, so the check runs per stage, not just once. run_agent
checks every attempt's prompt, retries included. Both build a
gateway.BudgetDecision, which a ContextOverflow carries; the stage
check's also names the snapshot's largest context entry.

The pair overlaps only when the gateway's waits_on_io says its calls
wait on I/O (a model server, or a stub with simulated latency): then each
role runs on its own executor thread. A call that is pure Python
computation, such as the stub's without a sleep, would only hand the
interpreter lock back and forth, so those roles run one after another on
the calling thread, in stage order. Either way every role of the stage
runs, prompts come from the snapshot taken before the stage, and the
first failure in stage order is reported. The executor loads on the first
threaded stage: ThreadPoolExecutor is a module attribute that imports
concurrent.futures (and with it logging) on first access, so a run that
never overlaps a pair never imports them.
A RiskforgeError raised while a role runs lands in the RunRecord as its
kind (context_overflow, agent_failed, provider_error, else internal_error),
so ablation sweeps can count them; any other exception propagates out of
execute_pipeline.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .context_store import ContextEntry, ContextStore
from .contracts import ITEM_BOUNDS, PLANS, QUESTIONNAIRE_SCHEMA, ContractSet, encodes_utf8
from .errors import ContextOverflow, ProfileInvalid, RiskforgeError
from .gateway import BudgetDecision, ModelConfig
from .grounding import Corpus, normalize_title
from .records import append_line, load_appended
from .tokens import canonical_json, estimate_tokens


def __getattr__(name: str):
    # ThreadPoolExecutor, imported on first access and then kept as a
    # module attribute, which stays replaceable (a tracer substitutes it).
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ThreadPoolExecutor
    globals()[name] = ThreadPoolExecutor
    return ThreadPoolExecutor


@dataclass
class RunRecord:
    """The outcome of one assessment run, as one line of a run ledger."""

    run_id: str
    profile_id: str
    model_id: str
    mode: str  # multi_agent | single_agent
    seed: int
    completed: bool
    failed_stage: Optional[str] = None
    failure_kind: Optional[str] = None  # a RiskforgeError kind
    wall_seconds: float = 0.0
    structural_ok: bool = False
    unique_threat_titles: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        # not dataclasses.fields(), whose per-call tuple fills a free list (~0.25 MB RSS)
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def enforce_budget(snapshot: Optional[dict[str, ContextEntry]], role: str,
                   config: ModelConfig, prompt_tokens: int) -> BudgetDecision:
    """Decide whether a stage's fully assembled prompt fits the context
    window, naming the snapshot's largest entry for the diagnosis."""
    if not snapshot:
        return BudgetDecision(role, prompt_tokens, config.context_window_tokens)
    largest = max(snapshot.values(), key=lambda e: e.token_estimate)
    return BudgetDecision(role, prompt_tokens, config.context_window_tokens,
                          largest.key, largest.token_estimate)


def record_run(record: RunRecord, path: Path) -> None:
    """Append one record to the run ledger, whose directory exists, as a
    single JSON line."""
    append_line(path, record.to_json())


def load_ledger(path: Path) -> list[RunRecord]:
    """The ledger's records; a torn last line is skipped with a warning
    (records.load_appended)."""
    return load_appended(path, RunRecord)


def _new_run_id() -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{os.urandom(4).hex()}"


def _dedupe_titles(titles: list[str]) -> list[str]:
    seen = set()
    out = []
    for title in titles:
        norm = normalize_title(title)
        if norm not in seen:
            seen.add(norm)
            out.append(title)
    return out


class Questionnaire(NamedTuple):
    """A profile that passed check_profile: the profile and its
    canonical_json text, which every prompt quotes. The questionnaire
    schema is bundled and reads the same in every schema mode, so a
    Questionnaire holds for every ContractSet. A NamedTuple, not a frozen
    dataclass, as the class is built at import and a NamedTuple builds
    faster."""

    profile: dict
    text: str


def check_profile(profile: Union[dict, Questionnaire],
                  contracts: ContractSet) -> Questionnaire:
    """profile as a Questionnaire if it is a valid questionnaire, else raise
    ProfileInvalid naming its first violation in (path, message) order, or
    else the field holding an unpaired UTF-16 surrogate, which no UTF-8
    prompt can quote. A Questionnaire comes back as it is, so a profile
    checked once is neither checked nor serialized again."""
    if isinstance(profile, Questionnaire):
        return profile
    violations = contracts.checker(QUESTIONNAIRE_SCHEMA)(profile)
    if violations:
        raise ProfileInvalid(f"questionnaire invalid: {': '.join(violations[0])}")
    text = canonical_json(profile)
    if not (text.isascii() or encodes_utf8(text)):
        field = next(key for key, value in profile.items()
                     if not encodes_utf8(canonical_json({key: value})))
        # repr escapes a surrogate, so the message itself encodes
        raise ProfileInvalid(f"questionnaire invalid: {field!r} holds an unpaired "
                             f"UTF-16 surrogate")
    return Questionnaire(profile, text)


def execute_pipeline(profile: Union[dict, Questionnaire], config: ModelConfig, mode: str,
                     gateway, corpus: Corpus, contracts: ContractSet,
                     out_dir: Optional[Path] = None) -> tuple[RunRecord, Optional[ContextEntry]]:
    """Run one assessment of profile, a questionnaire dict or a
    Questionnaire from check_profile, which a sweep builds once per profile
    and hands to every cell. Returns the run record and, when the run
    completed, the final report entry. Before any stage executes or any
    file is written, raises ProfileInvalid for an invalid questionnaire
    and ValueError for an unknown mode; before any stage executes,
    RiskforgeError if the run's directory under out_dir already exists. A
    RiskforgeError raised while a role runs lands in the record as
    failed_stage and failure_kind, an internal_error also as a
    RuntimeWarning; any other exception propagates."""
    plan = PLANS.get(mode)
    if plan is None:
        raise ValueError(f"unknown mode {mode!r}")
    questionnaire = check_profile(profile, contracts)

    run_id = _new_run_id()
    run_dir = None
    if out_dir is not None:
        run_dir = Path(out_dir) / run_id
        try:  # exclusive, so no two runs share a session log or reports
            run_dir.mkdir(parents=True)
        except FileExistsError:
            raise RiskforgeError(f"run directory {run_dir} already exists") from None
    store = ContextStore(log_path=run_dir / "session.jsonl" if run_dir else None)

    record = RunRecord(
        run_id=run_id,
        profile_id=questionnaire.profile["profile_id"],
        model_id=config.model_id,
        mode=mode,
        seed=config.seed,
        completed=False,
    )

    start = time.perf_counter()
    failure = _run_stages(plan, questionnaire.text, corpus, config, gateway, contracts,
                          store)
    record.wall_seconds = time.perf_counter() - start
    if failure is not None:
        record.failed_stage, error = failure
        record.failure_kind = error.kind
        if error.kind == "internal_error":  # the record has no field for its message
            warnings.warn(f"{record.failed_stage}: {error}", RuntimeWarning)
        return record, None

    record.completed = True
    snapshot = store.snapshot()
    record.structural_ok, record.unique_threat_titles = _structure_check(snapshot)
    if run_dir is not None:
        _write_outputs(snapshot, corpus, record, run_dir)
    return record, snapshot["report"]


def _run_stages(plan, questionnaire: str, corpus: Corpus, config: ModelConfig,
                gateway, contracts: ContractSet,
                store: ContextStore) -> Optional[tuple[str, RiskforgeError]]:
    """Run the plan's stages in order. Returns None when all complete, else
    the first failure in stage order as (role, error). Every role of a
    stage runs; an error that is no RiskforgeError is raised once the stage
    is over, ahead of any RiskforgeError."""
    # A gateway that does not say is assumed to wait on I/O.
    threaded = getattr(gateway, "waits_on_io", True)
    for stage in plan:
        snapshot = store.snapshot()
        prompts = {}
        for role in stage:
            prompt = contracts.build_prompt(role, snapshot, corpus, questionnaire)
            decision = enforce_budget(snapshot, role, config, estimate_tokens(prompt))
            if not decision.ok:
                return role, ContextOverflow(decision)
            prompts[role] = prompt

        def run(role: str) -> Optional[Exception]:
            try:
                contracts.run_agent(role, prompts[role], store, gateway, config)
            except Exception as exc:  # returned, so the stage's other roles still run
                return exc
            return None

        if threaded and len(stage) > 1:
            executor = sys.modules[__name__].ThreadPoolExecutor  # through __getattr__
            with executor(max_workers=len(stage)) as pool:
                errors = list(pool.map(run, prompts))
        else:
            errors = [run(role) for role in prompts]
        failures = [(role, exc) for role, exc in zip(prompts, errors) if exc is not None]
        for _, exc in failures:
            if not isinstance(exc, RiskforgeError):
                raise exc
        if failures:
            return failures[0]
    return None


def _structure_check(snapshot: dict[str, ContextEntry]) -> tuple[bool, list[str]]:
    """Structural stability, each output array within its
    ITEM_BOUNDS["cross_sector"] bounds, plus the deduplicated threat titles.
    A single-agent run's report entry holds all three arrays."""
    bounds = ITEM_BOUNDS["cross_sector"]
    arrays = {name: entry.payload[name] for entry in snapshot.values()
              for name in bounds if name in entry.payload}
    structural_ok = all(low <= len(arrays[name]) <= high
                        for name, (low, high) in bounds.items())
    return structural_ok, _dedupe_titles([t["title"] for t in arrays["threats"]])


def _write_outputs(snapshot: dict[str, ContextEntry], corpus: Corpus,
                   record: RunRecord, run_dir: Path) -> None:
    """Write report.json, the report document as one canonical_json line,
    and for a multi-agent run report.md, rendered from that document. A
    single-agent run's document is its report entry's payload, whose
    canonical text the session log already holds, so it is not serialized
    again. Each file is whole or absent (_replace_with)."""
    if record.mode == "single_agent":
        text = snapshot["report"].canonical_text
    else:
        from . import report as report_mod  # loaded by the first report rendered
        doc = report_mod.report_document(snapshot, corpus, record)
        _replace_with(run_dir / "report.md", report_mod.render_report(doc))
        text = canonical_json(doc)
    _replace_with(run_dir / "report.json", text + "\n")


def _replace_with(path: Path, text: str) -> None:
    """Write text to a temporary name beside path, then rename it onto path,
    so a process killed mid-write leaves path whole or absent. No fsync:
    after a power loss the file may still be torn."""
    temporary = path.with_name(f".{path.name}.tmp")
    temporary.write_text(text, encoding="utf-8")
    os.replace(temporary, path)
