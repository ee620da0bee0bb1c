"""Evaluation kit: agreement, coverage, stability, variability, latency.

compute_metrics derives every metric in one call. Stability, variability
and latency read one selection of the run ledger in one pass; variability
lists only the profile/model cells that have a completed run.

Risk matching between system output and practitioner annotations was a
human judgment in the original study, so it is encoded here as explicit
alias data: a pair (a, b) declares two titles equivalent after
normalization. That keeps the case-study metrics of a stub run exactly
reproducible without any semantic matching. Ratios are computed with
exact rational arithmetic and only rounded for display; an undefined
ratio renders as n/a, never as 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

from .errors import RiskforgeError
from .gateway import ModelConfig, StubGateway
from .grounding import normalize_title
from .orchestrator import (Questionnaire, RunRecord, check_profile, execute_pipeline,
                           load_ledger, record_run)
from .records import decode, load_records, mend_tail

if TYPE_CHECKING:  # annotations only: neither loads at CLI start-up
    from fractions import Fraction

    from .risk_model import RiskItem


# the labels SeverityScore.label gives, the only ones an annotation may use
SEVERITY_LABELS = ("Low", "Medium", "High")


@dataclass(frozen=True)
class PractitionerAnnotation:
    """One assessor's severity label for one risk title."""

    assessor_id: str
    risk_title: str
    severity: str  # Low | Medium | High

    def __post_init__(self):
        # compared with SeverityScore.label, so any other spelling never matches
        if self.severity not in SEVERITY_LABELS:
            raise ValueError(f"severity must be one of {', '.join(SEVERITY_LABELS)}, "
                             f"not {self.severity!r}")


def load_annotations(path: Path) -> list[PractitionerAnnotation]:
    """One annotation per line of a JSON Lines file. A line that is no
    annotation raises RiskforgeError naming path:line, and so does a
    second annotation by one assessor of one title, naming path."""
    annotations = load_records(path, PractitionerAnnotation)
    seen = set()
    for ann in annotations:
        key = (ann.assessor_id, normalize_title(ann.risk_title))
        if key in seen:
            raise RiskforgeError(f"{path}: duplicate annotation for {key}")
        seen.add(key)
    return annotations


class AliasMap:
    """Declared title equivalences, symmetric after normalization."""

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        self._partners: dict[str, set[str]] = {}  # normalized title -> its partners
        for a, b in pairs:
            self.add(a, b)

    def add(self, a: str, b: str) -> None:
        na, nb = normalize_title(a), normalize_title(b)
        if na != nb:
            self._partners.setdefault(na, set()).add(nb)
            self._partners.setdefault(nb, set()).add(na)

    def equivalent(self, a: str, b: str) -> bool:
        na, nb = normalize_title(a), normalize_title(b)
        return na == nb or nb in self._partners.get(na, ())

    def partners(self, title: str) -> set[str]:
        return set(self._partners.get(normalize_title(title), ()))

    def check_unambiguous(self, system_titles: Iterable[str]) -> None:
        """No practitioner title may alias-match two distinct system titles;
        the first such title in sorted order is named."""
        system_norms = {normalize_title(t) for t in system_titles}
        for cand in sorted(self._partners.keys() - system_norms):
            hits = self._partners[cand] & system_norms
            if len(hits) > 1:
                raise RiskforgeError(
                    f"title {cand!r} aliases to multiple system risks: {sorted(hits)}")


@dataclass
class RatioStat:
    """A count of matches out of a total, kept exact."""

    matched: int
    total: int

    @property
    def ratio(self) -> Optional[Fraction]:
        if self.total == 0:
            return None
        from fractions import Fraction
        return Fraction(self.matched, self.total)

    def display(self) -> str:
        if self.ratio is None:
            return "n/a"
        return f"{self.matched}/{self.total} ({float(self.ratio):.3f})"


def severity_agreement(system: list[RiskItem],
                       annotations: list[PractitionerAnnotation],
                       aliases: AliasMap) -> RatioStat:
    """For every (system risk, assessor) pair where the assessor annotated
    an alias-matched title, count exact severity-label matches."""
    aliases.check_unambiguous([r.title for r in system])
    matched = 0
    total = 0
    assessors = sorted({a.assessor_id for a in annotations})
    for risk in system:
        label = risk.severity.label
        for assessor in assessors:
            hits = [a for a in annotations
                    if a.assessor_id == assessor
                    and aliases.equivalent(a.risk_title, risk.title)]
            if not hits:
                continue
            total += 1
            if any(a.severity == label for a in hits):
                matched += 1
    return RatioStat(matched=matched, total=total)


def coverage(system: list[RiskItem],
             annotations: list[PractitionerAnnotation],
             aliases: AliasMap) -> RatioStat:
    """Pool distinct practitioner titles, collapse practitioner-side
    aliases, and count how many pooled items the system also caught."""
    aliases.check_unambiguous([r.title for r in system])
    system_norms = {normalize_title(r.title) for r in system}
    pooled = list(dict.fromkeys(normalize_title(a.risk_title) for a in annotations))

    # Union-find over pooled titles; only practitioner-to-practitioner alias
    # pairs merge pool classes (a variant paired with a system title stays
    # its own pooled item, it just counts as matched).
    parent = {t: t for t in pooled}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for a in pooled:
        for b in aliases.partners(a):
            if b in parent and a not in system_norms and b not in system_norms:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra

    classes: dict[str, list[str]] = {}
    for title in pooled:
        classes.setdefault(find(title), []).append(title)

    matched = 0
    for members in classes.values():
        if any(member in system_norms
               or any(p in system_norms for p in aliases.partners(member))
               for member in members):
            matched += 1
    return RatioStat(matched=matched, total=len(classes))


@dataclass(frozen=True)
class LatencyStats:
    """Wall-clock mean, minimum and maximum over a selection of runs."""

    mean_s: float
    min_s: float
    max_s: float
    runs: int


@dataclass
class MetricsReport:
    """Every metric compute_metrics derives; None where there was nothing to measure."""

    agreement: Optional[RatioStat] = None
    coverage: Optional[RatioStat] = None
    stability: Optional[Fraction] = None
    variability: dict = field(default_factory=dict)
    latency: Optional[LatencyStats] = None

    def to_json(self) -> dict:
        def ratio_doc(stat: Optional[RatioStat]):
            if stat is None:
                return None
            return {"matched": stat.matched, "total": stat.total,
                    "ratio": None if stat.ratio is None else round(float(stat.ratio), 6)}

        return {
            "agreement": ratio_doc(self.agreement),
            "coverage": ratio_doc(self.coverage),
            "stability": None if self.stability is None else round(float(self.stability), 6),
            "variability": self.variability,
            "latency": None if self.latency is None else {
                "mean_s": round(self.latency.mean_s, 3),
                "min_s": round(self.latency.min_s, 3),
                "max_s": round(self.latency.max_s, 3),
                "runs": self.latency.runs,
            },
        }

    def render_table(self) -> str:
        lines = ["metric        value", "------        -----",
                 "agreement     " + (self.agreement.display() if self.agreement else "n/a"),
                 "coverage      " + (self.coverage.display() if self.coverage else "n/a"),
                 "stability     " + ("n/a" if self.stability is None
                                     else f"{float(self.stability):.3f}")]
        for key in sorted(self.variability):
            lines.append(f"variability   {key}: {self.variability[key]} unique titles")
        if self.latency is not None:
            lines.append(f"latency       mean {self.latency.mean_s * 1000:.1f}ms "
                         f"min {self.latency.min_s * 1000:.1f}ms "
                         f"max {self.latency.max_s * 1000:.1f}ms "
                         f"over {self.latency.runs} runs")
        return "\n".join(lines)


# A selector key (eval --select key=value) and the RunRecord field it matches.
SELECTOR_FIELDS = {"model": "model_id", "mode": "mode", "profile": "profile_id"}


def compute_metrics(records: Optional[list[RunRecord]] = None,
                    system: Optional[list[RiskItem]] = None,
                    annotations: Optional[list[PractitionerAnnotation]] = None,
                    aliases: Optional[AliasMap] = None,
                    selector: Optional[dict] = None) -> MetricsReport:
    """Agreement and coverage from system and annotations; over the records
    that match every selector key, in one pass, stability (a run that did
    not complete counts as a failure), variability per profile/model cell
    with a completed run, and latency. A selector that picks none warns.
    Raises RiskforgeError for a key outside SELECTOR_FIELDS."""
    wanted = []
    for key, value in (selector or {}).items():
        if key not in SELECTOR_FIELDS:
            raise RiskforgeError(f"unknown selector key {key!r}")
        wanted.append((SELECTOR_FIELDS[key], value))
    report = MetricsReport()
    if system is not None and annotations is not None:
        amap = aliases or AliasMap()
        report.agreement = severity_agreement(system, annotations, amap)
        report.coverage = coverage(system, annotations, amap)
    selected = [r for r in records or ()
                if all(getattr(r, name) == value for name, value in wanted)]
    if not selected:
        if records:  # most likely a misspelled value
            import warnings
            parts = [f"--select picks none of the {len(records)} runs"]
            for key, value in selector.items():
                held = sorted({getattr(r, SELECTOR_FIELDS[key]) for r in records})
                if value not in held:
                    parts.append(f"no run has {key} {value!r} (the runs have "
                                 f"{', '.join(held)})")
            warnings.warn("; ".join(parts), RuntimeWarning)
        return report
    stable = 0
    walls = []
    titles: dict[tuple[str, str], set[str]] = {}
    for record in selected:
        walls.append(record.wall_seconds)
        if record.completed:
            stable += record.structural_ok
            titles.setdefault((record.profile_id, record.model_id), set()).update(
                normalize_title(t) for t in record.unique_threat_titles)
    from fractions import Fraction
    report.stability = Fraction(stable, len(selected))
    report.variability = {f"{profile}/{model}": len(cell)
                          for (profile, model), cell in sorted(titles.items())}
    report.latency = LatencyStats(mean_s=sum(walls) / len(walls), min_s=min(walls),
                                  max_s=max(walls), runs=len(walls))
    return report


@dataclass(frozen=True)
class ModelSpec:
    """One ablation column, an ablate --models entry: a label, the stub
    script to run and the context window, whose JSON key is window."""

    label: str
    script: str  # stub script name, e.g. "specific" or "generic"
    context_window_tokens: int = field(default=ModelConfig.context_window_tokens,
                                       metadata={"key": "window"})

    def __post_init__(self):
        # raises ValueError for a window the reserved output tokens fill
        ModelConfig(model_id=self.label, context_window_tokens=self.context_window_tokens)


def read_models(doc: Any) -> list[ModelSpec]:
    """The ModelSpecs of an ablate --models document; an error names the
    file's key, as in "[0].window must be int, not str"."""
    return decode(list[ModelSpec], doc)


def run_ablation(profiles: list[Union[dict, Questionnaire]], models: list[ModelSpec],
                 runs_per_cell: int, mode: str, ledger_path: Path, contracts, corpus,
                 stub_root: Path, workers: int = 1) -> int:
    """Execute profiles x models x seeds, appending RunRecords to the
    ledger. Each profile, a questionnaire dict or a Questionnaire, is
    checked and serialized once, by check_profile, and every cell of it
    runs the resulting Questionnaire through execute_pipeline. Cells
    already present for this mode are skipped, so reruns resume; an invalid
    profile raises ProfileInvalid, and a repeated profile_id or model label
    RiskforgeError, before any cell. A torn last ledger line, left by a
    killed writer, is cut off with a warning before the first append
    (records.mend_tail), and its cell runs again. Window and schema mode
    are not on the record and so not in the resume key."""
    questionnaires = [check_profile(profile, contracts) for profile in profiles]
    for what, names in (("profile_id", [q.profile["profile_id"] for q in questionnaires]),
                        ("model label", [spec.label for spec in models])):
        for index, name in enumerate(names):
            if name in names[:index]:
                raise RiskforgeError(f"{what} {name!r} repeated: its runs would share one cell")
    ledger_path = Path(ledger_path)
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    done = set()
    if ledger_path.exists():
        mend_tail(ledger_path)
        for record in load_ledger(ledger_path):
            done.add((record.profile_id, record.model_id, record.seed, record.mode))

    cells = []
    for questionnaire in questionnaires:
        profile_id = questionnaire.profile["profile_id"]
        for spec in models:
            for seed in range(runs_per_cell):
                if (profile_id, spec.label, seed, mode) not in done:
                    cells.append((questionnaire, spec, seed))

    # One gateway per spec, so each script a spec uses is parsed once per
    # sweep (a script shared by every set once per spec). Worker threads
    # loading the same script at once may each parse it; either copy
    # serves, since the stub only reads it.
    gateways = {spec: StubGateway(Path(stub_root) / spec.script) for spec in models}

    def run_cell(cell):
        questionnaire, spec, seed = cell
        gateway = gateways[spec]
        config = ModelConfig(model_id=spec.label,
                             context_window_tokens=spec.context_window_tokens,
                             seed=seed)
        record, _ = execute_pipeline(questionnaire, config, mode, gateway, corpus,
                                     contracts)
        record_run(record, ledger_path)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_cell, cells))
    else:
        for cell in cells:
            run_cell(cell)
    return len(cells)
