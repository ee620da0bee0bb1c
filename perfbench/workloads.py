"""The three benchmark workloads: set-up, one operation, and its output check.

Each workload is a closed loop with one client in one process, as the CLI
runs. Everything uses the stub provider and the bundled data, so no run
needs the network. Calls into riskforge go through module attributes
(``orchestrator.execute_pipeline``, not a name bound at import), so the
span wrappers in ``spans.py`` see every call the benchmark makes.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from riskforge import evalkit, grounding, orchestrator
from riskforge.contracts import DATA_DIR, ContractSet
from riskforge.gateway import ModelConfig, StubGateway

import reference

PROFILES_DIR = DATA_DIR / "profiles"
CORPUS_PATH = DATA_DIR / "corpus" / "mini_csf.jsonl"
STUB_ROOT = DATA_DIR / "stub"
MODELS_PATH = DATA_DIR / "ablation_models.json"

ASSESS_WINDOW = 131072  # the CLI's default --window
ASSESS_MODEL = "stub-model"  # the CLI's default --model
STUB_SEEDS = (0, 1, 2)
SWEEP_RUNS_PER_CELL = 3


@dataclass
class Outcome:
    """What one operation produced, for the reference check."""

    runs: int  # pipeline runs finished (cells, for a sweep)
    key: str  # which reference entry applies
    digests: dict = field(default_factory=dict)
    log_bytes: int = 0
    artifact_bytes: int = 0


def _profile_paths() -> list[Path]:
    return sorted(PROFILES_DIR.glob("*.json"))


class AssessMulti:
    """One ``riskforge assess --mode multi --out DIR`` after interpreter
    start, cycling 5 profiles x stub seeds 0-2 in a seed-shuffled order."""

    name = "assess_multi"

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.cases = []
        for path in _profile_paths():
            profile_id = json.loads(path.read_text(encoding="utf-8"))["profile_id"]
            for stub_seed in STUB_SEEDS:
                self.cases.append((path, profile_id, stub_seed))
        random.Random(seed).shuffle(self.cases)

    def warmup_count(self) -> int:
        return len(self.cases)

    def prepare(self, i: int):
        out_dir = self.work / "assess"
        shutil.rmtree(out_dir, ignore_errors=True)
        return (*self.cases[i % len(self.cases)], out_dir)

    def op(self, case) -> None:
        profile_path, _, stub_seed, out_dir = case
        profile = json.loads(profile_path.read_text(encoding="utf-8"))
        corpus = grounding.Corpus.ingest(CORPUS_PATH)
        contracts = ContractSet(schema_mode="case_study")
        gateway = StubGateway(STUB_ROOT / "specific")
        config = ModelConfig(model_id=ASSESS_MODEL, context_window_tokens=ASSESS_WINDOW,
                             seed=stub_seed)
        record, _ = orchestrator.execute_pipeline(
            profile, config, "multi_agent", gateway, corpus, contracts, out_dir=out_dir)
        orchestrator.record_run(record, out_dir / "ledger.jsonl")

    def outcome(self, case, result) -> Outcome:
        _, profile_id, stub_seed, out_dir = case
        digests, sizes = reference.assess_digests(out_dir)
        return Outcome(runs=1, key=f"{profile_id}/{stub_seed}", digests=digests,
                       log_bytes=sizes["session.jsonl"],
                       artifact_bytes=sizes["report.md"] + sizes["report.json"])


class Sweep:
    """The bundled default ablation sweep (5 profiles x 2 models x 3 seeds,
    window 4096, one worker) into a fresh ledger, then compute_metrics on
    that ledger. The seed sets the order of profiles and models."""

    def __init__(self, name: str, mode: str, seed: int, work: Path):
        self.name = name
        self.mode = mode
        self.work = work
        self.corpus = grounding.Corpus.ingest(CORPUS_PATH)
        self.profiles = [json.loads(p.read_text(encoding="utf-8"))
                         for p in _profile_paths()]
        self.specs = [evalkit.ModelSpec(label=doc["label"], script=doc["script"],
                                        context_window_tokens=doc.get("window", 4096))
                      for doc in json.loads(MODELS_PATH.read_text(encoding="utf-8"))]
        rng = random.Random(seed)
        rng.shuffle(self.profiles)
        rng.shuffle(self.specs)

    def warmup_count(self) -> int:
        return 2

    def prepare(self, i: int):
        ledger = self.work / "sweep" / "ledger.jsonl"
        ledger.parent.mkdir(parents=True, exist_ok=True)
        ledger.unlink(missing_ok=True)
        return ledger

    def op(self, ledger: Path):
        contracts = ContractSet(schema_mode="cross_sector")
        evalkit.run_ablation(self.profiles, self.specs, SWEEP_RUNS_PER_CELL, self.mode,
                             ledger, contracts, self.corpus, STUB_ROOT, workers=1)
        records = orchestrator.load_ledger(ledger)
        return records, evalkit.compute_metrics(records=records)

    def outcome(self, ledger: Path, result) -> Outcome:
        records, metrics = result
        return Outcome(runs=len(records), key="sweep",
                       digests=reference.sweep_digests(records, metrics))


def make(name: str, seed: int, work: Path):
    """Set up the named workload: everything before its first operation."""
    if name == "assess_multi":
        return AssessMulti(seed, work)
    if name == "ablate_single":
        return Sweep(name, "single_agent", seed, work)
    if name == "ablate_multi_overflow":
        return Sweep(name, "multi_agent", seed, work)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("assess_multi", "ablate_single", "ablate_multi_overflow")
