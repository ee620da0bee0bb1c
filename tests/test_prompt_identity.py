"""Prompt byte-identity: every prompt the pipeline sends, pinned by digest.

The stub gateway selects its response by sha256(prompt), so prompt text is
part of the contract: a prompt that changes by one byte moves every
fixture downstream of it. ``tests/data/prompt_digests.json`` holds the
sha256 of every ``CompletionRequest.prompt`` in call order per role, for

- multi-agent runs of the 5 bundled profiles x stub seeds 0-2 at window
  131072 (the ``assess`` defaults: specific script, case_study schemas);
- every cell of the bundled sweep (5 profiles x 2 models x 3 seeds,
  window 4096, cross_sector schemas) in single-agent and in multi-agent
  mode (the latter overflows at risk_scoring after three stages).

Re-record only when prompts are meant to change:

    PYTHONPATH=src python tests/test_prompt_identity.py
"""

import hashlib
import json
import threading
from collections import defaultdict
from pathlib import Path

from riskforge.contracts import DATA_DIR, ROLES, ContractSet
from riskforge.gateway import ModelConfig, StubGateway
from riskforge.grounding import Corpus
from riskforge.orchestrator import execute_pipeline

FIXTURE = Path(__file__).parent / "data" / "prompt_digests.json"
STUB = DATA_DIR / "stub"


class DigestGateway(StubGateway):
    """Stub that records sha256(prompt) per role, in call order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.digests = defaultdict(list)
        self._lock = threading.Lock()

    def complete(self, request):
        digest = hashlib.sha256(request.prompt.encode("utf-8")).hexdigest()
        with self._lock:
            self.digests[request.role].append(digest)
        return super().complete(request)


def _profiles() -> dict:
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((DATA_DIR / "profiles").glob("*.json"))}


def _run(profile, mode, script, window, seed, contracts, corpus, model="stub-model"):
    gateway = DigestGateway(STUB / script)
    config = ModelConfig(model_id=model, context_window_tokens=window, seed=seed)
    execute_pipeline(profile, config, mode, gateway, corpus, contracts)
    return dict(sorted(gateway.digests.items()))


def record_digests() -> dict:
    corpus = Corpus.ingest(DATA_DIR / "corpus" / "mini_csf.jsonl")
    profiles = _profiles()
    specs = json.loads((DATA_DIR / "ablation_models.json").read_text(encoding="utf-8"))
    doc = {"assess_multi": {}, "sweep_single_agent": {}, "sweep_multi_agent": {}}
    case_study = ContractSet(schema_mode="case_study")
    for pid, profile in profiles.items():
        for seed in range(3):
            doc["assess_multi"][f"{pid}/{seed}"] = _run(
                profile, "multi_agent", "specific", 131072, seed, case_study, corpus)
    cross_sector = ContractSet(schema_mode="cross_sector")
    for mode in ("single_agent", "multi_agent"):
        for pid, profile in profiles.items():
            for spec in specs:
                for seed in range(3):
                    doc[f"sweep_{mode}"][f"{pid}/{spec['label']}/{seed}"] = _run(
                        profile, mode, spec["script"], spec.get("window", 4096), seed,
                        cross_sector, corpus, model=spec["label"])
    return doc


def test_prompts_are_byte_identical():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = record_digests()
    assert got.keys() == expected.keys()
    for group in expected:
        assert got[group] == expected[group], group


def test_multi_agent_run_builds_each_prompt_once(health_profile, corpus, monkeypatch):
    calls = defaultdict(list)

    def counting(name):
        original = getattr(ContractSet, name)

        def wrapper(self, role, *args, **kwargs):
            calls[name].append(role)
            return original(self, role, *args, **kwargs)
        return wrapper

    for name in ("assemble_prompt", "gather_grounding"):
        monkeypatch.setattr(ContractSet, name, counting(name))
    record, _ = execute_pipeline(
        health_profile, ModelConfig(model_id="stub-model", context_window_tokens=131072,
                                    seed=0),
        "multi_agent", StubGateway(STUB / "specific"), corpus,
        ContractSet(schema_mode="case_study"))
    assert record.completed
    for name in ("assemble_prompt", "gather_grounding"):
        assert sorted(calls[name]) == sorted(ROLES), name


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
