"""The benchmark's tracer wraps riskforge names by attribute; they must exist.

perfbench/spans.py replaces each public function or method it lists, and
orchestrator.ThreadPoolExecutor, with a traced stand-in. A rename or an
import that moves one of them away breaks the traced benchmark run, so
this installs the tracer against the current code, runs one threaded
pipeline under it and restores the originals. The benchmark file is
only read, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

from riskforge import orchestrator
from riskforge.contracts import DATA_DIR
from riskforge.gateway import ModelConfig, StubGateway

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(spans, health_profile, case_contracts, corpus):
    executor = orchestrator.ThreadPoolExecutor
    pipeline = orchestrator.execute_pipeline
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert orchestrator.ThreadPoolExecutor is not executor
        gateway = StubGateway(DATA_DIR / "stub" / "specific", sleep_seconds=0.001)
        config = ModelConfig(model_id="stub-model", context_window_tokens=131072, seed=0)
        record, _ = orchestrator.execute_pipeline(health_profile, config, "multi_agent",
                                                  gateway, corpus, case_contracts)
    finally:
        restore()
    assert record.completed
    names = {span[0] for span in tracer.spans}
    assert {"orchestrator.execute_pipeline", "orchestrator.enforce_budget",
            "orchestrator.parallel_stage", "contracts.run_agent",
            "context_store.snapshot"} <= names
    assert orchestrator.ThreadPoolExecutor is executor
    assert orchestrator.execute_pipeline is pipeline
