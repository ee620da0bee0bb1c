import json
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import riskforge
from riskforge.contracts import DATA_DIR, ContractSet
from riskforge.evalkit import read_models
from riskforge.gateway import ModelConfig, StubGateway
from riskforge.grounding import Corpus
from riskforge.orchestrator import execute_pipeline

PROFILE_IDS = ["health_15", "fintech_30", "mfg_40", "retail_20", "saas_25"]


@pytest.fixture(scope="session")
def package_env():
    """The environment for a subprocess that imports this checkout's riskforge."""
    src = str(Path(riskforge.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def corpus():
    return Corpus.ingest(DATA_DIR / "corpus" / "mini_csf.jsonl")


@pytest.fixture(scope="session")
def profiles():
    out = {}
    for pid in PROFILE_IDS:
        out[pid] = json.loads(
            (DATA_DIR / "profiles" / f"{pid}.json").read_text(encoding="utf-8"))
    return out


@pytest.fixture
def health_profile(profiles):
    return profiles["health_15"]


@pytest.fixture
def case_contracts():
    return ContractSet(schema_mode="case_study")


@pytest.fixture
def cross_contracts():
    return ContractSet(schema_mode="cross_sector")


@pytest.fixture
def specific_gateway():
    return StubGateway(DATA_DIR / "stub" / "specific")


@pytest.fixture
def generic_gateway():
    return StubGateway(DATA_DIR / "stub" / "generic")


@pytest.fixture(scope="session")
def model_specs():
    """The bundled ablation models, read as ablate --models reads them."""
    return read_models(json.loads(
        (DATA_DIR / "ablation_models.json").read_text(encoding="utf-8")))


@pytest.fixture(scope="session")
def case_study_run(profiles, corpus, tmp_path_factory):
    """The directory of one case-study run, as assess --profile health_15.json
    --out writes it: multi-agent, case_study schema mode, the specific stub
    script, seed 0. Its report.json is the register the case-study metrics
    score; its session.jsonl holds the risk_register stage's own order."""
    out = tmp_path_factory.mktemp("case_study")
    record, _ = execute_pipeline(
        profiles["health_15"],
        ModelConfig(model_id="stub-model", context_window_tokens=131072, seed=0),
        "multi_agent", StubGateway(DATA_DIR / "stub" / "specific"), corpus,
        ContractSet(schema_mode="case_study"), out_dir=out)
    assert record.completed
    return out / record.run_id


class ModelHandler(BaseHTTPRequestHandler):
    """Answers /api/generate in the shape of Ollama's non-streaming reply."""

    captured = []
    status = 200
    done_reason = "stop"
    reply = None  # bytes sent as a 200 reply's body in place of the generated one

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        ModelHandler.captured.append((self.path, body))
        if ModelHandler.status != 200:
            self.send_response(ModelHandler.status)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        if ModelHandler.reply is not None:
            self.send_response(200)
            self.end_headers()
            self.wfile.write(ModelHandler.reply)
            return
        payload = {"response": "generated text", "done": True,
                   "done_reason": ModelHandler.done_reason}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    ModelHandler.captured = []
    ModelHandler.status = 200
    ModelHandler.done_reason = "stop"
    ModelHandler.reply = None
    server = HTTPServer(("127.0.0.1", 0), ModelHandler)
    # shutdown() waits for the next poll, so poll often
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()
    server.server_close()
