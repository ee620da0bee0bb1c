"""Gateways: deterministic stub selection, window checks, HTTP wire format."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from riskforge.errors import (ContextOverflow, NoScriptForRole, ProviderError,
                              ProviderUnreachable)
from riskforge.gateway import (RETRY_MARKER, CompletionRequest, HttpGateway,
                               ModelConfig, StubGateway)
from riskforge.tokens import prompt_hash


def write_script(tmp_path, role, doc):
    (tmp_path / f"{role}.json").write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path


@pytest.fixture
def script_dir(tmp_path):
    return write_script(tmp_path, "echo", {
        "default": ["alpha", "beta", "gamma"],
        "profiles": {"health_15": ["health-only"]},
        "on_retry": ["retried"],
    })


def cfg(**kw):
    base = dict(model_id="m", context_window_tokens=131072, seed=0)
    base.update(kw)
    return ModelConfig(**base)


# -- model config ------------------------------------------------------------

def test_reserved_must_be_below_window():
    with pytest.raises(ValueError):
        ModelConfig(model_id="m", context_window_tokens=512,
                    reserved_output_tokens=512)


def test_request_autocomputes_prompt_tokens():
    request = CompletionRequest(role="r", prompt="x" * 400, config=cfg())
    assert request.prompt_tokens == 100


# -- stub selection ----------------------------------------------------------

def test_stub_selection_matches_hash_formula(script_dir):
    gw = StubGateway(script_dir)
    pool = ["alpha", "beta", "gamma"]
    for seed in range(5):
        for prompt in ("one prompt", "another prompt", "third"):
            expected = pool[(prompt_hash(prompt) + seed) % 3]
            assert gw.stub_complete("echo", prompt, seed) == expected


def test_stub_is_deterministic_and_stateless(script_dir):
    gw = StubGateway(script_dir)
    first = gw.stub_complete("echo", "same prompt", 1)
    for _ in range(10):
        assert gw.stub_complete("echo", "same prompt", 1) == first
    # a fresh instance gives the same answer
    assert StubGateway(script_dir).stub_complete("echo", "same prompt", 1) == first


def test_seed_walks_the_pool(script_dir):
    gw = StubGateway(script_dir)
    outputs = {gw.stub_complete("echo", "prompt", seed) for seed in (0, 1, 2)}
    assert outputs == {"alpha", "beta", "gamma"}


def test_profile_pool_selected_by_substring(script_dir):
    gw = StubGateway(script_dir)
    assert gw.stub_complete("echo", "context mentions health_15 here", 0) == "health-only"


def test_retry_marker_overrides_profile_pool(script_dir):
    gw = StubGateway(script_dir)
    prompt = f"health_15 context\n=== {RETRY_MARKER} ===\nfix it"
    assert gw.stub_complete("echo", prompt, 0) == "retried"


def test_dict_candidates_serialized_as_json(tmp_path):
    gw = StubGateway(write_script(tmp_path, "obj", {"default": [{"a": 1}]}))
    assert json.loads(gw.stub_complete("obj", "p", 0)) == {"a": 1}


def test_missing_script_and_empty_pool(tmp_path):
    gw = StubGateway(tmp_path)
    with pytest.raises(NoScriptForRole):
        gw.stub_complete("absent", "p", 0)
    gw2 = StubGateway(write_script(tmp_path, "empty", {"default": []}))
    with pytest.raises(NoScriptForRole):
        gw2.stub_complete("empty", "p", 0)


def test_complete_checks_window_before_provider(script_dir):
    gw = StubGateway(script_dir)
    config = cfg(context_window_tokens=4096, reserved_output_tokens=512)
    # 4000 prompt tokens + 512 reserved > 4096 window
    request = CompletionRequest(role="echo", prompt="x" * 16000, config=config)
    assert request.prompt_tokens == 4000
    with pytest.raises(ContextOverflow) as exc:
        gw.complete(request)
    assert exc.value.prompt_tokens == 4000
    assert exc.value.context_window_tokens == 4096


def test_stub_probe_window_passthrough(script_dir):
    gw = StubGateway(script_dir)
    assert gw.probe_window(cfg(context_window_tokens=8192)) == 8192


def test_stub_result_metadata(script_dir):
    gw = StubGateway(script_dir)
    result = gw.complete(CompletionRequest(role="echo", prompt="p", config=cfg()))
    assert result.provider == "stub"
    assert result.truncated is False
    assert result.latency_seconds >= 0


def test_waits_on_io_follows_the_provider(script_dir):
    assert StubGateway(script_dir).waits_on_io is False
    assert StubGateway(script_dir, sleep_seconds=0.5).waits_on_io is True
    assert HttpGateway("http://127.0.0.1:9").waits_on_io is True


# -- HTTP gateway ------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    captured = []
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        _Handler.captured.append((self.path, body))
        if _Handler.status != 200:
            self.send_response(_Handler.status)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        if self.path == "/api/generate":
            payload = {"response": "generated text"}
        else:
            payload = {"context_window": 2048}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    _Handler.captured = []
    _Handler.status = 200
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()
    server.server_close()


def test_http_generate_wire_format(http_server):
    gw = HttpGateway(http_server)
    config = cfg(seed=7, temperature=0.2, context_window_tokens=4096,
                 reserved_output_tokens=1024)
    result = gw.complete(CompletionRequest(role="r", prompt="hello", config=config))
    assert result.text == "generated text"
    assert result.provider == "http"
    path, body = _Handler.captured[-1]
    assert path == "/api/generate"
    assert body == {
        "model": "m",
        "prompt": "hello",
        "options": {"num_ctx": 4096, "temperature": 0.2, "seed": 7},
        "stream": False,
    }


def test_http_probe_window(http_server):
    gw = HttpGateway(http_server)
    assert gw.probe_window(cfg()) == 2048
    path, body = _Handler.captured[-1]
    assert path == "/api/show"
    assert body == {"model": "m"}


def test_http_non_success_raises_provider_error(http_server):
    _Handler.status = 500
    gw = HttpGateway(http_server)
    with pytest.raises(ProviderError) as exc:
        gw.complete(CompletionRequest(role="r", prompt="p", config=cfg()))
    assert exc.value.status == 500


def test_http_unreachable_after_retries():
    gw = HttpGateway("http://127.0.0.1:1", timeout=0.2, retries=1,
                     backoff_seconds=0.0)
    with pytest.raises(ProviderUnreachable):
        gw.complete(CompletionRequest(role="r", prompt="p", config=cfg()))


def test_http_window_check_precedes_network():
    # An unreachable server is never contacted when the prompt cannot fit.
    gw = HttpGateway("http://127.0.0.1:1", timeout=0.2, retries=0)
    config = cfg(context_window_tokens=4096, reserved_output_tokens=1024)
    with pytest.raises(ContextOverflow):
        gw.complete(CompletionRequest(role="r", prompt="x" * 16000, config=config))
