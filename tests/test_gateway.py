"""Gateways: deterministic stub selection, model config, HTTP wire format."""

import json
import re
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from riskforge import gateway
from riskforge.contracts import DATA_DIR, SINGLE_AGENT_ROLE, STAGES
from riskforge.errors import ProviderError, RiskforgeError
from riskforge.gateway import (RETRY_MARKER, CompletionRequest, HttpGateway,
                               ModelConfig, StubGateway)
from riskforge.orchestrator import execute_pipeline
from riskforge.tokens import prompt_hash

from conftest import ModelHandler


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
        ModelConfig(model_id="m", context_window_tokens=1024)


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
    with pytest.raises(RiskforgeError, match=re.escape(
            f"no stub script for role 'absent' in {tmp_path} or {tmp_path.parent}") + "$"):
        gw.stub_complete("absent", "p", 0)
    gw2 = StubGateway(write_script(tmp_path, "empty", {"default": []}))
    with pytest.raises(RiskforgeError, match=r"^empty response pool for role 'empty'$"):
        gw2.stub_complete("empty", "p", 0)


def test_unmatched_profile_names_role_script_and_profiles(tmp_path):
    """A questionnaire whose profile id no pool is keyed by, in a script
    with no default pool, fails naming the role, the file and the ids."""
    write_script(tmp_path, "single_agent", {"profiles": {"health_15": ["h"],
                                                         "saas_25": ["s"]}})
    gw = StubGateway(tmp_path)
    assert gw.stub_complete("single_agent", "profile saas_25", 0) == "s"
    with pytest.raises(RiskforgeError, match=re.escape(
            f"stub script {tmp_path / 'single_agent.json'} for role 'single_agent' has no "
            f"'default' pool and no profile matched (profiles: health_15, saas_25)") + "$"):
        gw.stub_complete("single_agent", '{"profile_id":"clinic_9"}', 0)


def test_script_set_falls_back_to_the_shared_scripts(tmp_path):
    script_set = tmp_path / "set"
    script_set.mkdir()
    write_script(tmp_path, "shared", {"default": ["from parent"]})
    write_script(tmp_path, "own", {"default": ["from parent"]})
    write_script(script_set, "own", {"default": ["from set"]})
    gw = StubGateway(script_set)
    assert gw.stub_complete("shared", "p", 0) == "from parent"
    assert gw.stub_complete("own", "p", 0) == "from set"


def test_bundled_script_sets_cover_every_role_without_copies(model_specs):
    stub_root = DATA_DIR / "stub"
    sets = {"specific"} | {spec.script for spec in model_specs}
    profile_ids = [path.stem for path in (DATA_DIR / "profiles").glob("*.json")]
    roles = [role for stage in STAGES for role in stage] + [SINGLE_AGENT_ROLE]
    for name in sorted(sets):
        gw = StubGateway(stub_root / name)
        for role in roles:
            for profile_id in profile_ids:
                assert gw.stub_complete(role, profile_id, 0)
        for path in (stub_root / name).iterdir():
            shared = stub_root / path.name
            assert not (shared.is_file() and shared.read_bytes() == path.read_bytes()), path


@pytest.fixture(scope="module")
def pick_scripts(tmp_path_factory):
    """Scripts whose pools cover each way a pick goes: a profile pool, a
    retry pool, a default, a JSON candidate, an empty pool, no pool."""
    root = tmp_path_factory.mktemp("picks")
    write_script(root, "echo", {"default": ["alpha", "beta", "gamma"],
                                "profiles": {"health_15": ["health-only"],
                                             "saas_25": [{"b": 2}, "s2"]},
                                "on_retry": ["retried"]})
    write_script(root, "no_retry", {"default": [{"a": 1}, "x"],
                                    "profiles": {"health_15": ["h"]}})
    write_script(root, "empty", {"default": [], "profiles": {"health_15": ["h"]}})
    write_script(root, "strict", {"profiles": {"health_15": ["h1", "h2"]}})
    return root


PICK_PROMPTS = ("plain", "health_15 here", "saas_25 then health_15",
                f"health_15\n=== {RETRY_MARKER} ===\nfix it", '{"profile_id":"clinic_9"}')


def _reply(gw, role, prompt, seed):
    """The stub's reply, or the message of the error it raised."""
    try:
        return "reply", gw.stub_complete(role, prompt, seed)
    except RiskforgeError as exc:
        return "error", str(exc)


@given(st.lists(st.tuples(st.sampled_from(["echo", "no_retry", "empty", "strict"]),
                          st.sampled_from(range(len(PICK_PROMPTS))), st.booleans(),
                          st.integers(0, 5)), max_size=12))
def test_a_long_lived_stub_replies_as_a_fresh_one(pick_scripts, calls):
    """The per-role last pick is invisible: each call of one long-lived
    stub returns, or raises, what a fresh stub does for that call, for a
    repeated prompt (the same str or an equal copy) or a new one."""
    gw = StubGateway(pick_scripts)
    for role, index, copy, seed in calls:
        prompt = "".join(list(PICK_PROMPTS[index])) if copy else PICK_PROMPTS[index]
        assert _reply(gw, role, prompt, seed) == _reply(StubGateway(pick_scripts), role,
                                                         prompt, seed)


def test_threads_sharing_a_stub_get_a_fresh_stubs_replies(pick_scripts):
    """The worker threads of one sweep share a stub. With more threads than
    cores and a short switch interval, every reply is a fresh stub's."""
    calls = [(role, prompt, seed) for role in ("echo", "no_retry")
             for prompt in PICK_PROMPTS[:4] for seed in range(3)]
    expected = {call: StubGateway(pick_scripts).stub_complete(*call) for call in calls}
    gw = StubGateway(pick_scripts)
    wrong = []

    def work(offset):
        for i in range(300):
            call = calls[(offset + 7 * i) % len(calls)]
            if gw.stub_complete(*call) != expected[call]:
                wrong.append(call)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_an_unscripted_retry_prompt_takes_its_profile_pool(pick_scripts):
    """A script with no on_retry pool never scans for the retry marker: a
    retry prompt picks from its profile pool as a first prompt does."""
    gw = StubGateway(pick_scripts)
    assert gw.stub_complete("no_retry", f"health_15\n=== {RETRY_MARKER} ===", 0) == "h"


def test_stub_result_metadata(script_dir):
    gw = StubGateway(script_dir)
    result = gw.complete(CompletionRequest(role="echo", prompt="p", config=cfg()))
    assert result.truncated is False
    assert result.latency_seconds >= 0


def test_waits_on_io_follows_the_provider(script_dir):
    assert StubGateway(script_dir).waits_on_io is False
    assert StubGateway(script_dir, sleep_seconds=0.5).waits_on_io is True
    assert HttpGateway("http://127.0.0.1:9").waits_on_io is True


# -- HTTP gateway ------------------------------------------------------------

def test_http_generate_wire_format(http_server):
    gw = HttpGateway(http_server)
    config = cfg(seed=7, context_window_tokens=4096)
    result = gw.complete(CompletionRequest(role="r", prompt="hello", config=config))
    assert result.text == "generated text"
    path, body = ModelHandler.captured[-1]
    assert path == "/api/generate"
    assert body == {
        "model": "m",
        "prompt": "hello",
        "options": {"num_ctx": 4096, "num_predict": 1024, "temperature": 0.2, "seed": 7},
        "stream": False,
    }


def test_http_request_sends_the_default_seed(http_server):
    """A config that leaves the seed unset runs with seed 0, and says so."""
    HttpGateway(http_server).complete(
        CompletionRequest(role="r", prompt="hello", config=ModelConfig(model_id="m")))
    assert ModelHandler.captured[-1][1]["options"]["seed"] == 0


@pytest.mark.parametrize("done_reason, truncated", [("length", True), ("stop", False)])
def test_http_truncation_follows_done_reason(http_server, done_reason, truncated):
    ModelHandler.done_reason = done_reason
    gw = HttpGateway(http_server)
    result = gw.complete(CompletionRequest(role="r", prompt="p", config=cfg()))
    assert result.truncated is truncated


def test_http_non_success_raises_provider_error(http_server):
    ModelHandler.status = 500
    gw = HttpGateway(http_server)
    with pytest.raises(ProviderError, match=r"^provider returned status 500: boom$"):
        gw.complete(CompletionRequest(role="r", prompt="p", config=cfg()))


@pytest.mark.parametrize("reply", [
    b"<html><body>502 Bad Gateway</body></html>", b"\xff\xfe{", b"[]",
    b'{"done": true}', b'{"response": 5}',
], ids=["html", "not_utf8", "array", "no_response", "response_not_a_string"])
def test_http_reply_without_a_response_string_lands_in_the_record(
        http_server, reply, health_profile, corpus, case_contracts):
    ModelHandler.reply = reply
    record, report = execute_pipeline(health_profile, cfg(), "multi_agent",
                                      HttpGateway(http_server), corpus, case_contracts)
    assert (record.completed, record.failed_stage, record.failure_kind) == (
        False, "risk_intake", "provider_error")
    assert report is None
    assert len(ModelHandler.captured) == 1


def test_http_unreachable_after_retries(monkeypatch):
    monkeypatch.setattr(gateway, "HTTP_TIMEOUT_SECONDS", 0.2)
    sleeps = []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
    gw = HttpGateway("http://127.0.0.1:1")
    with pytest.raises(ProviderError,
                       match=r"^cannot reach http://127\.0\.0\.1:1/api/generate: "):
        gw.complete(CompletionRequest(role="r", prompt="p", config=cfg()))
    assert sleeps == [gateway.HTTP_BACKOFF_SECONDS] * gateway.HTTP_RETRIES


def test_providers_leave_the_window_to_run_agent(script_dir, http_server):
    """A provider only completes: a prompt past the window is sent as is,
    since ContractSet.run_agent checks every prompt before the call."""
    request = CompletionRequest(role="echo", prompt="x" * 16000,
                                config=cfg(context_window_tokens=4096))
    assert request.prompt_tokens == 4000  # + 1024 reserved > 4096
    assert StubGateway(script_dir).complete(request).text
    assert HttpGateway(http_server).complete(request).text == "generated text"
    assert ModelHandler.captured[-1][1]["prompt"] == request.prompt
