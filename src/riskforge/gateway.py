"""Model access: HTTP client for a local model server plus a scripted stub.

A provider only completes: BudgetDecision is the one window rule, and
ContractSet.run_agent checks every prompt by it before it calls complete.
Latency brackets only the provider call itself, and the stub is a pure
function of (role, canonical prompt, seed) so runs replay
byte-identically.

A provider's waits_on_io attribute says whether its calls spend their
time waiting on I/O (with the interpreter lock released), which is when
the orchestrator runs the roles of one stage on threads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .errors import ProviderError, RiskforgeError
from .records import decode, read_json
from .tokens import estimate_tokens, prompt_hash

# Marker appended to re-prompts after a validation failure. The stub keys
# its "on_retry" response pool off this string.
RETRY_MARKER = "PREVIOUS OUTPUT FAILED VALIDATION"
# Window tokens kept free for the reply, and the sampling temperature.
RESERVED_OUTPUT_TOKENS = 1024
TEMPERATURE = 0.2
# HttpGateway's wait for a reply, and its retries of a transport failure.
HTTP_TIMEOUT_SECONDS = 300.0
HTTP_RETRIES = 2
HTTP_BACKOFF_SECONDS = 1.0


@dataclass(frozen=True)
class ModelConfig:
    """The model a run calls: its id, context window in tokens and seed."""

    model_id: str
    context_window_tokens: int = 4096
    seed: int = 0

    def __post_init__(self):
        if not RESERVED_OUTPUT_TOKENS < self.context_window_tokens:
            raise ValueError(f"reserved_output_tokens ({RESERVED_OUTPUT_TOKENS}) must "
                             f"be < context_window_tokens ({self.context_window_tokens})")


@dataclass(frozen=True)
class BudgetDecision:
    """Whether one role's prompt fits the window: the window rule. The
    largest entry, when given, names what fills a stage's context most."""

    role: str
    prompt_tokens: int
    context_window_tokens: int
    largest_entry_key: Optional[str] = None
    largest_entry_tokens: int = 0

    @property
    def deficit(self) -> int:
        """Tokens over the window, 0 when the prompt fits."""
        return max(self.prompt_tokens + RESERVED_OUTPUT_TOKENS - self.context_window_tokens, 0)

    @property
    def ok(self) -> bool:
        return self.deficit == 0

    def describe(self) -> str:
        verdict = "fits" if self.ok else f"overflows by {self.deficit}"
        detail = (f"role {self.role}: {self.prompt_tokens} prompt tokens + "
                  f"{RESERVED_OUTPUT_TOKENS} reserved vs window "
                  f"{self.context_window_tokens} ({verdict})")
        if self.largest_entry_key:
            detail += (f"; largest context entry: {self.largest_entry_key} "
                       f"({self.largest_entry_tokens} tokens)")
        return detail


@dataclass
class CompletionRequest:
    """One prompt sent to a provider for a role, with its token estimate."""

    role: str
    prompt: str
    config: ModelConfig
    prompt_tokens: int = field(init=False)

    def __post_init__(self):
        self.prompt_tokens = estimate_tokens(self.prompt)


@dataclass(frozen=True)
class CompletionResult:
    """A provider's reply: its text, latency and whether it was cut short."""

    text: str
    latency_seconds: float
    truncated: bool = False


def _stub_script(doc) -> dict:
    """doc as a stub script: an object whose "default" and "on_retry", when
    present, are arrays and whose "profiles" is an object of arrays. A
    misfit is a TypeError naming the field (records.decode)."""
    script = decode(dict, doc)
    for key in ("default", "on_retry"):
        if key in script:
            decode(list[Any], script[key], key)
    for profile_id, pool in decode(dict, script.get("profiles", {}), "profiles").items():
        decode(list[Any], pool, f"profiles.{profile_id}")
    return script


class StubGateway:
    """Deterministic scripted replacement for the model server.

    Scripts live in a directory of JSON files, one per role; a role with no
    file there takes the one in the parent directory, which holds the
    scripts that every script set shares. Each file holds candidate
    outputs; selection index = (prompt_hash + seed) mod pool length.
    Pools can be keyed per questionnaire profile (matched by profile id
    substring in the prompt) and an "on_retry" pool takes over when the
    prompt carries the validation-retry marker, which keeps the stub
    stateless while still letting tests script fail-then-succeed
    sequences.

    The reply stays a pure function of (role, prompt, seed). Per role the
    stub keeps its last pick, (prompt, pool, prompt hash): a call with an
    equal prompt, such as the next seed of one sweep cell, reuses the pool
    and the hash, and only the seed's offset and the reply's serialization
    run again. One entry per role keeps memory flat, and a call that
    raises stores nothing.
    """

    def __init__(self, script_dir: Path, sleep_seconds: float = 0.0):
        self.script_dir = Path(script_dir)
        self.sleep_seconds = sleep_seconds
        self._scripts: dict[str, tuple[Path, dict]] = {}  # role -> (file, script)
        self._last: dict[str, tuple[str, list, int]] = {}  # role -> (prompt, pool, hash)

    @property
    def waits_on_io(self) -> bool:
        """True when a call sleeps, releasing the interpreter lock the way a
        network wait does; otherwise a call is pure Python computation."""
        return self.sleep_seconds > 0

    def _script_for(self, role: str) -> tuple[Path, dict]:
        if role not in self._scripts:
            for directory in (self.script_dir, self.script_dir.parent):
                path = directory / f"{role}.json"
                if path.is_file():
                    break
            else:
                raise RiskforgeError(f"no stub script for role {role!r} in "
                                     f"{self.script_dir} or {self.script_dir.parent}")
            self._scripts[role] = (path, read_json(path, "stub script", _stub_script))
        return self._scripts[role]

    def _select_pool(self, role: str, prompt: str) -> list:
        path, script = self._script_for(role)
        if "on_retry" in script and RETRY_MARKER in prompt:
            return script["on_retry"]
        profiles = script.get("profiles", {})
        for profile_id, pool in profiles.items():
            if profile_id in prompt:
                return pool
        if "default" not in script:
            raise RiskforgeError(f"stub script {path} for role {role!r} has no 'default' "
                                 f"pool and no profile matched (profiles: "
                                 f"{', '.join(profiles) or 'none'})")
        return script["default"]

    def stub_complete(self, role: str, prompt: str, seed: int) -> str:
        last = self._last.get(role)
        if last is not None and last[0] == prompt:  # an identity check for a cached prompt
            _, pool, digest = last
        else:
            pool = self._select_pool(role, prompt)
            if not pool:
                raise RiskforgeError(f"empty response pool for role {role!r}")
            digest = prompt_hash(prompt)
            # one tuple, stored at once, so a worker thread reads a whole pick
            self._last[role] = (prompt, pool, digest)
        candidate = pool[(digest + seed) % len(pool)]
        if isinstance(candidate, str):
            return candidate
        # ASCII-escaped, the encoder's fast default: the reply parses to candidate
        return json.dumps(candidate)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        start = time.perf_counter()
        if self.sleep_seconds:
            time.sleep(self.sleep_seconds)
        text = self.stub_complete(request.role, request.prompt, request.config.seed)
        latency = time.perf_counter() - start
        return CompletionResult(text=text, latency_seconds=latency)


class HttpGateway:
    """Client for a local model server exposing POST /api/generate.

    Transport-level failures are retried with a fixed backoff before
    giving up; any reply but a 200 with a JSON object holding a string
    "response" is surfaced at once as ProviderError naming status and body.
    """

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    @property
    def waits_on_io(self) -> bool:
        """Always True: every call waits on the model server."""
        return True

    def _post(self, path: str, body: dict) -> tuple[int, bytes]:
        # imported here, as only the HTTP provider needs it: keeps CLI start-up lean
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        url = self.base_url + path
        request = Request(url, json.dumps(body).encode(), {"Content-Type": "application/json"})
        last_exc: Optional[Exception] = None
        for attempt in range(HTTP_RETRIES + 1):
            try:
                with urlopen(request, timeout=HTTP_TIMEOUT_SECONDS) as response:
                    return response.status, response.read()
            except HTTPError as exc:  # a reply outside 2xx; closed, as it holds the socket
                with exc:
                    return exc.code, exc.read()
            except OSError as exc:  # refused, reset or timed out (URLError is an OSError)
                last_exc = exc
                if attempt < HTTP_RETRIES:
                    time.sleep(HTTP_BACKOFF_SECONDS)
        raise ProviderError(f"cannot reach {url}: {last_exc}")

    def complete(self, request: CompletionRequest) -> CompletionResult:
        cfg = request.config
        body = {
            "model": cfg.model_id,
            "prompt": request.prompt,
            "options": {"num_ctx": cfg.context_window_tokens,
                        "num_predict": RESERVED_OUTPUT_TOKENS,
                        "temperature": TEMPERATURE, "seed": cfg.seed},
            "stream": False,
        }
        start = time.perf_counter()
        status, reply = self._post("/api/generate", body)
        latency = time.perf_counter() - start
        try:
            data = json.loads(reply) if status == 200 else None
        except ValueError:  # not JSON, or not UTF-8
            data = None
        if not isinstance(data, dict) or not isinstance(data.get("response"), str):
            raise ProviderError(f"provider returned status {status}: "
                                f"{reply.decode('utf-8', 'replace')[:500]}")
        return CompletionResult(
            text=data["response"],
            latency_seconds=latency,
            # Ollama's reply marks output cut off at the limit as done_reason "length"
            truncated=data.get("done_reason") == "length",
        )
