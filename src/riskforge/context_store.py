"""Shared persistent context: append-only, versioned, typed key-value store.

Every agent reads from and writes to one store per assessment session.
Entries are never mutated; each append creates the next revision for its
key. An entry's canonical text and token estimate are derived when first
read, not at append: an entry that nothing reads (the single-agent report
of an unlogged run) is never serialized. Persistence is a JSON Lines
append log, one entry per line, so a session can be inspected with
standard tools and replayed losslessly. A line is written around the
entry's canonical text (ContextEntry.log_line), so its payload is the
text every prompt quotes, and a logged entry is serialized once.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Any, Optional

from .contracts import ENTRY_KINDS
from .errors import RiskforgeError
from .grounding import parse_identifiers
from .records import append_text, decode, load_appended
from .tokens import canonical_json, estimate_tokens

_encode = json.JSONEncoder(ensure_ascii=False).encode


@dataclass(frozen=True)
class ContextEntry:
    """One immutable revision. The payload's canonical text, its token
    estimate and the framework identifiers cited in it are derived when
    first read, at most once per entry, and shared by every reader. An
    entry rebuilt from a log line (from_json) keeps the line's estimate."""

    key: str
    agent_id: str
    revision: int
    created_at: str
    payload: Any

    @cached_property
    def canonical_text(self) -> str:
        return canonical_json(self.payload)

    @cached_property
    def token_estimate(self) -> int:
        return estimate_tokens(self.canonical_text)

    @cached_property
    def cited_identifiers(self) -> list[dict]:
        return parse_identifiers(self.canonical_text)

    def to_json(self) -> dict:
        """The session-log line: the five fields, then token_estimate."""
        return {"key": self.key, "agent_id": self.agent_id, "revision": self.revision,
                "created_at": self.created_at, "payload": self.payload,
                "token_estimate": self.token_estimate}

    def log_line(self) -> str:
        """to_json() as one line: its fields in order, separated by ", "
        and ": " as json.dumps writes them, with the payload written as
        canonical_text, which is not serialized again."""
        return (f'{{"key": {_encode(self.key)}, "agent_id": {_encode(self.agent_id)}, '
                f'"revision": {self.revision}, "created_at": {_encode(self.created_at)}, '
                f'"payload": {self.canonical_text}, "token_estimate": {self.token_estimate}}}')

    @classmethod
    def from_json(cls, doc: dict) -> "ContextEntry":
        """Rebuild an entry from its to_json() line; every key is required."""
        fields = dict(doc)
        token_estimate = decode(int, fields.pop("token_estimate", None), "token_estimate")
        entry = decode(cls, fields)
        entry.__dict__["token_estimate"] = token_estimate  # prime the cached property
        return entry


class ContextStore:
    """Append-only store over the entry kinds the contracts write
    (contracts.ENTRY_KINDS); any other key is rejected.

    Appends are atomic and linearizable per key: the internal lock covers
    revision assignment, the in-memory append, and the log write, so
    concurrent appenders during the parallel stage cannot interleave and
    readers always see a consistent prefix. Each log write opens, writes
    and closes the file (records.append_text), so the store holds no open
    file.
    """

    def __init__(self, log_path: Optional[Path] = None):
        self._history: dict[str, list[ContextEntry]] = {}
        self._lock = threading.Lock()
        self._log_path = Path(log_path) if log_path is not None else None
        if self._log_path is not None:
            try:
                # the log exists from the start, even if nothing is appended
                self._log_path.parent.mkdir(parents=True, exist_ok=True)
                self._log_path.touch()
            except OSError as exc:
                raise RiskforgeError(f"cannot create session log {self._log_path}: {exc}") from exc

    def _history_of(self, key: str, where: str = "") -> list[ContextEntry]:
        """key's revisions; an unregistered key raises RiskforgeError led by where."""
        if key not in ENTRY_KINDS:
            raise RiskforgeError(f"{where}entry kind {key!r} is not registered "
                                 f"(registered: {list(ENTRY_KINDS)})")
        return self._history.setdefault(key, [])

    def append_entry(self, key: str, agent_id: str, payload: Any) -> ContextEntry:
        with self._lock:
            history = self._history_of(key)
            entry = ContextEntry(
                key=key,
                agent_id=agent_id,
                revision=len(history) + 1,
                created_at=datetime.now(timezone.utc).isoformat(),
                payload=payload,
            )
            if self._log_path is not None:
                append_text(self._log_path, entry.log_line())
            history.append(entry)
        return entry

    def read_history(self, key: str) -> list[ContextEntry]:
        with self._lock:
            return list(self._history.get(key, []))

    def snapshot(self) -> dict[str, ContextEntry]:
        """The latest revision per key, in key insertion order."""
        with self._lock:
            return {key: history[-1] for key, history in self._history.items()}

    @classmethod
    def load(cls, log_path: Path) -> "ContextStore":
        """Rebuild a store from its session log without re-appending to it. A
        line that append_entry could not have written, its key unregistered
        or its revision not the next for its key, raises RiskforgeError; a
        torn last line is skipped with a warning (records.load_appended)."""
        store = cls()
        for entry in load_appended(log_path, ContextEntry):
            history = store._history_of(entry.key, f"{log_path}: ")
            if entry.revision != len(history) + 1:
                raise RiskforgeError(f"{log_path}: {entry.key!r} revision {entry.revision} "
                                     f"where {len(history) + 1} is next")
            history.append(entry)
        return store
