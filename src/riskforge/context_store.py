"""Shared persistent context: append-only, versioned, typed key-value store.

Every agent reads from and writes to one store per assessment session.
Entries are never mutated; each append creates the next revision for its
key. Persistence is a JSON Lines append log, one entry per line, so a
session can be inspected with standard tools and replayed losslessly.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from .errors import KeyAbsent, StorageFailure, UnknownKey
from .grounding import parse_identifiers
from .tokens import canonical_json, estimate_tokens


@dataclass(frozen=True)
class ContextEntry:
    """One immutable revision. The payload's canonical text (made by
    append_entry) and the framework identifiers cited in it are derived at
    most once per entry and shared by every reader."""

    key: str
    agent_id: str
    revision: int
    created_at: str
    payload: Any
    token_estimate: int

    @cached_property
    def canonical_text(self) -> str:
        return canonical_json(self.payload)

    @cached_property
    def cited_identifiers(self) -> list[dict]:
        return parse_identifiers(self.canonical_text)

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "agent_id": self.agent_id,
            "revision": self.revision,
            "created_at": self.created_at,
            "payload": self.payload,
            "token_estimate": self.token_estimate,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ContextEntry":
        return cls(
            key=doc["key"],
            agent_id=doc["agent_id"],
            revision=doc["revision"],
            created_at=doc["created_at"],
            payload=doc["payload"],
            token_estimate=doc["token_estimate"],
        )


@dataclass(frozen=True)
class ContextSnapshot:
    """Latest revision per key, in key insertion order."""

    entries: tuple[ContextEntry, ...]
    total_tokens: int

    def get(self, key: str) -> Optional[ContextEntry]:
        for entry in self.entries:
            if entry.key == key:
                return entry
        return None

    def keys(self) -> list[str]:
        return [entry.key for entry in self.entries]


class ContextStore:
    """Append-only store over a closed set of registered entry kinds.

    Appends are atomic and linearizable per key: the internal lock covers
    revision assignment, the in-memory append, and the log write, so
    concurrent appenders during the parallel stage cannot interleave and
    readers always see a consistent prefix.
    """

    def __init__(self, registered_keys: Iterable[str], log_path: Optional[Path] = None):
        self._registered = list(dict.fromkeys(registered_keys))
        self._history: dict[str, list[ContextEntry]] = {}
        self._lock = threading.Lock()
        self._log_path = Path(log_path) if log_path is not None else None
        self._log_file = None
        if self._log_path is not None:
            try:
                self._log_path.parent.mkdir(parents=True, exist_ok=True)
                self._log_file = open(self._log_path, "a", encoding="utf-8")
            except OSError as exc:
                raise StorageFailure(f"cannot open session log {self._log_path}: {exc}") from exc

    @property
    def registered_keys(self) -> list[str]:
        return list(self._registered)

    def append_entry(self, key: str, agent_id: str, payload: Any) -> ContextEntry:
        if key not in self._registered:
            raise UnknownKey(f"entry kind {key!r} is not registered "
                             f"(registered: {self._registered})")
        text = canonical_json(payload)
        with self._lock:
            history = self._history.setdefault(key, [])
            entry = ContextEntry(
                key=key,
                agent_id=agent_id,
                revision=len(history) + 1,
                created_at=datetime.now(timezone.utc).isoformat(),
                payload=payload,
                token_estimate=estimate_tokens(text),
            )
            entry.__dict__["canonical_text"] = text  # prime the cached property
            self._write_log(entry)
            history.append(entry)
        return entry

    def _write_log(self, entry: ContextEntry) -> None:
        if self._log_file is None:
            return
        try:
            self._log_file.write(json.dumps(entry.to_json(), ensure_ascii=False) + "\n")
            self._log_file.flush()
        except OSError as exc:
            raise StorageFailure(f"cannot append to session log: {exc}") from exc

    def read_latest(self, key: str) -> ContextEntry:
        with self._lock:
            history = self._history.get(key)
            if not history:
                raise KeyAbsent(f"no entry has been written for key {key!r}")
            return history[-1]

    def read_history(self, key: str) -> list[ContextEntry]:
        with self._lock:
            return list(self._history.get(key, []))

    def snapshot(self, keys: Optional[Sequence[str]] = None) -> ContextSnapshot:
        with self._lock:
            if keys is None:
                wanted = list(self._history.keys())
            else:
                wanted = [k for k in keys if k in self._history]
            entries = tuple(self._history[k][-1] for k in wanted)
        return ContextSnapshot(entries=entries, total_tokens=sum(e.token_estimate for e in entries))

    def close(self) -> None:
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    @classmethod
    def load(cls, log_path: Path, registered_keys: Iterable[str]) -> "ContextStore":
        """Rebuild a store from its session log without re-appending to it."""
        store = cls(registered_keys)
        with open(log_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = ContextEntry.from_json(json.loads(line))
                store._history.setdefault(entry.key, []).append(entry)
        return store
