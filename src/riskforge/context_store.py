"""Shared persistent context: append-only, versioned, typed key-value store.

Every agent reads from and writes to one store per assessment session.
Entries are never mutated; each append creates the next revision for its
key. An entry's canonical text and token estimate are derived when first
read, not at append: an entry that nothing reads (the single-agent report
of an unlogged run) is never serialized. Persistence is a JSON Lines
append log, one entry per line, so a session can be inspected with
standard tools and replayed losslessly; writing a line reads the token
estimate. The run ledger uses the same format, so append_line and
load_records serve both logs. decode turns a JSON document into a typed
record, checking each field against its annotation; every record that
riskforge reads from a file passes through it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, cached_property
from pathlib import Path
from typing import (Any, Callable, Iterable, Optional, Union, get_args, get_origin,
                    get_type_hints)

from .errors import RiskforgeError
from .grounding import parse_identifiers
from .tokens import canonical_json, estimate_tokens


def append_line(path: Path, doc: dict) -> None:
    """Append doc to a JSON Lines file as one line, written by one write()
    on an O_APPEND descriptor that is closed at once: lines from concurrent
    threads or processes never interleave, and nothing stays open or
    buffered between appends."""
    line = (json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
    except OSError as exc:
        raise RiskforgeError(f"cannot append to {path}: {exc}") from exc
    if written != len(line):
        raise RiskforgeError(f"short write to {path}: {written} of {len(line)} bytes")


# The exact Python types of a JSON value that fits each scalar type: JSON
# decoding yields no subclasses, a bool is no int, an int passes as a float
# and a bare dict is any object.
_EXACT = {str: (str,), int: (int,), float: (int, float), bool: (bool,), dict: (dict,),
          type(None): (type(None),)}


class _Misfit(Exception):
    """A value that does not fit its type. Each decoder that it unwinds
    through adds its step to path, so a value that fits builds none."""

    def __init__(self, problem: str):
        super().__init__(problem)
        self.path: list[str] = []  # innermost step first


def decode(tp, doc, path: str = ""):
    """doc, a JSON-decoded value, as type tp: a dataclass, list[X],
    tuple[X, Y], Optional[X], Any or a scalar in _EXACT. A value that does
    not fit, an unknown key or a missing required key is a TypeError that
    names the dotted field after path, e.g. "risks[1].title must be str,
    not int"; a dataclass's __post_init__ raises its own errors."""
    try:
        return _decoder(tp)(doc)
    except _Misfit as exc:
        where = (path + "".join(reversed(exc.path))).lstrip(".") or "document"
        raise TypeError(f"{where} {exc}") from None


@cache
def _decoder(tp) -> Callable[[Any], Any]:
    """tp compiled once into a function that returns a JSON value decoded
    as tp or raises _Misfit. A dataclass's field types come from
    get_type_hints."""
    if tp is Any:
        return lambda value: value
    origin, args = get_origin(tp), get_args(tp)
    # as an annotation spells it: str, Optional[str], list[RiskItem]
    name = re.sub(r"[\w.]+\.", "", repr(tp)) if args else tp.__name__

    def misfit(value) -> _Misfit:
        return _Misfit(f"must be {name}, not {type(value).__name__}")

    scalars = args if origin is Union else (tp,)
    if all(scalar in _EXACT for scalar in scalars):
        exact = sum((_EXACT[scalar] for scalar in scalars), ())

        def decode_scalar(value):
            if type(value) in exact:
                return value
            raise misfit(value)
        return decode_scalar
    if origin is Union:  # Optional[X] of a compound X
        decode_some = _decoder(args[0])
        return lambda value: None if value is None else decode_some(value)
    if origin in (list, tuple):
        decoders = [_decoder(arg) for arg in args]
        # a tuple's items by the decoder at their index, a list's by its one
        each = decoders if origin is tuple else itertools.repeat(decoders[0])

        def decode_array(value):
            if type(value) is not list:
                raise misfit(value)
            if origin is tuple and len(value) != len(decoders):
                raise _Misfit(f"must be {name}, not {len(value)} items")
            items = []
            try:
                for index, (decode_item, item) in enumerate(zip(each, value)):
                    items.append(decode_item(item))
            except _Misfit as exc:
                exc.path.append(f"[{index}]")
                raise
            return tuple(items) if origin is tuple else items
        return decode_array
    if dataclasses.is_dataclass(tp):
        hints = get_type_hints(tp)
        fields = {f.name: _decoder(hints[f.name]) for f in dataclasses.fields(tp)}
        required = [f.name for f in dataclasses.fields(tp)
                    if f.default is dataclasses.MISSING is f.default_factory]

        def decode_dataclass(value):
            if type(value) is not dict:
                raise misfit(value)
            kwargs = {}
            try:
                for key, item in value.items():
                    if key not in fields:
                        raise _Misfit(f"is not a field of {name}")
                    kwargs[key] = fields[key](item)
                for key in required:
                    if key not in kwargs:
                        raise _Misfit("is missing")
            except _Misfit as exc:
                exc.path.append(f".{key}")
                raise
            return tp(**kwargs)
        return decode_dataclass
    raise TypeError(f"cannot decode {name}")


def load_records(path: Path, cls: type) -> list:
    """One cls.from_json(line), or decode(cls, line) for a class without
    from_json, per non-blank line of a JSON Lines file. A file that cannot
    be read raises RiskforgeError naming path; a line that is not UTF-8
    JSON, or whose fields do not fit cls, one naming path:lineno."""
    build = getattr(cls, "from_json", None) or (lambda doc: decode(cls, doc))
    records = []
    # read as bytes and decoded per line, so a line cut inside a multi-byte
    # character fails as that line (UnicodeDecodeError is a ValueError)
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    records.append(build(json.loads(line)))
                except (ValueError, TypeError) as exc:
                    raise RiskforgeError(f"{path}:{lineno}: not a {cls.__name__} record: "
                                         f"{exc}") from exc
    except OSError as exc:
        raise RiskforgeError(f"cannot read {path}: {exc}") from exc
    return records


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

    @classmethod
    def from_json(cls, doc: dict) -> "ContextEntry":
        """Rebuild an entry from its to_json() line; every key is required."""
        fields = dict(doc)
        token_estimate = decode(int, fields.pop("token_estimate", None), "token_estimate")
        entry = decode(cls, fields)
        entry.__dict__["token_estimate"] = token_estimate  # prime the cached property
        return entry


class ContextStore:
    """Append-only store over a closed set of registered entry kinds.

    Appends are atomic and linearizable per key: the internal lock covers
    revision assignment, the in-memory append, and the log write, so
    concurrent appenders during the parallel stage cannot interleave and
    readers always see a consistent prefix. Each log write opens, writes
    and closes the file (append_line), so the store holds no open file.
    """

    def __init__(self, registered_keys: Iterable[str], log_path: Optional[Path] = None):
        self._registered = list(dict.fromkeys(registered_keys))
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

    def append_entry(self, key: str, agent_id: str, payload: Any) -> ContextEntry:
        if key not in self._registered:
            raise RiskforgeError(f"entry kind {key!r} is not registered "
                                 f"(registered: {self._registered})")
        with self._lock:
            history = self._history.setdefault(key, [])
            entry = ContextEntry(
                key=key,
                agent_id=agent_id,
                revision=len(history) + 1,
                created_at=datetime.now(timezone.utc).isoformat(),
                payload=payload,
            )
            if self._log_path is not None:
                append_line(self._log_path, entry.to_json())
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
    def load(cls, log_path: Path, registered_keys: Iterable[str]) -> "ContextStore":
        """Rebuild a store from its session log without re-appending to it."""
        store = cls(registered_keys)
        for entry in load_records(log_path, ContextEntry):
            store._history.setdefault(entry.key, []).append(entry)
        return store
