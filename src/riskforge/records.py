"""JSON files. read_json reads a file that holds one JSON document (a
questionnaire, a models file, a register, a schema, a stub script) and names
the file in any error it raises. JSON Lines is the format of every
line-oriented file: session logs, run ledgers, corpora and annotations.
append_line writes a document as one line, and append_text a document its
caller serialized (a session-log line); load_records reads one typed record
per non-blank line through decode, which checks a JSON document against a
type. Every typed record that riskforge reads from a file passes through
decode.

A writer killed mid-append, a short write or a full disk can leave the
last line of a file that append_text writes (a run ledger, a session log)
torn: no trailing newline, and no JSON document. load_appended skips such
a line with a RuntimeWarning, as the record it held never completed, and
mend_tail cuts it off before the next append, which would otherwise glue
its line onto the fragment. A file a person writes (a corpus, annotations)
is read by load_records, for which a torn line is an error like any other.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import warnings
from functools import cache
from pathlib import Path
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

from .errors import ProfileInvalid, RiskforgeError


def read_json(path, what: str, build=None):
    """The JSON document at path, passed through build when given. A file
    that cannot be read, is not JSON, or whose document build rejects
    (TypeError, ValueError, ProfileInvalid) is a one-line error naming it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return build(doc) if build else doc
    except OSError as exc:  # its own message names path again
        raise RiskforgeError(f"cannot read {what} {path}: {exc.strerror}")
    except (TypeError, ValueError, ProfileInvalid) as exc:
        raise RiskforgeError(f"cannot read {what} {path}: {type(exc).__name__}: {exc}")


def append_line(path: Path, doc: dict) -> None:
    """Append doc to a JSON Lines file as one line (append_text)."""
    append_text(path, json.dumps(doc, ensure_ascii=False))


def append_text(path: Path, text: str) -> None:
    """Append text, one JSON document serialized by the caller, to a JSON
    Lines file as one line, written by one write() on an O_APPEND
    descriptor that is closed at once: lines from concurrent threads or
    processes never interleave, and nothing stays open or buffered between
    appends."""
    line = (text + "\n").encode("utf-8")
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
    tuple[X, Y], Any, a scalar in _EXACT or Optional of such a scalar. A
    dataclass field's JSON key is its name, unless the field's metadata
    gives a "key". A value that does not fit, an unknown key or a missing
    required key is a TypeError that names the dotted JSON key after path,
    e.g. "risks[1].title must be str, not int"; a dataclass's __post_init__
    raises its own errors."""
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
        fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(tp)}  # by JSON key
        decoders = {key: _decoder(hints[f.name]) for key, f in fields.items()}
        required = [key for key, f in fields.items()
                    if f.default is dataclasses.MISSING is f.default_factory]

        def decode_dataclass(value):
            if type(value) is not dict:
                raise misfit(value)
            kwargs = {}
            try:
                for key, item in value.items():
                    if key not in fields:
                        raise _Misfit(f"is not a field of {name}")
                    kwargs[fields[key].name] = decoders[key](item)
                for key in required:
                    if fields[key].name not in kwargs:
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
    return _load(path, cls, appended=False)


def load_appended(path: Path, cls: type) -> list:
    """load_records for a file that append_text writes, except that a torn
    last line (no trailing newline, no JSON document) is skipped with a
    RuntimeWarning naming path:lineno."""
    return _load(path, cls, appended=True)


def _torn(line: bytes) -> bool:
    """Whether line is the torn end of an append: no trailing newline, and
    no JSON document. A strict prefix of a JSON object never is one."""
    if line.endswith(b"\n"):
        return False
    try:
        json.loads(line)
    except ValueError:  # UnicodeDecodeError included, for a cut inside a character
        return True
    return False


def _load(path: Path, cls: type, appended: bool) -> list:
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
                    if appended and _torn(line):  # only the last line lacks a newline
                        warnings.warn(f"{path}:{lineno}: skipped a torn last line "
                                      f"({len(line)} bytes, no trailing newline)",
                                      RuntimeWarning, stacklevel=3)
                        break
                    raise RiskforgeError(f"{path}:{lineno}: not a {cls.__name__} record: "
                                         f"{exc}") from exc
    except OSError as exc:
        raise RiskforgeError(f"cannot read {path}: {exc.strerror}") from exc
    return records


def mend_tail(path: Path) -> None:
    """Make a file that append_text writes end in a newline before the next
    append: a last line without one is cut back to the newline before it,
    with a RuntimeWarning naming path:lineno, if it is torn (the line
    load_appended skips), and ended with a newline if it is a whole JSON
    document. Of a file that ends in a newline, only the last byte is read."""
    try:
        with open(path, "rb+") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end == 0:
                return
            fh.seek(end - 1)
            if fh.read(1) == b"\n":
                return
            fh.seek(0)
            data = fh.read()
            start = data.rfind(b"\n") + 1
            if not _torn(data[start:]):
                fh.write(b"\n")
                return
            fh.truncate(start)
    except OSError as exc:
        raise RiskforgeError(f"cannot mend {path}: {exc}") from exc
    lineno = data.count(b"\n") + 1
    warnings.warn(f"{path}:{lineno}: cut a torn last line ({end - start} bytes, no "
                  f"trailing newline) before appending", RuntimeWarning, stacklevel=2)
