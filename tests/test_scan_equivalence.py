"""Property tests: the fast text scanners agree with their reference forms.

The reference forms below are the original implementations, kept here as
oracles: a character-by-character brace matcher for JSON extraction, and
the identifier regexes with their lookbehind in front of the first
character. Per-entry derived text (canonical JSON and cited identifiers)
must equal what the free functions compute, for appended entries and for
entries rebuilt from a session log.
"""

import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from riskforge.context_store import ContextStore
from riskforge.contracts import ENTRY_KINDS, extract_json_object
from riskforge.errors import Unparseable
from riskforge.grounding import CIS_RE, NIST_CSF_RE, parse_identifiers
from riskforge.tokens import canonical_json, estimate_payload_tokens

OLD_NIST_CSF_RE = re.compile(r"(?<![A-Z0-9.])[A-Z]{2}\.[A-Z]{2,3}-\d{1,2}(?!\d)")
OLD_CIS_RE = re.compile(r"(?<![A-Za-z])CIS Control (\d+(?:\.\d+)?)(?![\d.])")


def old_extract_json_object(raw: str) -> dict:
    start = raw.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(raw)):
            ch = raw[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        doc = json.loads(raw[start:i + 1])
                    except json.JSONDecodeError:
                        break
                    if isinstance(doc, dict):
                        return doc
                    break
        start = raw.find("{", start + 1)
    raise Unparseable("no balanced JSON object found in output")


def outcome(extract, raw):
    try:
        return extract(raw)
    except Unparseable:
        return Unparseable


# -- JSON extraction -----------------------------------------------------------

def joined(pieces, max_size):
    """Strings concatenated from the given pieces."""
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


TRICKY = list('{}[]":,\\ ab\n')
tricky_text = joined(TRICKY + ["x", "é", "\\u00e9"], 12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | tricky_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(tricky_text, children, max_size=4),
    max_leaves=12,
)
fragments = st.one_of(
    st.dictionaries(tricky_text, json_values, max_size=4).map(json.dumps),
    json_values.map(json.dumps),  # arrays and scalars, possibly before the object
    json_values.map(lambda v: json.dumps({"k": v}, indent=1)),
    joined(TRICKY + ["Sure! ", "here: ", '{"a": '], 20),  # prose, unbalanced fragments
    st.sampled_from(["{", "}", '"', '\\"', '{"a": "}', '{"a": 1', "{broken}", "{}"]),
)


@settings(deadline=None, max_examples=400)
@given(st.lists(fragments, max_size=6).map("".join))
def test_extract_matches_brace_matcher(raw):
    assert outcome(extract_json_object, raw) == outcome(old_extract_json_object, raw)


@settings(deadline=None)
@given(st.lists(fragments, max_size=3).map("".join),
       st.dictionaries(tricky_text, json_values, max_size=4),
       st.lists(fragments, max_size=3).map("".join))
def test_extract_finds_object_after_prose(before, doc, after):
    raw = before + json.dumps(doc) + after
    got = outcome(extract_json_object, raw)
    assert got == outcome(old_extract_json_object, raw)
    assert got is not Unparseable


# -- identifier regexes --------------------------------------------------------

identifier_text = joined(
    list("ABCDEFGHIJKLMNOPQRSTUVWXYZ") * 3 + list("0123456789") * 2
    + [".", ".", "-", "-", " ", "a", "C", "IS", "CIS Control ", "CIS Control ",
       "PR.AC-", "xCIS Control 1.2", "\n"], 40)


def matches(pattern, text):
    return [(m.span(), m.group(0), m.groups()) for m in pattern.finditer(text)]


@settings(deadline=None, max_examples=500)
@given(identifier_text)
def test_identifier_regexes_match_lookbehind_first_forms(text):
    assert matches(NIST_CSF_RE, text) == matches(OLD_NIST_CSF_RE, text)
    assert matches(CIS_RE, text) == matches(OLD_CIS_RE, text)
    assert bool(NIST_CSF_RE.fullmatch(text)) == bool(OLD_NIST_CSF_RE.fullmatch(text))


# -- per-entry derived text ----------------------------------------------------

payloads = st.dictionaries(
    st.sampled_from(["summary", "findings", "notes", "x"]),
    st.recursive(identifier_text | st.integers(),
                 lambda children: st.lists(children, max_size=3), max_leaves=6),
    max_size=4)


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ENTRY_KINDS), payloads), max_size=6))
def test_entry_text_and_citations_match_free_functions(appends):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "session.jsonl"
        store = ContextStore(ENTRY_KINDS, log_path=log)
        appended = [store.append_entry(key, "agent", payload) for key, payload in appends]
        store.close()
        loaded = ContextStore.load(log, ENTRY_KINDS)
        reloaded = [entry for key in dict.fromkeys(k for k, _ in appends)
                    for entry in loaded.read_history(key)]
    assert len(reloaded) == len(appended)
    for entry in appended + reloaded:
        text = canonical_json(entry.payload)
        assert entry.canonical_text == text
        assert entry.cited_identifiers == parse_identifiers(text)
        assert entry.token_estimate == estimate_payload_tokens(entry.payload)
