"""Context store: append-only versioned entries, JSONL persistence, tokens."""

import json
import os
import re
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from riskforge.context_store import ContextEntry, ContextStore
from riskforge.contracts import DATA_DIR, ENTRY_KINDS
from riskforge.errors import RiskforgeError
from riskforge.records import mend_tail
from riskforge.tokens import canonical_json, estimate_tokens

LOG_FIELDS = ["key", "agent_id", "revision", "created_at", "payload", "token_estimate"]


# -- token estimator ---------------------------------------------------------

def test_estimator_is_ceiling_of_quarter_chars():
    assert estimate_tokens("") == 0
    assert estimate_tokens("a") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    # 400 characters estimate to exactly 100 tokens
    assert estimate_tokens("x" * 400) == 100


@given(st.text(max_size=2000))
def test_estimator_matches_ceiling_formula(text):
    import math
    assert estimate_tokens(text) == math.ceil(len(text) / 4)


@given(st.text(max_size=500), st.text(max_size=500))
def test_estimator_monotone_under_concatenation(a, b):
    assert estimate_tokens(a + b) >= estimate_tokens(a)


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'


def test_payload_token_estimate_uses_canonical_form():
    payload = {"title": "x" * 100, "a": [1, 2]}
    entry = ContextStore().append_entry("report", "report_synthesis", payload)
    assert entry.token_estimate == estimate_tokens(canonical_json(payload))


def test_frozen_questionnaire_token_count():
    # Oracle computed once from the canonical serialization of the bundled
    # health_15 questionnaire and frozen; changes to either the profile or
    # the estimator must be deliberate.
    profile = json.loads(
        (DATA_DIR / "profiles" / "health_15.json").read_text(encoding="utf-8"))
    assert len(canonical_json(profile)) == 1115
    assert estimate_tokens(canonical_json(profile)) == 279


# -- store semantics ---------------------------------------------------------

def test_append_and_read_latest():
    store = ContextStore()
    entry = store.append_entry("org_profile", "risk_intake", {"industry": "saas"})
    assert entry.revision == 1
    assert entry.agent_id == "risk_intake"
    assert store.snapshot()["org_profile"].payload == {"industry": "saas"}


def test_revisions_increment_and_history_preserved():
    store = ContextStore()
    store.append_entry("threat_model", "threat_modeling", {"threats": [1]})
    store.append_entry("threat_model", "threat_modeling", {"threats": [1, 2]})
    history = store.read_history("threat_model")
    assert [e.revision for e in history] == [1, 2]
    assert store.snapshot()["threat_model"].payload == {"threats": [1, 2]}
    # earlier revision untouched
    assert history[0].payload == {"threats": [1]}


def test_unknown_key_rejected():
    store = ContextStore()
    with pytest.raises(RiskforgeError, match=re.escape(
            f"entry kind 'scratchpad' is not registered (registered: {list(ENTRY_KINDS)})")
            + "$"):
        store.append_entry("scratchpad", "x", {})


def test_absent_key_is_not_in_snapshot():
    store = ContextStore()
    store.append_entry("org_profile", "risk_intake", {})
    assert list(store.snapshot()) == ["org_profile"]
    assert store.read_history("report") == []


def test_created_at_is_rfc3339_utc():
    store = ContextStore()
    entry = store.append_entry("report", "report_synthesis", {})
    from datetime import datetime
    parsed = datetime.fromisoformat(entry.created_at)
    assert parsed.tzinfo is not None


def test_snapshot_latest_per_key_and_totals():
    store = ContextStore()
    store.append_entry("org_profile", "risk_intake", {"a": 1})
    store.append_entry("org_profile", "risk_intake", {"a": 2})
    store.append_entry("threat_model", "threat_modeling", {"b": 3})
    snap = store.snapshot()
    assert list(snap) == ["org_profile", "threat_model"]
    assert snap["org_profile"].revision == 2
    assert snap.get("missing") is None
    # a later append leaves a snapshot already taken as it was
    store.append_entry("org_profile", "risk_intake", {"a": 3})
    assert snap["org_profile"].revision == 2


def test_session_log_lines_have_exact_fields(tmp_path):
    log = tmp_path / "session.jsonl"
    store = ContextStore(log_path=log)
    store.append_entry("org_profile", "risk_intake", {"industry": "retail"})
    store.append_entry("threat_model", "threat_modeling", {"threats": []})
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(lines) == 2
    for doc in lines:
        assert list(doc) == LOG_FIELDS


def test_log_round_trip_lossless(tmp_path):
    log = tmp_path / "session.jsonl"
    store = ContextStore(log_path=log)
    payloads = [{"n": i, "text": "é" * i} for i in range(5)]
    for p in payloads:
        store.append_entry("report", "report_synthesis", p)
    original = store.read_history("report")

    loaded = ContextStore.load(log)
    replayed = loaded.read_history("report")
    assert [e.to_json() for e in replayed] == [e.to_json() for e in original]


def test_entry_json_round_trip():
    entry = ContextEntry(key="report", agent_id="a", revision=3,
                         created_at="2026-01-01T00:00:00+00:00", payload={"x": [1, 2]})
    line = entry.to_json()
    assert list(line) == LOG_FIELDS and line["token_estimate"] == 3
    assert ContextEntry.from_json(line) == entry
    assert ContextEntry.from_json(line).to_json() == line
    # a log line's estimate is kept as written, not derived again
    assert ContextEntry.from_json({**line, "token_estimate": 4}).token_estimate == 4
    with pytest.raises(TypeError, match="token_estimate"):
        ContextEntry.from_json({k: v for k, v in line.items() if k != "token_estimate"})


# Text with what a JSON encoder must escape or may pass through: quotes,
# backslashes, control and non-ASCII characters (no lone surrogate, which
# no UTF-8 line holds).
_TEXT = st.text(st.characters(blacklist_categories=("Cs",))
                | st.sampled_from('"\\\n\x00é✓'), max_size=8)
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children,
                                                                       max_size=4),
    max_leaves=12)


@given(key=_TEXT, agent_id=_TEXT, revision=st.integers(1, 10**6), created_at=_TEXT,
       payload=_PAYLOADS)
def test_log_line_is_to_json_around_the_canonical_text(key, agent_id, revision,
                                                       created_at, payload):
    entry = ContextEntry(key=key, agent_id=agent_id, revision=revision,
                         created_at=created_at, payload=payload)
    line = entry.log_line()
    assert "\n" not in line
    assert json.loads(line) == entry.to_json()
    # json.dumps's header, with the payload written as the canonical text
    header = json.dumps({**entry.to_json(), "payload": None}, ensure_ascii=False)
    assert line == header.replace('"payload": null',
                                  f'"payload": {entry.canonical_text}', 1)
    assert ContextEntry.from_json(json.loads(line)).log_line() == line


def test_session_log_holds_each_entry_log_line(tmp_path):
    log = tmp_path / "session.jsonl"
    store = ContextStore(log_path=log)
    entries = [store.append_entry("org_profile", "risk_intake",
                                  {"b": [1.5, "é"], "a": None}),
               store.append_entry("report", "report_synthesis", {"q": 'say "hi"\\'})]
    assert log.read_text(encoding="utf-8") == "".join(e.log_line() + "\n" for e in entries)
    assert entries[0].log_line().endswith(
        '"payload": {"a":null,"b":[1.5,"é"]}, "token_estimate": 6}')


@pytest.mark.parametrize("field, value, message", [
    ("agent_id", 5, "agent_id must be str, not int"),
    ("revision", "1", "revision must be int, not str"),
    ("revision", True, "revision must be int, not bool"),
    ("token_estimate", "x", "token_estimate must be int, not str"),
    ("token_estimate", None, "token_estimate must be int, not NoneType"),
    ("author", "a", "author is not a field of ContextEntry"),
])
def test_entry_line_of_the_wrong_type_is_rejected(field, value, message):
    line = ContextEntry(key="report", agent_id="a", revision=1,
                        created_at="2026-01-01T00:00:00+00:00", payload=None).to_json()
    with pytest.raises(TypeError) as exc:
        ContextEntry.from_json({**line, field: value})
    assert str(exc.value) == message


def test_load_gives_back_a_recorded_session_log_line_for_line():
    """tests/data/session_health_15.jsonl was written by `riskforge assess`
    (health_15, multi-agent) when append_entry still serialized every
    payload eagerly; loading it gives back each line byte for byte."""
    log = Path(__file__).parent / "data" / "session_health_15.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    store = ContextStore.load(log)
    replayed = []
    for line in lines:
        doc = json.loads(line)
        entry = store.read_history(doc["key"])[doc["revision"] - 1]
        replayed.append(json.dumps(entry.to_json(), ensure_ascii=False))
    assert len(lines) == len(ENTRY_KINDS)
    assert replayed == lines


def _log_line(key, revision):
    return json.dumps(ContextEntry(key=key, agent_id="a", revision=revision,
                                   created_at="2026-01-01T00:00:00+00:00",
                                   payload={}).to_json())


@pytest.mark.parametrize("lines, message", [
    ([("bogus", 1)], "entry kind 'bogus' is not registered (registered: {kinds})"),
    ([("org_profile", 3)], "'org_profile' revision 3 where 1 is next"),
    ([("org_profile", 1), ("report", 1), ("org_profile", 1)],
     "'org_profile' revision 1 where 2 is next"),
], ids=["unregistered_key", "revision_skipped", "revision_repeated"])
def test_load_keeps_the_rules_of_append_entry(tmp_path, lines, message):
    """A log that append_entry could not have written does not load, so an
    append after load never repeats or skips a revision."""
    log = tmp_path / "session.jsonl"
    log.write_text("".join(_log_line(*line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(RiskforgeError, match="^" + re.escape(
            f"{log}: " + message.format(kinds=list(ENTRY_KINDS))) + "$"):
        ContextStore.load(log)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open descriptors")
def test_session_log_it_cannot_create_is_an_error(tmp_path):
    blocker = tmp_path / "run"
    blocker.write_text("", encoding="utf-8")  # a file where the log's directory goes
    log = blocker / "session.jsonl"
    with pytest.raises(RiskforgeError,
                       match=f"^cannot create session log {re.escape(str(log))}: "):
        ContextStore(log_path=log)


def test_logged_store_holds_no_open_file(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    store = ContextStore(log_path=tmp_path / "session.jsonl")
    store.append_entry("org_profile", "risk_intake", {"a": 1})
    store.append_entry("org_profile", "risk_intake", {"a": 2})
    assert len(os.listdir("/proc/self/fd")) == before


@given(st.lists(st.dictionaries(st.text(max_size=5),
                                st.integers(), max_size=4), max_size=8))
def test_append_only_property(payloads):
    """Appends never change earlier entries; revisions are 1..n in order."""
    store = ContextStore()
    seen = []
    for payload in payloads:
        store.append_entry("risk_register", "risk_scoring", payload)
        seen.append(payload)
        history = store.read_history("risk_register")
        assert [e.revision for e in history] == list(range(1, len(seen) + 1))
        assert [e.payload for e in history] == seen


def test_mending_an_empty_file_leaves_it_empty(tmp_path):
    log = tmp_path / "session.jsonl"
    log.touch()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mend_tail(log)
    assert log.read_bytes() == b""


def test_concurrent_appends_assign_distinct_revisions():
    store = ContextStore()
    n = 32

    def work(i):
        store.append_entry("recommendations", f"agent-{i}", {"i": i})

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    history = store.read_history("recommendations")
    assert sorted(e.revision for e in history) == list(range(1, n + 1))
