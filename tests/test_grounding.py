"""Corpus ingestion, identifier parsing, retrieval, citation verification."""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from riskforge.contracts import DATA_DIR
from riskforge.errors import RiskforgeError
from riskforge.grounding import (Corpus, parse_identifiers, tokenize,
                                 NIST_CSF_RE, STOPWORDS)
from riskforge.risk_model import normalize_title

FIXTURES = DATA_DIR / "fixtures"


def write_corpus(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def line(framework="nist_csf", identifier="PR.AC-1", title="t", body="b"):
    return json.dumps({"framework": framework, "identifier": identifier,
                       "title": title, "body": body})


# -- ingestion ---------------------------------------------------------------

def test_bundled_corpus_counts(corpus):
    assert len(corpus) == 17
    assert corpus.counts_by_framework() == {"nist_csf": 15, "cis": 2}


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(Corpus.ingest(path)) == 0


def test_ingest_skips_blank_lines(tmp_path):
    path = write_corpus(tmp_path, [line(), "", line(identifier="PR.AC-4")])
    assert len(Corpus.ingest(path)) == 2


def bad_line(path, lineno, problem):
    """The message load_records gives for a corpus line that is no excerpt."""
    return "^" + re.escape(f"{path}:{lineno}: not a FrameworkExcerpt record: {problem}")


def test_ingest_invalid_json_reports_line_number(tmp_path):
    path = write_corpus(tmp_path, [line(), "{not json"])
    with pytest.raises(RiskforgeError, match=bad_line(path, 2, "Expecting property name")):
        Corpus.ingest(path)


def test_ingest_missing_field(tmp_path):
    path = write_corpus(tmp_path, ['{"framework": "cis", "identifier": "5.2"}'])
    with pytest.raises(RiskforgeError, match=bad_line(path, 1, "title is missing") + "$"):
        Corpus.ingest(path)


def test_ingest_unknown_framework(tmp_path):
    path = write_corpus(tmp_path, [line(framework="iso27001")])
    with pytest.raises(RiskforgeError,
                       match=bad_line(path, 1, "unknown framework 'iso27001'") + "$"):
        Corpus.ingest(path)


def test_ingest_identifier_must_parse(tmp_path):
    path = write_corpus(tmp_path, [line(identifier="PRAC-1")])
    with pytest.raises(RiskforgeError, match=bad_line(
            path, 1, "identifier 'PRAC-1' does not parse for nist_csf") + "$"):
        Corpus.ingest(path)


def test_ingest_duplicate_identifier(tmp_path):
    path = write_corpus(tmp_path, [line(), line(body="other")])
    with pytest.raises(RiskforgeError, match="^" + re.escape(f"{path}: 'PR.AC-1' repeated") + "$"):
        Corpus.ingest(path)


def test_lookup(corpus):
    assert corpus.lookup("nist_csf", "PR.AC-7").title == "User and device authentication"
    assert corpus.lookup("cis", "5.2") is not None
    assert corpus.lookup("nist_csf", "ZZ.ZZ-9") is None


# -- identifier parsing ------------------------------------------------------

def test_parse_nist_and_cis_identifiers():
    text = "Apply PR.AC-1 and DE.CM-1, plus CIS Control 5.2 for passwords."
    found = parse_identifiers(text)
    assert [(f["framework"], f["identifier"]) for f in found] == [
        ("nist_csf", "PR.AC-1"),
        ("nist_csf", "DE.CM-1"),
        ("cis", "5.2"),
    ]
    cis = found[-1]
    assert cis["raw"] == "CIS Control 5.2"
    assert text[cis["span"][0]:cis["span"][1]] == "CIS Control 5.2"


def test_parse_rejects_boundary_violations():
    # letter prefix, trailing digits, lowercase, and bare numbers don't match
    assert parse_identifiers("XPR.AC-1") == []
    assert parse_identifiers("PR.AC-123") == []
    assert parse_identifiers("pr.ac-1") == []
    assert parse_identifiers("Control 5.2 without the prefix") == []
    assert parse_identifiers("CIS Control 5.2.1.9") == []


@given(number=st.from_regex(r"[0-9]{1,2}(\.[0-9]{1,2})?", fullmatch=True),
       terminator=st.sampled_from(["", ".", ",", ";", ")", "'s", " and more"]),
       digit=st.integers(0, 9))
def test_cis_citation_ends_before_punctuation_but_not_a_further_part(number, terminator,
                                                                    digit):
    def identifiers(text):
        return [f["identifier"] for f in parse_identifiers(text)]

    text = f"hygiene follows CIS Control {number}"
    assert identifiers(text + terminator) == [number]
    # ".digit" makes N the number N.digit, and N.M a three-part number, no identifier
    assert identifiers(f"{text}.{digit}{terminator}") == (
        [] if "." in number else [f"{number}.{digit}"])


def test_parse_three_letter_category():
    found = parse_identifiers("see ID.SCM-4 for suppliers")
    assert [f["identifier"] for f in found] == ["ID.SCM-4"]


def test_parse_results_are_non_overlapping_and_ordered():
    text = "RS.CO-2 then CIS Control 8.2 then PR.DS-1"
    spans = [f["span"] for f in parse_identifiers(text)]
    assert spans == sorted(spans)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end


# -- retrieval ---------------------------------------------------------------

def test_tokenize_drops_stopwords_and_case():
    assert tokenize("The Access of the User") == {"access", "user"}
    assert len(STOPWORDS) == 30


def test_retrieval_hand_scored_ranking(corpus):
    # "multi-factor authentication access" shares four distinct tokens with
    # PR.AC-7 and exactly one ("access") with PR.AC-1, PR.AC-4, PR.DS-1;
    # ties break by identifier ascending.
    top = corpus.retrieve("multi-factor authentication access", 2)
    assert [e.identifier for e in top] == ["PR.AC-7", "PR.AC-1"]
    top4 = corpus.retrieve("multi-factor authentication access", 4)
    assert [e.identifier for e in top4] == ["PR.AC-7", "PR.AC-1", "PR.AC-4", "PR.DS-1"]


def test_retrieval_excludes_zero_scores(corpus):
    assert corpus.retrieve("zebra quantum blockchain", 5) == []


def test_retrieval_k_must_be_positive(corpus):
    with pytest.raises(ValueError):
        corpus.retrieve("access", 0)


CORPUS_PATH = DATA_DIR / "corpus" / "mini_csf.jsonl"
SHARED = Corpus.ingest(CORPUS_PATH)  # keeps its retrieval results across examples
WORDS = sorted(set().union(*(tokenize(e.title + " " + e.body) for e in SHARED.excerpts)))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(WORDS) | st.text(max_size=8), max_size=6).map(" ".join),
       st.integers(min_value=1, max_value=20))
def test_retrieval_matches_a_fresh_corpus(query, k):
    """Retrieval scored once per (query, k) equals a fresh corpus's, and a
    caller that edits its result changes no later one."""
    fresh = Corpus.ingest(CORPUS_PATH).retrieve(query, k)
    first = SHARED.retrieve(query, k)
    assert first == fresh
    first.clear()
    first.append(SHARED.excerpts[0])
    assert SHARED.retrieve(query, k) == fresh
    assert Corpus.ingest(CORPUS_PATH).retrieve(query, k) == fresh


def test_retrieval_is_deterministic(corpus):
    runs = [tuple(e.identifier for e in corpus.retrieve("incident response plan", 3))
            for _ in range(5)]
    assert len(set(runs)) == 1


# -- citation verification ---------------------------------------------------

def test_seeded_fixture_flags_exactly_seven_fabricated(corpus):
    text = (FIXTURES / "seeded_report.md").read_text(encoding="utf-8")
    citations = corpus.verify_citations(text)
    unverified = [c for c in citations if not c.verified]
    assert len(citations) == 9
    assert len(unverified) == 7
    assert sorted(c.raw for c in unverified) == [
        "CIS Control 18.9", "DE.CM-8", "ID.AM-9", "PR.AC-12",
        "PR.DS-9", "RC.IM-2", "RS.MI-3",
    ]


def test_grounded_fixture_has_zero_false_flags(corpus):
    text = (FIXTURES / "grounded_report.md").read_text(encoding="utf-8")
    citations = corpus.verify_citations(text)
    # the last one ends the fixture's closing sentence
    assert [c.raw for c in citations] == ["PR.AC-1", "PR.AC-7", "ID.AM-1", "DE.CM-1",
                                          "RS.RP-1", "CIS Control 5.2"]
    assert all(c.verified for c in citations)


def test_verification_against_membership_oracle_randomized(corpus):
    """1,000 randomized texts: verified flag must equal corpus membership."""
    rng = random.Random(20260824)
    real = [(e.framework, e.identifier) for e in corpus.excerpts]
    fabricated = [("nist_csf", "ID.AM-9"), ("nist_csf", "PR.AC-12"),
                  ("nist_csf", "DE.CM-8"), ("nist_csf", "RS.MI-3"),
                  ("nist_csf", "RC.IM-2"), ("nist_csf", "GV.OC-1"),
                  ("cis", "18.9"), ("cis", "4.12"), ("cis", "16.1")]
    filler = ["the control", "should be reviewed", "by staff", "annually",
              "with evidence", "and sign-off", "before deployment"]
    members = set(real)
    for _ in range(1000):
        picks = [rng.choice(real + fabricated)
                 for _ in range(rng.randint(0, 6))]
        words = []
        expected = []
        for framework, identifier in picks:
            words.append(rng.choice(filler))
            raw = identifier if framework == "nist_csf" else f"CIS Control {identifier}"
            words.append(raw)
            expected.append(((framework, identifier), (framework, identifier) in members))
        words.append(rng.choice(filler))
        text = " ".join(words)
        citations = corpus.verify_citations(text)
        got = [((c.framework, c.identifier), c.verified) for c in citations]
        assert got == expected


def test_parser_finds_every_planted_identifier():
    """Completeness vs a naive planting oracle: whitespace-separated
    identifiers are always recovered, in order."""
    rng = random.Random(7)
    categories = ["ID.AM", "PR.AC", "PR.DS", "DE.CM", "RS.RP", "RC.RP", "GV.OC"]
    for _ in range(300):
        planted = []
        words = []
        for _ in range(rng.randint(1, 8)):
            ident = f"{rng.choice(categories)}-{rng.randint(1, 99)}"
            planted.append(ident)
            words.append(ident)
            words.append(rng.choice(["and", "controls", "coverage", "gaps"]))
        found = [f["identifier"] for f in parse_identifiers(" ".join(words))]
        assert found == planted
        for ident in planted:
            assert NIST_CSF_RE.fullmatch(ident)


# Unicode text plus the characters whose lower() lands in or next to
# [0-9a-z]: the Kelvin sign becomes "k", dotted capital I "i" plus a mark.
@given(st.text(st.one_of(st.characters(), st.sampled_from("aZ09 _-.\t\u212a\u0130"))))
def test_word_rule_matches_the_old_split(text):
    """tokenize and normalize_title share one compiled word pattern; both
    still give what their re.split(r"[^0-9a-z]+", ...) forms gave."""
    split = re.split(r"[^0-9a-z]+", text.lower())
    assert tokenize(text) == {tok for tok in split if tok and tok not in STOPWORDS}
    assert normalize_title(text) == " ".join(split).strip()
