"""Framework corpus: ingestion, identifier parsing, retrieval, verification.

Control citations emitted by a model are only trusted if the identifier
exists verbatim in the ingested corpus; everything else is flagged for
human review rather than dropped. Retrieval is deterministic keyword
overlap, which is sufficient for grounding excerpts at this scale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import RiskforgeError
from .records import load_records

# Identifier grammars. NIST CSF: two uppercase letters, dot, two or three
# uppercase letters, hyphen, one or two digits. CIS: literal prefix plus a
# number with optional .sub component, followed by no digit and no dot
# before a digit (a sentence's closing period may follow). Each lookbehind
# follows the first character, so the regex engine can scan for that
# character first. That is also why they stay two scans: one alternation of
# both with named groups finds the same identifiers in the golden report x3
# (40 KB) but took 1.5 ms against 0.4 ms (Python 3.11.7, 2 vCPU).
NIST_CSF_RE = re.compile(r"[A-Z](?<![A-Z0-9.][A-Z])[A-Z]\.[A-Z]{2,3}-\d{1,2}(?!\d)")
CIS_RE = re.compile(r"C(?<![A-Za-z]C)IS Control (\d+(?:\.\d+)?)(?!\.?\d)")
CIS_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
WORD_RE = re.compile("[0-9a-z]+")  # a word of lower-cased text (tokenize, normalize_title)

# Small fixed function-word list; determinism matters more than linguistic
# sophistication here.
STOPWORDS = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has",
    "have", "in", "is", "it", "its", "of", "on", "or", "that", "the",
    "their", "this", "to", "was", "were", "which", "will", "with", "not",
})


@dataclass(frozen=True)
class FrameworkExcerpt:
    """One control of a framework corpus: its identifier, title and body."""

    framework: str  # "nist_csf" or "cis"
    identifier: str
    title: str
    body: str

    def __post_init__(self):
        grammar = {"nist_csf": NIST_CSF_RE, "cis": CIS_NUMBER_RE}.get(self.framework)
        if grammar is None:
            raise ValueError(f"unknown framework {self.framework!r}")
        if grammar.fullmatch(self.identifier) is None:
            raise ValueError(f"identifier {self.identifier!r} does not parse for "
                             f"{self.framework}")


@dataclass(frozen=True)
class FrameworkCitation:
    """A framework identifier found in model text; verified if the corpus holds it."""

    raw: str
    framework: str
    identifier: str
    verified: bool


def tokenize(text: str) -> set[str]:
    return {tok for tok in WORD_RE.findall(text.lower()) if tok not in STOPWORDS}


def normalize_title(title: str) -> str:
    """Case-fold, strip punctuation, collapse whitespace. Idempotent."""
    return " ".join(WORD_RE.findall(title.lower()))


def parse_identifiers(text: str) -> list[dict]:
    """Find all framework identifiers, non-overlapping, left to right."""
    found = []
    for match in NIST_CSF_RE.finditer(text):
        found.append({
            "framework": "nist_csf",
            "identifier": match.group(0),
            "raw": match.group(0),
            "span": (match.start(), match.end()),
        })
    for match in CIS_RE.finditer(text):
        found.append({
            "framework": "cis",
            "identifier": match.group(1),
            "raw": match.group(0),
            "span": (match.start(), match.end()),
        })
    # No match of one grammar can start inside a match of the other: a NIST
    # id holds no space and ends in a digit, and a CIS one has a space as its
    # fourth character and only lowercase letters, digits, spaces and dots
    # after it. finditer's matches of one grammar never overlap.
    found.sort(key=lambda item: item["span"])
    return found


class Corpus:
    """Immutable index of framework excerpts after ingestion. Retrieval is
    a pure function of (query, k) over it, so each result is kept."""

    def __init__(self, excerpts: list[FrameworkExcerpt]):
        self.excerpts = list(excerpts)
        self._by_id: dict[tuple[str, str], FrameworkExcerpt] = {
            (e.framework, e.identifier): e for e in excerpts
        }
        self._doc_tokens: dict[str, set[str]] = {
            e.identifier: tokenize(e.title + " " + e.body) for e in excerpts
        }
        self._retrieved: dict[tuple[str, int], tuple[FrameworkExcerpt, ...]] = {}

    def __len__(self) -> int:
        return len(self.excerpts)

    def lookup(self, framework: str, identifier: str) -> Optional[FrameworkExcerpt]:
        return self._by_id.get((framework, identifier))

    def counts_by_framework(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for excerpt in self.excerpts:
            counts[excerpt.framework] = counts.get(excerpt.framework, 0) + 1
        return counts

    @classmethod
    def ingest(cls, path: Path) -> "Corpus":
        """One FrameworkExcerpt per non-blank line of a JSON Lines file; an
        identifier repeated within its framework raises RiskforgeError."""
        excerpts = load_records(path, FrameworkExcerpt)
        seen: set[tuple[str, str]] = set()
        for excerpt in excerpts:
            key = (excerpt.framework, excerpt.identifier)
            if key in seen:
                raise RiskforgeError(f"{path}: {excerpt.identifier!r} repeated")
            seen.add(key)
        return cls(excerpts)

    def retrieve(self, query: str, k: int) -> list[FrameworkExcerpt]:
        """Top-k excerpts by shared distinct-token count; zero scores
        excluded. Scored once per (query, k); each call returns a new list."""
        if k < 1:
            raise ValueError("k must be >= 1")
        hits = self._retrieved.get((query, k))
        if hits is None:  # threads that miss together store equal tuples
            query_tokens = tokenize(query)
            scored = []
            for excerpt in self.excerpts:
                score = len(query_tokens & self._doc_tokens[excerpt.identifier])
                if score > 0:
                    scored.append((score, excerpt))
            scored.sort(key=lambda item: (-item[0], item[1].identifier))
            hits = self._retrieved[(query, k)] = tuple(e for _, e in scored[:k])
        return list(hits)

    def verify_citations(self, text: str) -> list[FrameworkCitation]:
        citations = []
        for item in parse_identifiers(text):
            verified = (item["framework"], item["identifier"]) in self._by_id
            citations.append(FrameworkCitation(
                raw=item["raw"],
                framework=item["framework"],
                identifier=item["identifier"],
                verified=verified,
            ))
        return citations
