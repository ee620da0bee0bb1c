"""Framework corpus: ingestion, identifier parsing, retrieval, verification.

Control citations emitted by a model are only trusted if the identifier
exists verbatim in the ingested corpus; everything else is flagged for
human review rather than dropped. Retrieval is deterministic keyword
overlap, which is sufficient for grounding excerpts at this scale.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import DuplicateIdentifier, MalformedCorpus

# Identifier grammars. NIST CSF: two uppercase letters, dot, two or three
# uppercase letters, hyphen, one or two digits. CIS: literal prefix plus a
# number with optional .sub component. Each lookbehind follows the first
# character, so the regex engine can scan for that character first.
NIST_CSF_RE = re.compile(r"[A-Z](?<![A-Z0-9.][A-Z])[A-Z]\.[A-Z]{2,3}-\d{1,2}(?!\d)")
CIS_RE = re.compile(r"C(?<![A-Za-z]C)IS Control (\d+(?:\.\d+)?)(?![\d.])")
CIS_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")

# Small fixed function-word list; determinism matters more than linguistic
# sophistication here.
STOPWORDS = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has",
    "have", "in", "is", "it", "its", "of", "on", "or", "that", "the",
    "their", "this", "to", "was", "were", "which", "will", "with", "not",
})


@dataclass(frozen=True)
class FrameworkExcerpt:
    framework: str  # "nist_csf" or "cis"
    identifier: str
    title: str
    body: str


@dataclass(frozen=True)
class FrameworkCitation:
    raw: str
    framework: str
    identifier: str
    span: tuple[int, int]
    verified: bool


def tokenize(text: str) -> set[str]:
    return {
        tok for tok in re.split(r"[^0-9a-z]+", text.lower())
        if tok and tok not in STOPWORDS
    }


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
    found.sort(key=lambda item: item["span"])
    result = []
    last_end = -1
    for item in found:
        if item["span"][0] >= last_end:
            result.append(item)
            last_end = item["span"][1]
    return result


def _validate_identifier(framework: str, identifier: str) -> bool:
    if framework == "nist_csf":
        return NIST_CSF_RE.fullmatch(identifier) is not None
    if framework == "cis":
        return CIS_NUMBER_RE.fullmatch(identifier) is not None
    return False


class Corpus:
    """Immutable index of framework excerpts after ingestion."""

    def __init__(self, excerpts: list[FrameworkExcerpt]):
        self.excerpts = list(excerpts)
        self._by_id: dict[tuple[str, str], FrameworkExcerpt] = {
            (e.framework, e.identifier): e for e in excerpts
        }
        self._doc_tokens: dict[str, set[str]] = {
            e.identifier: tokenize(e.title + " " + e.body) for e in excerpts
        }

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
        excerpts: list[FrameworkExcerpt] = []
        seen: set[tuple[str, str]] = set()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedCorpus(lineno, f"invalid JSON: {exc}") from exc
                missing = {"framework", "identifier", "title", "body"} - set(doc)
                if missing:
                    raise MalformedCorpus(lineno, f"missing fields: {sorted(missing)}")
                framework = doc["framework"]
                identifier = doc["identifier"]
                if framework not in ("nist_csf", "cis"):
                    raise MalformedCorpus(lineno, f"unknown framework {framework!r}")
                if not _validate_identifier(framework, identifier):
                    raise MalformedCorpus(
                        lineno, f"identifier {identifier!r} does not parse for {framework}")
                key = (framework, identifier)
                if key in seen:
                    raise DuplicateIdentifier(f"line {lineno}: {identifier!r} repeated")
                seen.add(key)
                excerpts.append(FrameworkExcerpt(
                    framework=framework, identifier=identifier,
                    title=doc["title"], body=doc["body"],
                ))
        return cls(excerpts)

    def retrieve(self, query: str, k: int) -> list[FrameworkExcerpt]:
        """Top-k excerpts by shared distinct-token count; zero scores excluded."""
        if k < 1:
            raise ValueError("k must be >= 1")
        query_tokens = tokenize(query)
        scored = []
        for excerpt in self.excerpts:
            score = len(query_tokens & self._doc_tokens[excerpt.identifier])
            if score > 0:
                scored.append((score, excerpt))
        scored.sort(key=lambda item: (-item[0], item[1].identifier))
        return [excerpt for _, excerpt in scored[:k]]

    def verify_citations(self, text: str) -> list[FrameworkCitation]:
        citations = []
        for item in parse_identifiers(text):
            verified = (item["framework"], item["identifier"]) in self._by_id
            citations.append(FrameworkCitation(
                raw=item["raw"],
                framework=item["framework"],
                identifier=item["identifier"],
                span=item["span"],
                verified=verified,
            ))
        return citations
