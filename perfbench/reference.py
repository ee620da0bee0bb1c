"""Output digests and the reference check behind ``error_rate``.

The reference (``reference.json``) holds, per workload, the digests that
correct outputs must reproduce. Fields that differ between identical runs
are removed before hashing: run ids, wall times, session-log timestamps,
the ledger's latency figures, and the order in which the two concurrent
stage-2 entries land in the session log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
GOLDEN_CASE = "health_15/0"
GOLDEN_RELPATH = Path("tests") / "data" / "golden_health_15.md"


def _digest(doc) -> str:
    if not isinstance(doc, bytes):
        doc = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                         ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(doc).hexdigest()


def _stable_record(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("run_id", "wall_seconds")}


def assess_digests(out_dir: Path) -> tuple[dict, dict]:
    """Digests of one ``assess --out`` directory, plus artifact sizes."""
    run_dirs = [p for p in out_dir.iterdir() if p.is_dir()]
    if len(run_dirs) != 1:
        raise ValueError(f"expected one run directory in {out_dir}, found {len(run_dirs)}")
    run_dir = run_dirs[0]
    raw = {name: (run_dir / name).read_bytes()
           for name in ("report.md", "report.json", "session.jsonl")}

    report = json.loads(raw["report.json"])
    for field in ("run_id", "wall_seconds"):
        report.get("run_metadata", {}).pop(field, None)
    session = []
    for line in raw["session.jsonl"].decode("utf-8").splitlines():
        entry = json.loads(line)
        entry.pop("created_at")
        session.append(entry)
    session.sort(key=lambda e: (e["key"], e["revision"]))
    ledger = [_stable_record(json.loads(line)) for line in
              (out_dir / "ledger.jsonl").read_text(encoding="utf-8").splitlines()]

    digests = {
        "report_md": _digest(raw["report.md"]),
        "report_json": _digest(report),
        "session_payloads": _digest(session),
        "ledger_record": _digest(ledger),
    }
    return digests, {name: len(data) for name, data in raw.items()}


def sweep_digests(records, metrics) -> dict:
    """Digests of a sweep ledger (cell order removed) and its metrics."""
    docs = sorted((_stable_record(r.to_json()) for r in records),
                  key=lambda d: (d["profile_id"], d["model_id"], d["seed"]))
    summary = metrics.to_json()
    summary["latency"] = {"runs": summary["latency"]["runs"]}
    return {"ledger_records": _digest(docs), "metrics": _digest(summary)}


def golden_digest(root: Path) -> str:
    """Digest of the committed golden report for health_15 / stub seed 0."""
    return _digest((root / GOLDEN_RELPATH).read_bytes())


def load() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def mismatches(expected: dict, workload: str, key: str, digests: dict) -> list[str]:
    """Names of the digests that differ from the reference (empty if all match)."""
    want = expected[workload][key]
    return sorted(name for name in want.keys() | digests.keys()
                  if want.get(name) != digests.get(name))
