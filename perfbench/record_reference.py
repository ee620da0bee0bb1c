"""Record reference.json: the output digests every benchmark operation must match.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs each assess_multi case (5 profiles x stub seeds 0-2) and each sweep
once, twice over, and refuses to write unless both passes agree and the
health_15 / stub seed 0 report equals tests/data/golden_health_15.md.
Re-record only when a change is meant to alter outputs.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def record(work: Path) -> dict:
    doc = {}
    for name in workloads.NAMES:
        bench = workloads.make(name, 0, work)
        entries = {}
        for i in range(bench.warmup_count()):
            case = bench.prepare(i)
            result = bench.op(case)
            outcome = bench.outcome(case, result)
            entries[outcome.key] = outcome.digests
        doc[name] = dict(sorted(entries.items()))
    return doc


def main() -> int:
    work = ROOT / ".perfbench-work" / "record"
    try:
        first, second = record(work), record(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if first != second:
        print("outputs differ between two passes; not recording", file=sys.stderr)
        return 1
    if first["assess_multi"][reference.GOLDEN_CASE]["report_md"] != \
            reference.golden_digest(ROOT):
        print(f"{reference.GOLDEN_CASE} report differs from {reference.GOLDEN_RELPATH}; "
              "not recording", file=sys.stderr)
        return 1
    reference.REFERENCE_PATH.write_text(json.dumps(first, indent=2) + "\n",
                                        encoding="utf-8")
    print(f"wrote {reference.REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
