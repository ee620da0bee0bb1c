"""Self-check for the benchmark.

Usage (from the repository root): python3 perfbench/selfcheck.py

1. A one-second run of every workload, untraced and traced, must print a
   last line with exactly the declared keys, be correct, and carry every
   metric BENCHMARK.json declares for that mode, with its unit.
2. The reference check must pass real outputs and flag each digest when
   that digest is tampered with (in a copy held by this script; the
   committed reference is not touched).
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench-work" / "selfcheck"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, units "
                                f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    return problems


def check_tamper() -> list[str]:
    problems = []
    expected = reference.load()
    for name in workloads.NAMES:
        bench = workloads.make(name, 0, WORK)
        case = bench.prepare(0)
        result = bench.op(case)
        outcome = bench.outcome(case, result)
        if reference.mismatches(expected, name, outcome.key, outcome.digests):
            problems.append(f"{name}: real outputs fail the reference check")
        for digest in expected[name][outcome.key]:
            tampered = copy.deepcopy(expected)
            value = tampered[name][outcome.key][digest]
            tampered[name][outcome.key][digest] = ("0" if value[0] != "0" else "1") + value[1:]
            if reference.mismatches(tampered, name, outcome.key, outcome.digests) != [digest]:
                problems.append(f"{name}: tampered {digest} digest not flagged")
    return problems


def check_bare_directory() -> list[str]:
    bare = WORK / "bare"
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(bare, "assess_multi", 0)
    last = done.stdout.strip().splitlines()[-1:] if done.stdout.strip() else []
    if done.returncode == 0 or any(line.startswith("{") for line in last):
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "bare").mkdir(parents=True)
    try:
        problems = check_metrics(spec) + check_tamper() + check_bare_directory()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
