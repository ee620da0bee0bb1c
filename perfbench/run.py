"""riskforge benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: assess_multi, ablate_single, ablate_multi_overflow (see
workloads.py and BENCHMARK.json). The program is imported from ``src/``
of the checkout the script sits in; nothing is installed.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer split from the traced ones, plus the tracing overhead. Every
operation's outputs are checked against ``reference.json``.

Human-readable lines come first on stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics. Run
artifacts, the result record (with its environment stamp) and the span
dump go under ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(SRC))
try:
    import reference
    import riskforge
    import spans
    import workloads
except ImportError as exc:  # e.g. a directory without the riskforge sources
    sys.exit(f"perfbench: cannot import riskforge from {SRC}: {exc}")

SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
MIN_OPS = 5  # at least this many measured operations, however short the run


def _env_stamp(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "jsonschema": metadata.version("jsonschema"),
            "workload_seed": seed}


def _setup_seconds(workload: str, seed: int, work: Path) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, after one untimed
    probe that leaves the bytecode cache warm."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(work)]
    values = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            values.append(float(done.stdout.strip().splitlines()[-1]))
    return values




class Runner:
    """Runs one workload's operations and checks each against the reference."""

    def __init__(self, bench, expected: dict):
        self.bench = bench
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.log_bytes = 0
        self.artifact_bytes = 0

    def run(self, i: int, tracer=None) -> tuple[float | None, int]:
        """One operation. Returns its wall seconds (None if it raised) and
        the pipeline runs it finished; preparation and the output check are
        not timed."""
        case = self.bench.prepare(i)
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = self.bench.op(case)
                elapsed = time.perf_counter() - start
            else:
                tracer.op = i
                restore = spans.install(tracer)
                try:
                    root = tracer.open(spans.OP)
                    try:
                        result = self.bench.op(case)
                    finally:
                        tracer.close(root)
                finally:
                    restore()
                elapsed = root[2] - root[1]
            outcome = self.bench.outcome(case, result)
        except Exception:
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return None, 0
        bad = reference.mismatches(self.expected, self.bench.name, outcome.key,
                                   outcome.digests)
        if bad:
            self.failed += 1
            if self.failed == 1:
                print(f"reference mismatch on {outcome.key}: {', '.join(bad)}",
                      file=sys.stderr)
        if tracer is not None:
            self.log_bytes += outcome.log_bytes
            self.artifact_bytes += outcome.artifact_bytes
        return elapsed, outcome.runs


def _end_to_end(times: list[float], runs: int, setup: list[float]) -> dict:
    return {
        "latency_p90_ms": (statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
                           "ms"),
        "runs_per_s": (runs / sum(times), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(runner: Runner, tracer, traced: list[float], untraced: list[float]) -> dict:
    stats = spans.summarize(tracer)
    ops = stats[spans.OP]["calls"]
    op_seconds = stats[spans.OP]["total"]

    def calls(name):
        return stats[name]["calls"] / ops, "count"

    def ms(name, kind="total"):
        return stats[name][kind] / ops * 1e3, "ms"

    def pct(name, kind="self"):
        return stats[name][kind] / op_seconds * 100, "%"

    attempts = spans.agent_attempts(tracer)
    wall = stats["orchestrator.parallel_stage"]["total"]
    m = {
        "orchestrator.execute_pipeline.calls": calls("orchestrator.execute_pipeline"),
        "orchestrator.execute_pipeline.self_ms": ms("orchestrator.execute_pipeline", "self"),
        "orchestrator.execute_pipeline.self_pct": pct("orchestrator.execute_pipeline"),
        "orchestrator.enforce_budget.calls": calls("orchestrator.enforce_budget"),
        "orchestrator.overflows": (sum(
            1 for s in tracer.spans if s[0] == "orchestrator.enforce_budget"
            and s[5] is not None and not s[5]["ok"]) / ops, "count"),
        "orchestrator.record_run.ms": ms("orchestrator.record_run"),
        "orchestrator.load_ledger.self_pct": pct("orchestrator.load_ledger"),
        "orchestrator.parallel_stage.calls": calls("orchestrator.parallel_stage"),
        "orchestrator.parallel_stage.wall_pct": (wall / op_seconds * 100, "%"),
        "orchestrator.parallel_stage.busy_pct": (
            spans.parallel_busy(tracer) / op_seconds * 100, "%"),
        "orchestrator.parallel_stage.self_pct": pct("orchestrator.parallel_stage"),
        "contracts.run_agent.calls": calls("contracts.run_agent"),
        "contracts.run_agent.self_pct": pct("contracts.run_agent"),
        "contracts.agent_runs": (len(attempts) / ops, "count"),
        "contracts.attempts": (sum(attempts) / ops, "count"),
        "contracts.first_attempt_ratio": (
            sum(1 for a in attempts if a == 1) / len(attempts), "ratio"),
    }
    for name in ("contracts.assemble_prompt", "contracts.gather_grounding",
                 "contracts.validate_output", "contracts.validate_single_output"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_pct"] = pct(name)
    m.update({
        "contracts.extract_json_object.calls": calls("contracts.extract_json_object"),
        "contracts.extract_json_object.ms": ms("contracts.extract_json_object"),
        "contracts.extract_json_object.self_pct": pct("contracts.extract_json_object"),
        "grounding.parse_identifiers.calls": calls("grounding.parse_identifiers"),
        "grounding.parse_identifiers.self_pct": pct("grounding.parse_identifiers"),
        "grounding.Corpus.retrieve.calls": calls("grounding.Corpus.retrieve"),
        "grounding.Corpus.retrieve.ms": ms("grounding.Corpus.retrieve"),
        "grounding.Corpus.verify_citations.calls": calls("grounding.Corpus.verify_citations"),
        "grounding.Corpus.verify_citations.self_pct": pct("grounding.Corpus.verify_citations"),
        "grounding.cited_identifiers": (spans.attr_sum(
            tracer, "grounding.Corpus.verify_citations", "cited") / ops, "count"),
        "grounding.verified_citations": (spans.attr_sum(
            tracer, "grounding.Corpus.verify_citations", "verified") / ops, "count"),
        "grounding.Corpus.ingest.calls": calls("grounding.Corpus.ingest"),
        "grounding.Corpus.ingest.self_pct": pct("grounding.Corpus.ingest"),
        "gateway.complete.calls": calls("gateway.complete"),
        "gateway.complete.ms": ms("gateway.complete"),
        "gateway.prompt_tokens": (spans.attr_sum(
            tracer, "gateway.complete", "prompt_tokens") / ops, "tokens"),
        "gateway.provider_share": pct("gateway.complete", "total"),
        "context_store.append_entry.calls": calls("context_store.append_entry"),
        "context_store.append_entry.ms": ms("context_store.append_entry"),
        "context_store.snapshot.calls": calls("context_store.snapshot"),
        "context_store.snapshot.self_pct": pct("context_store.snapshot"),
        "context_store.log_bytes": (runner.log_bytes / ops, "bytes"),
    })
    for name in ("report.render_report", "report.report_document",
                 "report.citation_source_text", "report.contradiction_flags"):
        m[f"{name}.self_pct"] = pct(name)
    m.update({
        "report.artifact_bytes": (runner.artifact_bytes / ops, "bytes"),
        "tokens.canonical_json.calls": calls("tokens.canonical_json"),
        "tokens.canonical_json.ms": ms("tokens.canonical_json"),
        "tokens.estimate_tokens.calls": calls("tokens.estimate_tokens"),
        "evalkit.run_ablation.self_pct": pct("evalkit.run_ablation"),
        "evalkit.compute_metrics.self_pct": pct("evalkit.compute_metrics"),
        "bench.unspanned_pct": pct(spans.OP),
        "trace.untraced_p50_ms": (statistics.median(untraced) * 1e3, "ms"),
        "trace.traced_p50_ms": (statistics.median(traced) * 1e3, "ms"),
        "trace.overhead_ms": ((statistics.median(traced) - statistics.median(untraced))
                              * 1e3, "ms"),
    })
    return m


def _span_table(tracer) -> list[str]:
    stats = spans.summarize(tracer)
    ops = stats[spans.OP]["calls"]
    op_seconds = stats[spans.OP]["total"]
    lines = [f"{'span':44} {'calls/op':>9} {'total ms/op':>12} {'self ms/op':>11} {'self %':>7}"]
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(f"{name:44} {s['calls'] / ops:9.2f} {s['total'] / ops * 1e3:12.4f} "
                     f"{s['self'] / ops * 1e3:11.4f} {s['self'] / op_seconds * 100:7.2f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if Path(riskforge.__file__).resolve().parent != (SRC / "riskforge").resolve():
        print(f"perfbench: riskforge imported from {riskforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    stamp = _env_stamp(args.seed)
    expected = reference.load()
    work = WORK / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else _setup_seconds(args.workload, args.seed, work)
        bench = workloads.make(args.workload, args.seed, work)
        runner = Runner(bench, expected)
        golden_ok = (args.workload != "assess_multi"
                     or expected["assess_multi"][reference.GOLDEN_CASE]["report_md"]
                     == reference.golden_digest(ROOT))
        for i in range(bench.warmup_count()):
            runner.run(i)
        warmup_failed = runner.failed
        runner.attempted = runner.failed = 0

        tracer = spans.Tracer() if args.trace else None
        times: list[float] = []
        traced: list[float] = []
        runs = 0
        deadline = time.perf_counter() + args.seconds
        i = 0
        while time.perf_counter() < deadline or i < MIN_OPS:
            traced_op = tracer is not None and i % 2 == 1
            elapsed, n = runner.run(i, tracer if traced_op else None)
            if elapsed is not None:
                (traced if traced_op else times).append(elapsed)
                runs += 0 if traced_op else n
            i += 1
        if tracer is not None:
            metrics = _per_layer(runner, tracer, traced, times)
        else:
            metrics = _end_to_end(times, runs, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = golden_ok and warmup_failed == 0 and runner.failed == 0
    p50_ms = statistics.median(times) * 1e3
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps({
        "env": stamp, "workload": args.workload, "seconds": args.seconds,
        "ops": runner.attempted, "untraced_ops": len(times), "traced_ops": len(traced),
        "setup_samples": setup, "latency_p50_ms": p50_ms, "correct": correct,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"latency_p50_ms={p50_ms:.4f} ms (untraced; not a declared metric, see README)")
    print(f"ops attempted={runner.attempted} failed={runner.failed} "
          f"error_rate={runner.failed / runner.attempted:g} warmup_failed={warmup_failed} "
          f"(untraced samples={len(times)}, traced samples={len(traced)}, "
          f"setup samples={len(setup)}); golden report check: "
          f"{'ok' if golden_ok else 'MISMATCH'}")
    if tracer is not None:
        print("\n".join(_span_table(tracer)))
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}.jsonl.gz")
    for name, (value, unit) in metrics.items():
        print(f"{name:44} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
