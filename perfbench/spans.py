"""Bench-side spans around riskforge's public calls, and the per-layer split.

``install`` replaces each public function or method listed in ``TARGETS``
with a wrapper that records a span: name, start, end, parent span and the
operation (run) it belongs to. Module-level functions are replaced in
every ``riskforge`` module that bound them by ``from ... import``, so
calls between modules are seen too. The two concurrent stage-2 agents run
in executor threads; a span opened on a thread with no open span of its
own takes the main thread's innermost open span as its parent (the
``orchestrator.parallel_stage`` span that brackets the executor).

Spans stay in memory; ``Tracer.dump`` writes them once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from riskforge import (context_store, contracts, evalkit, gateway, grounding,
                       orchestrator, report, tokens)

OP = "op"  # root span the benchmark opens around each operation


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span, op, attrs]
        self.op = -1
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack if threading.current_thread() is threading.main_thread()
                else [])
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = [name, 0.0, None, parent, self.op, None]
        self.spans.append(span)
        stack.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list, attrs: dict | None = None) -> None:
        span[2] = time.perf_counter()
        span[5] = attrs
        self._stack().pop()

    def dump(self, path: Path) -> None:
        """Write every span as one gzipped JSON line; a span's id is its line
        number after the header, and parent refers to that id."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "run", "attrs"]) + "\n")
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps([name, start, end,
                                     None if parent is None else index[id(parent)],
                                     op, attrs]) + "\n")


def _run_agent_attrs(args, result):
    return {"role": args[1], "attempts": result[1]}


def _complete_attrs(args, result):
    request = args[1]
    return {"role": request.role, "prompt_tokens": request.prompt_tokens}


def _budget_attrs(args, result):
    return {"ok": result.ok}


def _citation_attrs(args, result):
    return {"cited": len(result), "verified": sum(c.verified for c in result)}


# (owner, attribute, span name, attrs hook). The owner is a module for
# module-level functions and a class for methods.
TARGETS = [
    (orchestrator, "execute_pipeline", "orchestrator.execute_pipeline", None),
    (orchestrator, "enforce_budget", "orchestrator.enforce_budget", _budget_attrs),
    (orchestrator, "record_run", "orchestrator.record_run", None),
    (orchestrator, "load_ledger", "orchestrator.load_ledger", None),
    (contracts.ContractSet, "run_agent", "contracts.run_agent", _run_agent_attrs),
    (contracts.ContractSet, "assemble_prompt", "contracts.assemble_prompt", None),
    (contracts.ContractSet, "gather_grounding", "contracts.gather_grounding", None),
    (contracts.ContractSet, "validate_output", "contracts.validate_output", None),
    (contracts.ContractSet, "validate_single_output",
     "contracts.validate_single_output", None),
    (contracts, "extract_json_object", "contracts.extract_json_object", None),
    (grounding, "parse_identifiers", "grounding.parse_identifiers", None),
    (grounding.Corpus, "retrieve", "grounding.Corpus.retrieve", None),
    (grounding.Corpus, "verify_citations", "grounding.Corpus.verify_citations",
     _citation_attrs),
    (grounding.Corpus, "ingest", "grounding.Corpus.ingest", None),
    (gateway.StubGateway, "complete", "gateway.complete", _complete_attrs),
    (context_store.ContextStore, "append_entry", "context_store.append_entry", None),
    (context_store.ContextStore, "snapshot", "context_store.snapshot", None),
    (report, "render_report", "report.render_report", None),
    (report, "report_document", "report.report_document", None),
    (report, "citation_source_text", "report.citation_source_text", None),
    (report, "contradiction_flags", "report.contradiction_flags", None),
    (tokens, "canonical_json", "tokens.canonical_json", None),
    (tokens, "estimate_tokens", "tokens.estimate_tokens", None),
    (evalkit, "run_ablation", "evalkit.run_ablation", None),
    (evalkit, "compute_metrics", "evalkit.compute_metrics", None),
]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span, hook(args, result) if hook and result is not None else None)
    return traced


def _traced_executor(tracer: Tracer, base):
    class TracedExecutor(base):
        """The stage-2 executor; its lifetime is the parallel_stage span."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.open("orchestrator.parallel_stage")
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)
    return TracedExecutor


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "riskforge" or n.startswith("riskforge."))]
    undo = []
    for owner, attr, name, hook in TARGETS:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__, hook))
            else:
                new = _wrap(tracer, name, raw, hook)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        fn = getattr(owner, attr)
        new = _wrap(tracer, name, fn, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, key, fn))
                    setattr(module, key, new)
    base = orchestrator.ThreadPoolExecutor
    undo.append((orchestrator, "ThreadPoolExecutor", base))
    orchestrator.ThreadPoolExecutor = _traced_executor(tracer, base)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


def _covered(start: float, end: float, children: list) -> float:
    """Length of [start, end] covered by the union of the children's spans."""
    total = 0.0
    cursor = start
    for c_start, c_end in sorted((c[1], c[2]) for c in children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            cursor = c_end
    return total


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total seconds and self seconds, summed over
    operations. The ``op`` entry holds the operation count and time."""
    children = defaultdict(list)
    for span in tracer.spans:
        if span[3] is not None:
            children[id(span[3])].append(span)
    stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for span in tracer.spans:
        name, start, end = span[0], span[1], span[2]
        stat = stats[name]
        stat["calls"] += 1
        stat["total"] += end - start
        stat["self"] += end - start - _covered(start, end, children[id(span)])
    return stats


def agent_attempts(tracer: Tracer) -> list[int]:
    """Attempts per agent run: run_agent's return value in multi-agent mode;
    in single-agent mode, the gateway calls made directly under one
    execute_pipeline span (the single-agent retry loop)."""
    attempts = [s[5]["attempts"] for s in tracer.spans
                if s[0] == "contracts.run_agent" and s[5] is not None]
    single = defaultdict(int)
    for span in tracer.spans:
        if (span[0] == "gateway.complete" and span[3] is not None
                and span[3][0] == "orchestrator.execute_pipeline"):
            single[id(span[3])] += 1
    return attempts + list(single.values())


def attr_sum(tracer: Tracer, name: str, key: str) -> int:
    return sum(s[5][key] for s in tracer.spans if s[0] == name and s[5] is not None)


def parallel_busy(tracer: Tracer) -> float:
    """Summed durations of the run_agent spans inside parallel_stage spans."""
    return sum(s[2] - s[1] for s in tracer.spans
               if s[0] == "contracts.run_agent" and s[3] is not None
               and s[3][0] == "orchestrator.parallel_stage")
