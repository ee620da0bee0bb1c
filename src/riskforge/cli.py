"""Command-line interface.

Four verbs: assess runs one assessment end to end, eval computes metrics
from a run ledger and/or a risk register such as a run's report.json, ablate
sweeps profiles x models x seeds into a ledger, and index-corpus validates a
framework corpus file. Exit codes: 0 success, 1 an input error (one "Error:" line),
2 a usage error or a run that executed but did not complete (the run
record is still written). A warning, such as a torn last ledger line
skipped, is one "Warning:" line on stderr and leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from .contracts import DATA_DIR, SCHEMA_MODES, ContractSet, encodes_utf8
from .errors import RiskforgeError
from .gateway import HttpGateway, ModelConfig, StubGateway
from .grounding import Corpus
from .orchestrator import check_profile, execute_pipeline, load_ledger, record_run
from .records import decode, mend_tail, read_json

BUNDLED_CORPUS = DATA_DIR / "corpus" / "mini_csf.jsonl"
STUB_ROOT = DATA_DIR / "stub"
RUN_MODES = {"multi": "multi_agent", "single": "single_agent"}  # --mode -> RunRecord.mode


def _check_out(out: str, directory: Path) -> None:
    """Raise before anything is written if directory, which --out out
    needs, or its nearest existing ancestor is not a directory."""
    existing = next(path for path in (directory, *directory.parents) if path.exists())
    if not existing.is_dir():
        named = f"--out {out}" if existing == Path(out) else f"--out {out}: {existing}"
        raise RiskforgeError(f"{named} is not a directory")


def _load_corpus(corpus_path) -> Corpus:
    try:
        return Corpus.ingest(Path(corpus_path))
    except RiskforgeError as exc:  # its message names the file
        raise RiskforgeError(f"cannot ingest corpus: {exc}")


def assess(profile_path, mode, provider, script, model_id, window, seed,
           schema_mode, corpus_path, out_dir):
    """Run one risk assessment against a questionnaire."""
    if not encodes_utf8(model_id):  # argv decodes an undecodable byte to a lone surrogate
        raise RiskforgeError(f"--model {model_id!r} does not encode to UTF-8")
    contracts = ContractSet(schema_mode=schema_mode)
    profile = read_json(profile_path, "profile", lambda doc: check_profile(doc, contracts))

    if provider == "stub":
        gateway = StubGateway(STUB_ROOT / script)
    else:
        base_url = os.environ.get("RISKFORGE_MODEL_URL")
        if not base_url:
            raise RiskforgeError(
                "http provider requires the RISKFORGE_MODEL_URL environment variable")
        gateway = HttpGateway(base_url)

    corpus = _load_corpus(corpus_path)
    try:
        config = ModelConfig(model_id=model_id, context_window_tokens=window, seed=seed)
    except ValueError as exc:
        raise RiskforgeError(f"--window {window}: {exc}")
    if out_dir:
        _check_out(out_dir, Path(out_dir))
        ledger = Path(out_dir) / "ledger.jsonl"
        if ledger.exists():  # mended before the run, so a ledger it cannot mend runs nothing
            mend_tail(ledger)

    record, _ = execute_pipeline(profile, config, RUN_MODES[mode], gateway, corpus, contracts,
                                 out_dir=Path(out_dir) if out_dir else None)
    if out_dir:
        record_run(record, ledger)
    print(json.dumps(record.to_json(), indent=2))
    if not record.completed:
        print(f"run failed at stage {record.failed_stage} ({record.failure_kind})",
              file=sys.stderr)
        sys.exit(2)


def eval_cmd(ledger_path, annotations_path, aliases_path, register_path,
             selectors, as_json):
    """Compute evaluation metrics from runs and/or practitioner annotations."""
    from .evalkit import AliasMap, compute_metrics, load_annotations  # eval and ablate only
    pair = {"--register": register_path, "--annotations": annotations_path}
    missing = [name for name, path in pair.items() if not path]
    given = [name for name, path in {**pair, "--aliases": aliases_path}.items() if path]
    if given and missing:
        raise RiskforgeError(f"{given[0]} needs {' and '.join(missing)}")
    if not ledger_path and not register_path:
        raise RiskforgeError(
            "nothing to evaluate: pass --ledger and/or --register with --annotations")

    selector = {}
    for item in selectors:
        if "=" not in item:
            raise RiskforgeError(f"bad selector {item!r}, expected key=value")
        key, value = item.split("=", 1)
        # a ledger spells a mode as RunRecord.mode does; --mode's spelling maps to it
        selector[key] = RUN_MODES.get(value, value) if key == "mode" else value

    system = annotations = None
    aliases = AliasMap()
    if register_path:
        from .risk_model import read_register
        system = read_json(register_path, "register", read_register)
        annotations = load_annotations(Path(annotations_path))
        if aliases_path:
            aliases = read_json(aliases_path, "aliases", lambda doc: AliasMap(
                decode(list[tuple[str, str]], doc)))
    records = load_ledger(Path(ledger_path)) if ledger_path else None
    report = compute_metrics(records=records, system=system, annotations=annotations,
                             aliases=aliases, selector=selector or None)
    if as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_table())


def ablate(profiles_dir, models_path, runs_per_cell, mode, schema_mode,
           corpus_path, ledger_path, workers):
    """Sweep profiles x models x seeds and append run records to a ledger."""
    from .evalkit import read_models, run_ablation
    contracts = ContractSet(schema_mode=schema_mode)
    profiles = [read_json(path, "profile", lambda doc: check_profile(doc, contracts))
                for path in sorted(Path(profiles_dir).glob("*.json"))]
    if not profiles:
        raise RiskforgeError(f"no profile JSON files in {profiles_dir}")
    specs = read_json(models_path, "models", read_models)

    corpus = _load_corpus(corpus_path)
    _check_out(ledger_path, Path(ledger_path).parent)
    executed = run_ablation(profiles, specs, runs_per_cell, RUN_MODES[mode], Path(ledger_path),
                            contracts, corpus, STUB_ROOT, workers=workers)
    total = len(profiles) * len(specs) * runs_per_cell
    print(f"executed {executed} new runs ({total - executed} already in ledger)")


def index_corpus(corpus_path):
    """Validate a framework corpus and report per-framework excerpt counts."""
    corpus = _load_corpus(corpus_path)
    print(f"corpus: {corpus_path}")
    for framework, count in sorted(corpus.counts_by_framework().items()):
        print(f"  {framework}: {count} excerpts")
    print(f"  total: {len(corpus)} excerpts")


def _run_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number of at least 1")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskforge", add_help=False,
        description="Automated cybersecurity risk assessment pipeline.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    verbs = parser.add_subparsers(metavar="VERB", required=True)

    def verb(name, run):
        sub = verbs.add_parser(name, help=run.__doc__, description=run.__doc__,
                               add_help=False)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=run)
        return sub.add_argument

    option = verb("assess", assess)
    option("--profile", dest="profile_path", required=True, help="Questionnaire JSON file.")
    option("--mode", choices=RUN_MODES, default="multi", help="Pipeline topology.")
    option("--provider", choices=["stub", "http"], default="stub")
    option("--script", default="specific", help="Stub script set (stub provider only).")
    option("--model", dest="model_id", default="stub-model")
    option("--window", type=int, default=131072, help="Context window in tokens.")
    option("--seed", type=int, default=0)
    option("--schema-mode", choices=SCHEMA_MODES, default="case_study")
    option("--corpus", dest="corpus_path", default=str(BUNDLED_CORPUS),
           help="Framework corpus JSONL (default: the bundled corpus).")
    option("--out", dest="out_dir",
           help="Directory for run artifacts (report, session log, ledger).")

    option = verb("eval", eval_cmd)
    option("--ledger", dest="ledger_path",
           help="Run ledger JSONL for stability/variability/latency.")
    option("--annotations", dest="annotations_path")
    option("--aliases", dest="aliases_path")
    option("--register", dest="register_path",
           help="System risk register JSON for agreement/coverage.")
    option("--select", dest="selectors", action="append", default=[],
           help="Filter runs, e.g. --select model=ft-cybersec --select mode=single.")
    option("--json", dest="as_json", action="store_true", help="Emit JSON instead of a table.")

    option = verb("ablate", ablate)
    option("--profiles", dest="profiles_dir", default=str(DATA_DIR / "profiles"))
    option("--models", dest="models_path", default=str(DATA_DIR / "ablation_models.json"))
    option("--runs", dest="runs_per_cell", type=_run_count, default=3,
           help="Seeds per profile x model cell.")
    option("--mode", choices=RUN_MODES, default="single")
    option("--schema-mode", choices=SCHEMA_MODES, default="cross_sector")
    option("--corpus", dest="corpus_path", default=str(BUNDLED_CORPUS))
    option("--out", dest="ledger_path", required=True,
           help="Run ledger to append to (resumable).")
    option("--workers", type=int, default=1)

    option = verb("index-corpus", index_corpus)
    option("--corpus", dest="corpus_path", default=str(BUNDLED_CORPUS),
           help="Corpus JSONL (default: the bundled corpus).")
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"Warning: {message}", file=sys.stderr)


def main(argv=None) -> None:
    """Run the verb that argv (default: sys.argv[1:]) names."""
    options = vars(_parser().parse_args(argv))
    run = options.pop("run")
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            run(**options)
        except (RiskforgeError, OSError) as exc:  # OSError: say, an --out it cannot write
            print(f"Error: {exc}", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
