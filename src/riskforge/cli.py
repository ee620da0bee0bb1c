"""Command-line interface.

Four verbs: assess runs one assessment end to end, eval computes metrics
from a run ledger and/or case-study fixtures, ablate sweeps profiles x
models x seeds into a ledger, and index-corpus validates a framework
corpus file. Exit codes: 0 success, 1 usage or input error, 2 a run that
executed but did not complete (the run record is still written).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from .contracts import DATA_DIR, ContractSet
from .errors import ProfileInvalid, RiskforgeError
from .evalkit import (AliasMap, ModelSpec, compute_metrics, load_annotations,
                      run_ablation)
from .gateway import HttpGateway, ModelConfig, StubGateway
from .grounding import Corpus
from .orchestrator import check_profile, execute_pipeline, load_ledger, record_run
from .risk_model import RiskItem

BUNDLED_CORPUS = DATA_DIR / "corpus" / "mini_csf.jsonl"
STUB_ROOT = DATA_DIR / "stub"


def _resolve_corpus(corpus_path) -> Path:
    if corpus_path:
        return Path(corpus_path)
    env = os.environ.get("RISKFORGE_CORPUS")
    if env:
        return Path(env)
    return BUNDLED_CORPUS


def _read_json(path, what: str, build=None):
    """The JSON document at path, passed through build when given. A file
    that cannot be read, is not JSON, or whose document build rejects
    (KeyError, TypeError, ValueError, ProfileInvalid) is a one-line error
    naming it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return build(doc) if build else doc
    except (OSError, KeyError, TypeError, ValueError, ProfileInvalid) as exc:
        raise click.ClickException(
            f"cannot read {what} {path}: {type(exc).__name__}: {exc}")


def _load_corpus(corpus_path) -> Corpus:
    path = _resolve_corpus(corpus_path)
    try:
        return Corpus.ingest(path)
    except (OSError, RiskforgeError) as exc:
        raise click.ClickException(f"cannot ingest corpus {path}: {exc}")


@click.group()
def main():
    """Automated cybersecurity risk assessment pipeline."""


@main.command()
@click.option("--profile", "profile_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Questionnaire JSON file.")
@click.option("--mode", type=click.Choice(["multi", "single"]), default="multi",
              show_default=True, help="Pipeline topology.")
@click.option("--provider", type=click.Choice(["stub", "http"]), default="stub",
              show_default=True)
@click.option("--script", default="specific", show_default=True,
              help="Stub script set (stub provider only).")
@click.option("--model", "model_id", default="stub-model", show_default=True)
@click.option("--window", default=131072, show_default=True,
              help="Context window in tokens.")
@click.option("--seed", default=0, show_default=True)
@click.option("--schema-mode", type=click.Choice(["case_study", "cross_sector"]),
              default="case_study", show_default=True)
@click.option("--corpus", "corpus_path", type=click.Path(), default=None,
              help="Framework corpus JSONL (default: RISKFORGE_CORPUS or bundled).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for run artifacts (report, session log, ledger).")
def assess(profile_path, mode, provider, script, model_id, window, seed,
           schema_mode, corpus_path, out_dir):
    """Run one risk assessment against a questionnaire."""
    profile = _read_json(profile_path, "profile")

    if provider == "stub":
        gateway = StubGateway(STUB_ROOT / script)
    else:
        base_url = os.environ.get("RISKFORGE_MODEL_URL")
        if not base_url:
            raise click.ClickException(
                "http provider requires the RISKFORGE_MODEL_URL environment variable")
        gateway = HttpGateway(base_url)

    corpus = _load_corpus(corpus_path)
    contracts = ContractSet(schema_mode=schema_mode)
    try:
        config = ModelConfig(model_id=model_id, context_window_tokens=window, seed=seed)
    except ValueError as exc:
        raise click.ClickException(f"--window {window}: {exc}")
    run_mode = "multi_agent" if mode == "multi" else "single_agent"

    try:
        record, _ = execute_pipeline(
            profile, config, run_mode, gateway, corpus, contracts,
            out_dir=Path(out_dir) if out_dir else None)
    except RiskforgeError as exc:
        raise click.ClickException(str(exc))

    if out_dir:
        record_run(record, Path(out_dir) / "ledger.jsonl")
    click.echo(json.dumps(record.to_json(), indent=2))
    if not record.completed:
        click.echo(f"run failed at stage {record.failed_stage} "
                   f"({record.failure_kind})", err=True)
        sys.exit(2)


@main.command("eval")
@click.option("--ledger", "ledger_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Run ledger JSONL for stability/variability/latency.")
@click.option("--annotations", "annotations_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--aliases", "aliases_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--register", "register_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="System risk register JSON for agreement/coverage.")
@click.option("--select", "selectors", multiple=True,
              help="Filter runs, e.g. --select model=ft-cybersec --select mode=single_agent.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of a table.")
def eval_cmd(ledger_path, annotations_path, aliases_path, register_path,
             selectors, as_json):
    """Compute evaluation metrics from runs and/or practitioner annotations."""
    if not ledger_path and not (register_path and annotations_path):
        raise click.ClickException(
            "nothing to evaluate: pass --ledger and/or --register with --annotations")

    selector = {}
    for item in selectors:
        if "=" not in item:
            raise click.ClickException(f"bad selector {item!r}, expected key=value")
        key, value = item.split("=", 1)
        if key not in ("model", "mode", "profile"):
            raise click.ClickException(f"unknown selector key {key!r}")
        selector[key] = value

    system = annotations = None
    aliases = AliasMap()
    try:
        if register_path and annotations_path:
            system = _read_json(register_path, "register", lambda doc: [
                RiskItem.from_dict(r) for r in doc["risks"]])
            annotations = load_annotations(Path(annotations_path))
            if aliases_path:
                aliases = _read_json(aliases_path, "aliases", AliasMap)
        records = load_ledger(Path(ledger_path)) if ledger_path else None
        report = compute_metrics(records=records, system=system,
                                 annotations=annotations, aliases=aliases,
                                 selector=selector or None)
    except RiskforgeError as exc:
        raise click.ClickException(str(exc))

    if as_json:
        click.echo(json.dumps(report.to_json(), indent=2))
    else:
        click.echo(report.render_table())


@main.command()
@click.option("--profiles", "profiles_dir", type=click.Path(exists=True, file_okay=False),
              default=str(DATA_DIR / "profiles"), show_default=True)
@click.option("--models", "models_path", type=click.Path(exists=True, dir_okay=False),
              default=str(DATA_DIR / "ablation_models.json"), show_default=True)
@click.option("--runs", "runs_per_cell", type=click.IntRange(min=1), default=3,
              show_default=True, help="Seeds per profile x model cell.")
@click.option("--mode", type=click.Choice(["multi", "single"]), default="single",
              show_default=True)
@click.option("--schema-mode", type=click.Choice(["case_study", "cross_sector"]),
              default="cross_sector", show_default=True)
@click.option("--corpus", "corpus_path", type=click.Path(), default=None)
@click.option("--out", "ledger_path", required=True, type=click.Path(dir_okay=False),
              help="Run ledger to append to (resumable).")
@click.option("--workers", default=1, show_default=True)
def ablate(profiles_dir, models_path, runs_per_cell, mode, schema_mode,
           corpus_path, ledger_path, workers):
    """Sweep profiles x models x seeds and append run records to a ledger."""
    contracts = ContractSet(schema_mode=schema_mode)
    profiles = [_read_json(path, "profile", lambda doc: check_profile(doc, contracts))
                for path in sorted(Path(profiles_dir).glob("*.json"))]
    if not profiles:
        raise click.ClickException(f"no profile JSON files in {profiles_dir}")
    specs = _read_json(models_path, "models", lambda docs: [
        ModelSpec(label=doc["label"], script=doc["script"],
                  context_window_tokens=doc.get("window", 4096)) for doc in docs])

    corpus = _load_corpus(corpus_path)
    run_mode = "multi_agent" if mode == "multi" else "single_agent"
    try:
        executed = run_ablation(profiles, specs, runs_per_cell, run_mode,
                                Path(ledger_path), contracts, corpus,
                                STUB_ROOT, workers=workers)
    except RiskforgeError as exc:
        raise click.ClickException(str(exc))
    total = len(profiles) * len(specs) * runs_per_cell
    click.echo(f"executed {executed} new runs ({total - executed} already in ledger)")


@main.command("index-corpus")
@click.option("--corpus", "corpus_path", type=click.Path(), default=None,
              help="Corpus JSONL (default: RISKFORGE_CORPUS or bundled).")
def index_corpus(corpus_path):
    """Validate a framework corpus and report per-framework excerpt counts."""
    path = _resolve_corpus(corpus_path)
    corpus = _load_corpus(corpus_path)
    click.echo(f"corpus: {path}")
    for framework, count in sorted(corpus.counts_by_framework().items()):
        click.echo(f"  {framework}: {count} excerpts")
    click.echo(f"  total: {len(corpus)} excerpts")


if __name__ == "__main__":
    main()
