"""The six agent contracts: reads, writes, prompt assembly, output validation.

Each contract declares which context keys the agent reads, the single key
it writes, its prompt template file, its output schema file, and an
optional grounding query. Prompt assembly injects the serialized read
entries, the retrieved framework excerpts verbatim, and a citation policy
restricting the agent to those excerpts. Output validation extracts the
first JSON object from the raw text (models wrap output in prose) and
checks it against the role's schema; schema failures trigger a bounded
re-prompt with the violation list attached.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import jsonschema

from .context_store import ContextEntry, ContextSnapshot, ContextStore
from .errors import AgentFailed, MissingContextKey, Unparseable
from .gateway import RETRY_MARKER, CompletionRequest, ModelConfig
from .grounding import Corpus, FrameworkExcerpt

ROLES = (
    "risk_intake",
    "threat_modeling",
    "control_assessment",
    "risk_scoring",
    "mitigation",
    "report_synthesis",
)

ENTRY_KINDS = (
    "org_profile",
    "threat_model",
    "control_assessment",
    "risk_register",
    "recommendations",
    "report",
)

# The execution plan: stages run in order, the roles inside a stage run
# concurrently. Every role reads only keys written by earlier stages.
STAGES: tuple[tuple[str, ...], ...] = (
    ("risk_intake",),
    ("threat_modeling", "control_assessment"),
    ("risk_scoring",),
    ("mitigation",),
    ("report_synthesis",),
)

MAX_ATTEMPTS = 3  # initial attempt plus two validation re-prompts

DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class AgentContract:
    role: str
    reads: tuple[str, ...]
    writes: str
    template_name: str
    schema_name: str
    grounding_query: Optional[str] = None
    grounding_k: int = 0


CONTRACTS: dict[str, AgentContract] = {
    "risk_intake": AgentContract(
        role="risk_intake",
        reads=(),
        writes="org_profile",
        template_name="risk_intake.txt",
        schema_name="org_profile.json",
    ),
    "threat_modeling": AgentContract(
        role="threat_modeling",
        reads=("org_profile",),
        writes="threat_model",
        template_name="threat_modeling.txt",
        schema_name="threat_model.json",
        grounding_query="asset inventory risk identification threats vulnerabilities",
        grounding_k=2,
    ),
    "control_assessment": AgentContract(
        role="control_assessment",
        reads=("org_profile",),
        writes="control_assessment",
        template_name="control_assessment.txt",
        schema_name="control_assessment.json",
        grounding_query="access control authentication monitoring logging incident "
                        "response recovery backup policy awareness",
        grounding_k=4,
    ),
    "risk_scoring": AgentContract(
        role="risk_scoring",
        reads=("org_profile", "threat_model", "control_assessment"),
        writes="risk_register",
        template_name="risk_scoring.txt",
        schema_name="risk_register.json",
    ),
    "mitigation": AgentContract(
        role="mitigation",
        reads=("org_profile", "risk_register"),
        writes="recommendations",
        template_name="mitigation.txt",
        schema_name="recommendations.json",
        grounding_query="security policy incident response plan recovery",
        grounding_k=2,
    ),
    "report_synthesis": AgentContract(
        role="report_synthesis",
        reads=("org_profile", "threat_model", "control_assessment",
               "risk_register", "recommendations"),
        writes="report",
        template_name="report_synthesis.txt",
        schema_name="report.json",
    ),
}


@dataclass(frozen=True)
class ValidationOutcome:
    valid: bool
    violations: tuple[tuple[str, str], ...]  # (document path, message)
    attempt: int


_DECODER = json.JSONDecoder()


def extract_json_object(raw: str) -> dict:
    """Return the first JSON object embedded in raw text.

    Decoding starts at each "{" in turn, so prose around the object (or
    braces inside its strings) does not break extraction; a candidate that
    does not decode moves the search to the next "{".
    """
    start = raw.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(raw, start)[0]
        except json.JSONDecodeError:
            start = raw.find("{", start + 1)
    raise Unparseable("no balanced JSON object found in output")


class ContractSet:
    """Contracts plus their loaded templates and schemas.

    schema_mode selects output cardinality: "cross_sector" pins threats,
    risks, and recommendations to exactly three apiece (the structural
    stability criterion); "case_study" relaxes the register to 3..10 risks
    and threats to 3..5.
    """

    def __init__(self, templates_dir: Optional[Path] = None,
                 schemas_dir: Optional[Path] = None,
                 schema_mode: str = "case_study"):
        if schema_mode not in ("case_study", "cross_sector"):
            raise ValueError(f"unknown schema mode {schema_mode!r}")
        self.schema_mode = schema_mode
        self.templates_dir = Path(templates_dir or DATA_DIR / "templates")
        self.schemas_dir = Path(schemas_dir or DATA_DIR / "schemas")
        self._templates: dict[str, str] = {}
        self._schemas: dict[str, dict] = {}

    def contract(self, role: str) -> AgentContract:
        if role not in CONTRACTS:
            raise KeyError(f"unknown agent role {role!r}")
        return CONTRACTS[role]

    def template_text(self, name: str) -> str:
        if name not in self._templates:
            self._templates[name] = (self.templates_dir / name).read_text(encoding="utf-8")
        return self._templates[name]

    def schema(self, name: str) -> dict:
        if name not in self._schemas:
            doc = json.loads((self.schemas_dir / name).read_text(encoding="utf-8"))
            self._schemas[name] = self._apply_mode(name, doc)
        return self._schemas[name]

    def _apply_mode(self, name: str, schema: dict) -> dict:
        if self.schema_mode == "cross_sector":
            return schema
        schema = copy.deepcopy(schema)
        props = schema.get("properties", {})
        bounds = {"threats": (3, 5), "risks": (3, 10), "recommendations": (3, 10)}
        for field, (lo, hi) in bounds.items():
            if field in props and props[field].get("type") == "array":
                props[field]["minItems"] = lo
                props[field]["maxItems"] = hi
        return schema

    def questionnaire_schema(self) -> dict:
        return self.schema("questionnaire.json")

    # -- prompt assembly ---------------------------------------------------

    def assemble_prompt(self, role: str, snapshot: ContextSnapshot,
                        grounding: list[FrameworkExcerpt],
                        extra: Optional[dict[str, str]] = None) -> str:
        contract = self.contract(role)
        for key in contract.reads:
            if snapshot.get(key) is None:
                raise MissingContextKey(role, key)

        task = self.template_text(contract.template_name)
        for placeholder, value in (extra or {}).items():
            task = task.replace("{{" + placeholder + "}}", value)
        if "{{" in task and "}}" in task:
            unfilled = task[task.index("{{"):task.index("}}") + 2]
            raise ValueError(f"unfilled template placeholder {unfilled} for role {role!r}")

        parts = [
            f"You are the {role} agent in an automated cybersecurity risk "
            f"assessment pipeline.",
            "",
            "=== SHARED CONTEXT ===",
        ]
        if contract.reads:
            for key in contract.reads:
                entry = snapshot.get(key)
                parts.append(f"--- {key} (revision {entry.revision}) ---")
                parts.append(entry.canonical_text)
        else:
            parts.append("(no prior context for this role)")
        parts.append("")
        parts.append("=== FRAMEWORK EXCERPTS ===")
        if grounding:
            for excerpt in grounding:
                parts.append(f"[{excerpt.framework} {excerpt.identifier}] "
                             f"{excerpt.title}: {excerpt.body}")
        else:
            parts.append("(none supplied)")
        parts.append("")
        parts.append("=== CITATION POLICY ===")
        parts.append(
            "Reference framework control identifiers only if they appear verbatim "
            "in the FRAMEWORK EXCERPTS section above. Never cite an identifier "
            "from memory; if no excerpt supports a claim, describe the control "
            "in plain language instead."
        )
        parts.append("")
        parts.append("=== TASK ===")
        parts.append(task.strip())
        parts.append("")
        parts.append("Respond with a single JSON object that satisfies the required "
                     "output schema for this role.")
        return "\n".join(parts)

    def gather_grounding(self, role: str, snapshot: ContextSnapshot,
                         corpus: Optional[Corpus]) -> list[FrameworkExcerpt]:
        """Retrieved excerpts plus carry-forward excerpts for every corpus
        identifier already cited inside the role's read entries, so the
        citation policy stays satisfiable as citations flow downstream."""
        if corpus is None:
            return []
        contract = self.contract(role)
        excerpts: dict[tuple[str, str], FrameworkExcerpt] = {}
        if contract.grounding_query and contract.grounding_k > 0:
            for excerpt in corpus.retrieve(contract.grounding_query, contract.grounding_k):
                excerpts[(excerpt.framework, excerpt.identifier)] = excerpt
        for key in contract.reads:
            entry = snapshot.get(key)
            if entry is None:
                continue
            for item in entry.cited_identifiers:
                hit = corpus.lookup(item["framework"], item["identifier"])
                if hit is not None:
                    excerpts[(hit.framework, hit.identifier)] = hit
        return sorted(excerpts.values(), key=lambda e: (e.framework, e.identifier))

    def build_prompt(self, role: str, snapshot: ContextSnapshot,
                     corpus: Optional[Corpus],
                     extra: Optional[dict[str, str]] = None) -> str:
        """The role's full prompt over a snapshot: grounding, then assembly."""
        grounding = self.gather_grounding(role, snapshot, corpus)
        return self.assemble_prompt(role, snapshot, grounding, extra=extra)

    # -- output validation -------------------------------------------------

    def validate_output(self, role: str, raw: str,
                        attempt: int = 1) -> tuple[ValidationOutcome, dict]:
        """Parse and schema-check raw model output. Raises Unparseable when
        no balanced object exists; schema violations are reported in the
        outcome, not raised."""
        return self._validate(self.contract(role).schema_name, raw, attempt)

    def validate_single_output(self, raw: str,
                               attempt: int = 1) -> tuple[ValidationOutcome, dict]:
        """Validate the combined 3/3/3 document from a single-agent run."""
        return self._validate("single_agent.json", raw, attempt)

    def _validate(self, schema_name: str, raw: str,
                  attempt: int) -> tuple[ValidationOutcome, dict]:
        doc = extract_json_object(raw)
        validator = jsonschema.Draft202012Validator(self.schema(schema_name))
        violations = tuple(sorted(
            (error.json_path, error.message)
            for error in validator.iter_errors(doc)
        ))
        return ValidationOutcome(valid=not violations, violations=violations,
                                 attempt=attempt), doc

    # -- agent execution ---------------------------------------------------

    def run_agent(self, role: str, prompt: str, store: ContextStore, gateway,
                  config: ModelConfig) -> tuple[ContextEntry, int]:
        """Complete, validate, retry, append, starting from a prompt made by
        build_prompt. Returns the appended entry and the number of attempts
        used."""
        contract = self.contract(role)
        last_violations: tuple[tuple[str, str], ...] = ()
        for attempt in range(1, MAX_ATTEMPTS + 1):
            result = gateway.complete(CompletionRequest(role=role, prompt=prompt, config=config))
            try:
                outcome, doc = self.validate_output(role, result.text, attempt=attempt)
            except Unparseable as exc:
                outcome = ValidationOutcome(
                    valid=False, violations=(("$", str(exc)),), attempt=attempt)
                doc = None
            if outcome.valid:
                entry = store.append_entry(contract.writes, role, doc)
                return entry, attempt
            last_violations = outcome.violations
            violation_lines = "\n".join(f"- {path}: {msg}" for path, msg in last_violations)
            prompt = (
                f"{prompt}\n\n=== {RETRY_MARKER} ===\n"
                f"Your previous output did not satisfy the schema:\n{violation_lines}\n"
                f"Emit a corrected JSON object."
            )
        raise AgentFailed(role, last_violations)

    def combined_task_text(self, questionnaire_json: str) -> str:
        """Concatenated task instructions of all six roles, for the
        single-agent ablation baseline."""
        blocks = []
        for role in ROLES:
            task = self.template_text(self.contract(role).template_name)
            task = task.replace("{{questionnaire}}", questionnaire_json)
            blocks.append(f"## Stage: {role}\n{task.strip()}")
        return "\n\n".join(blocks)


def check_contract_dag() -> None:
    """Sanity check: writes are unique and every read is produced upstream
    of its reader in STAGES."""
    writes = [c.writes for c in CONTRACTS.values()]
    assert len(writes) == len(set(writes)), "duplicate writes across contracts"
    produced: set[str] = set()
    for stage in STAGES:
        for role in stage:
            for key in CONTRACTS[role].reads:
                assert key in produced, f"{role} reads {key} before it is produced"
        for role in stage:
            produced.add(CONTRACTS[role].writes)
