"""The six agent contracts: reads, writes, prompt assembly, output validation.

Each contract declares which context keys the agent reads, the single key
it writes, its prompt template file, its output schema file, and an
optional grounding query. Prompt assembly injects the serialized read
entries, the retrieved framework excerpts verbatim, and a citation policy
restricting the agent to those excerpts. Output validation extracts the
first JSON object from the raw text (models wrap output in prose) and
checks it against the role's schema; schema failures, and output the
provider reports as truncated, trigger a bounded re-prompt with the
violation list attached. The single-agent baseline is one more contract,
SINGLE_AGENT, run by the same loop; it is no part of the six-agent plan.

Each schema is compiled once per ContractSet into a plain predicate
(compile_schema) that answers "valid" for the common case; jsonschema is
imported and run only for a rejected document, to produce the violation
list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional

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

# The execution plan: stages run in order, the roles inside a stage may run
# concurrently. Every role reads only keys written by earlier stages.
STAGES: tuple[tuple[str, ...], ...] = (
    ("risk_intake",),
    ("threat_modeling", "control_assessment"),
    ("risk_scoring",),
    ("mitigation",),
    ("report_synthesis",),
)

MAX_ATTEMPTS = 3  # initial attempt plus two validation re-prompts

QUESTIONNAIRE_SCHEMA = "questionnaire.json"
SINGLE_AGENT_ROLE = "single_agent"

# The violation reported for an output the provider cut off: a prefix can
# still hold a schema-valid object, so it is never validated.
TRUNCATED_VIOLATION = ("$", "output truncated by the provider")

DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class AgentContract:
    role: str
    reads: tuple[str, ...]
    writes: str
    template_name: Optional[str]  # None: the orchestrator builds the prompt
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

# The single-agent ablation baseline: one role that writes the whole report
# in one pass. It is no part of the six-agent plan, so it stays out of
# CONTRACTS (and so out of ROLES, STAGES and check_contract_dag).
SINGLE_AGENT = AgentContract(
    role=SINGLE_AGENT_ROLE,
    reads=(),
    writes="report",
    template_name=None,
    schema_name="single_agent.json",
)


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


# -- compiled schema check ---------------------------------------------------

Acceptor = Callable[[Any], bool]

_ANNOTATIONS = frozenset({"$schema", "$defs", "title"})
_ANY_TYPE_KEYWORDS = frozenset({"type", "enum", "$ref"})
# Keywords that constrain one type, allowed only beside that "type".
_TYPE_KEYWORDS = {
    "object": frozenset({"properties", "required", "additionalProperties"}),
    "array": frozenset({"items", "minItems", "maxItems"}),
    "string": frozenset({"minLength"}),
    "integer": frozenset({"minimum", "maximum"}),
    "number": frozenset({"minimum", "maximum"}),
    "boolean": frozenset(),
    "null": frozenset(),
}
_DEF_PREFIX = "#/$defs/"


def _accept_any(instance: Any) -> bool:
    return True


def _is_integer(x: Any) -> bool:
    if isinstance(x, int):
        return not isinstance(x, bool)
    return isinstance(x, float) and x.is_integer()


def _is_number(x: Any) -> bool:
    # Narrower than jsonschema's numbers.Number: a Decimal is rejected,
    # which costs only the slow path.
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _all_of(checks: list[Acceptor]) -> Acceptor:
    if not checks:
        return _accept_any
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for each in checks:
            if not each(x):
                return False
        return True
    return check


class _SchemaCompiler:
    def __init__(self, schema: Any, source: str):
        self.source = source
        self.defs = schema.get("$defs", {}) if isinstance(schema, dict) else {}
        if not isinstance(self.defs, dict):
            self.fail("#/$defs", "$defs must be an object")
        self.refs: dict[str, Optional[Acceptor]] = {}

    def fail(self, pointer: str, problem: str) -> NoReturn:
        raise ValueError(f"{self.source}: {problem} at {pointer}")

    def node(self, schema: Any, pointer: str) -> Acceptor:
        if not isinstance(schema, dict):
            self.fail(pointer, f"unsupported schema form {schema!r} (objects only)")
        declared = schema.get("type")
        if declared is not None and (not isinstance(declared, str)
                                     or declared not in _TYPE_KEYWORDS):
            self.fail(pointer, f"unsupported type {declared!r}")
        allowed = _ANNOTATIONS | _ANY_TYPE_KEYWORDS | _TYPE_KEYWORDS.get(declared, frozenset())
        for keyword in schema:
            if keyword not in allowed:
                self.fail(pointer, f"unsupported keyword {keyword!r} beside type {declared!r}")
        checks = []
        if declared in ("integer", "number"):
            checks.append(self.numeric(schema, pointer, declared))
        elif declared is not None:
            checks.append(getattr(self, declared)(schema, pointer))
        if "enum" in schema:
            checks.append(self.enum(schema["enum"], pointer + "/enum"))
        if "$ref" in schema:
            checks.append(self.ref(schema["$ref"], pointer + "/$ref"))
        return _all_of(checks)

    def ref(self, target: Any, pointer: str) -> Acceptor:
        name = None
        if isinstance(target, str) and target.startswith(_DEF_PREFIX):
            name = target[len(_DEF_PREFIX):]
        if not name or any(c in name for c in "/~%") or name not in self.defs:
            self.fail(pointer, f"unsupported $ref {target!r} (only #/$defs/<name> "
                               f"of this schema)")
        if name not in self.refs:
            self.refs[name] = None  # in progress: a recursive ref binds at call time
            self.refs[name] = self.node(self.defs[name], _DEF_PREFIX + name)
        compiled = self.refs[name]
        if compiled is None:
            return lambda x: self.refs[name](x)
        return compiled

    def count(self, schema: dict, keyword: str, pointer: str) -> Optional[int]:
        if keyword not in schema:
            return None
        value = schema[keyword]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            self.fail(pointer, f"{keyword} must be a non-negative integer")
        return value

    def object(self, schema: dict, pointer: str) -> Acceptor:
        properties = schema.get("properties", {})
        required = schema.get("required", [])
        if not isinstance(properties, dict):
            self.fail(pointer, "properties must be an object")
        if not isinstance(required, list) or not all(isinstance(k, str) for k in required):
            self.fail(pointer, "required must be a list of strings")
        closed = "additionalProperties" in schema
        if closed and schema["additionalProperties"] is not False:
            self.fail(pointer, "unsupported additionalProperties (only false)")
        checks = {key: self.node(sub, f"{pointer}/properties/{key}")
                  for key, sub in properties.items()}
        required = frozenset(required)
        known = frozenset(properties)

        def check(x):
            if not isinstance(x, dict) or not x.keys() >= required:
                return False
            if closed and not known.issuperset(x):
                return False
            for key, value in x.items():
                sub = checks.get(key)
                if sub is not None and not sub(value):
                    return False
            return True
        return check

    def array(self, schema: dict, pointer: str) -> Acceptor:
        low = self.count(schema, "minItems", pointer) or 0
        high = self.count(schema, "maxItems", pointer)
        item = self.node(schema["items"], pointer + "/items") if "items" in schema else None

        def check(x):
            if not isinstance(x, list) or len(x) < low:
                return False
            if high is not None and len(x) > high:
                return False
            return item is None or all(map(item, x))
        return check

    def string(self, schema: dict, pointer: str) -> Acceptor:
        low = self.count(schema, "minLength", pointer) or 0
        return lambda x: isinstance(x, str) and len(x) >= low

    def boolean(self, schema: dict, pointer: str) -> Acceptor:
        return lambda x: isinstance(x, bool)

    def null(self, schema: dict, pointer: str) -> Acceptor:
        return lambda x: x is None

    def numeric(self, schema: dict, pointer: str, declared: str) -> Acceptor:
        is_type = _is_integer if declared == "integer" else _is_number
        for keyword in ("minimum", "maximum"):
            if keyword in schema and not _is_number(schema[keyword]):
                self.fail(pointer, f"{keyword} must be a number")
        low, high = schema.get("minimum"), schema.get("maximum")

        def check(x):
            # "x < low", not "x >= low": NaN passes, as in jsonschema
            if not is_type(x):
                return False
            return not ((low is not None and x < low) or (high is not None and x > high))
        return check

    def enum(self, values: Any, pointer: str) -> Acceptor:
        if not isinstance(values, list):
            self.fail(pointer, "enum must be a list")
        strings, numbers, bools, null = set(), set(), set(), False
        for value in values:
            if isinstance(value, str):
                strings.add(value)
            elif isinstance(value, bool):
                bools.add(value)
            elif _is_number(value):
                numbers.add(value)
            elif value is None:
                null = True
            else:
                self.fail(pointer, f"unsupported enum value {value!r} (scalars only)")

        def check(x):
            # A bool never equals a number here, and 30 equals 30.0.
            if isinstance(x, str):
                return x in strings
            if isinstance(x, bool):
                return x in bools
            if _is_number(x):
                return x in numbers
            return null and x is None
        return check


def compile_schema(schema: dict, source: str) -> Acceptor:
    """Compile a JSON Schema into a predicate, accepts(doc) -> bool.

    accepts(doc) implies that jsonschema's Draft 2020-12 validation finds
    no error in doc; a rejection may be false (a Python value that is no
    JSON type), which only costs the caller a jsonschema run. Comparisons
    follow jsonschema: a bool is never an integer or a number, 1.0 is an
    integer, an enum never matches a bool against a number, and minimum
    and maximum reject only on < and >, so NaN and infinities fare as
    there. Supported keywords: type, properties, required,
    additionalProperties false, items, minItems, maxItems, minLength,
    minimum, maximum, enum, a local $ref to #/$defs/..., and the
    annotations $schema, $defs and title; each type-specific keyword must
    sit beside its "type". Anything else raises ValueError naming the
    keyword and source, so a schema is never checked less than jsonschema
    would check it.
    """
    return _SchemaCompiler(schema, source).node(schema, "#")


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
        self._acceptors: dict[str, Acceptor] = {}

    def contract(self, role: str) -> AgentContract:
        if role == SINGLE_AGENT_ROLE:
            return SINGLE_AGENT
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
        """Adjust a freshly parsed schema in place for case_study mode."""
        if self.schema_mode == "cross_sector":
            return schema
        props = schema.get("properties", {})
        bounds = {"threats": (3, 5), "risks": (3, 10), "recommendations": (3, 10)}
        for field, (lo, hi) in bounds.items():
            if field in props and props[field].get("type") == "array":
                props[field]["minItems"] = lo
                props[field]["maxItems"] = hi
        return schema

    def acceptor(self, name: str) -> Acceptor:
        """The named schema compiled by compile_schema, once per ContractSet."""
        if name not in self._acceptors:
            self._acceptors[name] = compile_schema(self.schema(name),
                                                   str(self.schemas_dir / name))
        return self._acceptors[name]

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
        schema_name = self.contract(role).schema_name
        doc = extract_json_object(raw)
        violations: tuple[tuple[str, str], ...] = ()
        if not self.acceptor(schema_name)(doc):
            import jsonschema  # only a rejection needs explaining

            validator = jsonschema.Draft202012Validator(self.schema(schema_name))
            violations = tuple(sorted(
                (error.json_path, error.message)
                for error in validator.iter_errors(doc)
            ))
        return ValidationOutcome(valid=not violations, violations=violations,
                                 attempt=attempt), doc

    def validate_single_output(self, raw: str,
                               attempt: int = 1) -> tuple[ValidationOutcome, dict]:
        """Validate the combined 3/3/3 document from a single-agent run."""
        return self.validate_output(SINGLE_AGENT_ROLE, raw, attempt)

    # -- agent execution ---------------------------------------------------

    def run_agent(self, role: str, prompt: str, store: ContextStore, gateway,
                  config: ModelConfig) -> tuple[ContextEntry, int]:
        """Complete, validate, retry, append, starting from the role's full
        prompt (build_prompt's, or the orchestrator's single-agent prompt).
        Returns the appended entry and the number of attempts used."""
        contract = self.contract(role)
        last_violations: tuple[tuple[str, str], ...] = ()
        for attempt in range(1, MAX_ATTEMPTS + 1):
            result = gateway.complete(CompletionRequest(role=role, prompt=prompt, config=config))
            if result.truncated:
                last_violations = (TRUNCATED_VIOLATION,)
            else:
                try:
                    outcome, doc = self.validate_output(role, result.text, attempt=attempt)
                    last_violations = outcome.violations
                except Unparseable as exc:
                    last_violations = (("$", str(exc)),)
                if not last_violations:
                    entry = store.append_entry(contract.writes, role, doc)
                    return entry, attempt
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
