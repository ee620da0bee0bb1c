"""The six agent contracts: reads, writes, prompt assembly, output validation.

Each contract declares which context keys the agent reads, the single key
it writes, its prompt template file, its output schema file, and an
optional grounding query. The reads and writes are the pipeline's one
dependency graph: ROLES, ENTRY_KINDS and PLANS, each run mode's stage
plan, are derived from them at import (stage_plan). All prompt text lives
here: build_prompt, for both topologies, injects the serialized read
entries or the questionnaire, the retrieved framework excerpts verbatim,
and a citation policy restricting the agent to those excerpts. Output
validation is the one gate: output the provider reports as truncated,
text holding no JSON object (models wrap the object in prose), an unpaired
surrogate and a failure of the role's schema are each a violation, which
triggers a bounded re-prompt: the role's prompt plus the latest violation
list, so a retry prompt does not grow from attempt to attempt. Code past
the gate reads a payload as its schema states it. run_agent raises
ContextOverflow, carrying a
gateway.BudgetDecision, for any attempt's prompt that does not fit, so
a provider only completes. The single-agent baseline is one more contract,
SINGLE_AGENT, run by the same loop; it is no part of the six-agent plan.

Each schema is compiled once per ContractSet into one check
(compile_schema) that both accepts and explains: it walks a document once
and returns its sorted (json_path, message) violations, none when valid.
A json_path is joined only for a node that reports a violation. A
message names a large value by its size, so the violation list attached
to a re-prompt does not grow with the output it rejects.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, NoReturn, Optional

from .errors import AgentFailed, ContextOverflow, RiskforgeError
from .gateway import RETRY_MARKER, BudgetDecision, CompletionRequest, ModelConfig
from .grounding import Corpus, FrameworkExcerpt
from .records import read_json
from .tokens import canonical_json

if TYPE_CHECKING:
    from .context_store import ContextEntry, ContextStore

MAX_ATTEMPTS = 3  # initial attempt plus two validation re-prompts

QUESTIONNAIRE_SCHEMA = "questionnaire.json"
SINGLE_AGENT_ROLE = "single_agent"
# Each schema mode's (minItems, maxItems) per top-level output array, which
# no schema file states; cross_sector's 3/3 is the structural stability criterion.
ITEM_BOUNDS = {
    "case_study": {"threats": (3, 5), "risks": (3, 10), "recommendations": (3, 10)},
    "cross_sector": {"threats": (3, 3), "risks": (3, 3), "recommendations": (3, 3)},
}
SCHEMA_MODES = tuple(ITEM_BOUNDS)

# The violation reported for an output the provider cut off: a prefix can
# still hold a schema-valid object, so it is never validated.
TRUNCATED_VIOLATION = ("$", "output truncated by the provider")
# The violation reported for an output that holds no JSON object.
NO_OBJECT_VIOLATION = ("$", "no balanced JSON object found in output")
# The violation reported for an output whose document holds a surrogate
# code point that pairs with none: no UTF-8 text holds it, so it could not
# be logged or quoted in a prompt (I-JSON, RFC 7493 section 2.1).
SURROGATE_VIOLATION = ("$", "output holds an unpaired UTF-16 surrogate")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # decodes to a surrogate

DATA_DIR = Path(__file__).parent / "data"
SCHEMAS_DIR = DATA_DIR / "schemas"


@dataclass(frozen=True)
class AgentContract:
    """One agent's contract: the context it reads and writes, its prompt and schema."""

    role: str
    reads: tuple[str, ...]
    writes: str
    template_name: Optional[str]  # None: _single_prompt builds the prompt
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
# CONTRACTS (and so out of ROLES and STAGES).
SINGLE_AGENT = AgentContract(
    role=SINGLE_AGENT_ROLE,
    reads=(),
    writes="report",
    template_name=None,
    schema_name="single_agent.json",
    grounding_query="access control authentication policy incident response monitoring",
    grounding_k=4,
)


def stage_plan(contracts: Iterable[AgentContract]) -> tuple[tuple[str, ...], ...]:
    """Layer contracts into stages by what they read and write.

    Stage n holds every remaining role whose reads were all written by
    earlier stages, in input order; the roles of one stage read nothing
    that another of them writes, so they may run concurrently. Raises
    ValueError when two contracts write the same key, or when no remaining
    role can run: it reads a key no contract writes, or the reads form a
    cycle.
    """
    remaining = list(contracts)
    writers: dict[str, str] = {}
    for contract in remaining:
        if contract.writes in writers:
            raise ValueError(f"{writers[contract.writes]} and {contract.role} "
                             f"both write {contract.writes!r}")
        writers[contract.writes] = contract.role
    written: set[str] = set()
    stages = []
    while remaining:
        stage = [c for c in remaining if written.issuperset(c.reads)]
        if not stage:
            unmet = "; ".join(f"{c.role} reads {sorted(set(c.reads) - written)}"
                              for c in remaining)
            raise ValueError(f"no role can run (a read no contract writes, "
                             f"or a cycle): {unmet}")
        stages.append(tuple(c.role for c in stage))
        written.update(c.writes for c in stage)
        remaining = [c for c in remaining if c not in stage]
    return tuple(stages)


ROLES = tuple(CONTRACTS)
ENTRY_KINDS = tuple(c.writes for c in CONTRACTS.values())
# The execution plan: stages run in order, the roles inside a stage may run
# concurrently.
STAGES = stage_plan(CONTRACTS.values())
# Each topology's plan, by run mode.
PLANS = {"multi_agent": STAGES, "single_agent": stage_plan([SINGLE_AGENT])}


def excerpt_lines(grounding: Iterable[FrameworkExcerpt]) -> list[str]:
    """The FRAMEWORK EXCERPTS section body of a prompt: one line per
    excerpt, verbatim, or a marker when there is none."""
    lines = [f"[{e.framework} {e.identifier}] {e.title}: {e.body}" for e in grounding]
    return lines or ["(none supplied)"]


_DECODER = json.JSONDecoder()


def extract_json_object(raw: str) -> Optional[dict]:
    """Return the first JSON object embedded in raw text, else None.

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
    return None


def _may_hold_surrogate(raw: str) -> bool:
    """Whether a document decoded from raw can hold a surrogate: raw holds
    a \\uD800-\\uDFFF escape, which needs a backslash (found faster than the
    pattern), or a raw surrogate, which an HTTP reply's outer decode can
    leave and only non-ASCII text holds."""
    return ("\\" in raw and _SURROGATE_ESCAPE.search(raw) is not None
            or not (raw.isascii() or encodes_utf8(raw)))


def encodes_utf8(text: str) -> bool:
    """Whether text encodes as UTF-8: it holds no unpaired surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# -- compiled schema check ---------------------------------------------------

Violations = tuple[tuple[str, str], ...]  # sorted (json_path, message) pairs
# A node's place: "$", or (parent place, step) with step a ".key"/"['key']"
# string or an array index. It becomes a json_path string only for a
# violation (_json_path), so a valid document builds no path strings.
_Node = Callable[[Any, Any, list], None]  # node(instance, place, out) appends to out

_ANNOTATIONS = frozenset({"$schema", "$defs", "title"})
_FORMS = ("type", "enum", "$ref")  # a schema holds exactly one
# Keywords that constrain one type, allowed only beside that "type".
_TYPE_KEYWORDS = {
    "object": frozenset({"properties", "required", "additionalProperties"}),
    "array": frozenset({"items", "minItems", "maxItems"}),
    "string": frozenset({"minLength"}),
    "integer": frozenset({"minimum", "maximum"}),
}
_DEF_PREFIX = "#/$defs/"
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")  # jsonschema's json_path rule
_SHOWN_CHARS = 60  # the longest text a message quotes from the document


def _shown(x: Any) -> str:
    """How a message names x: a short scalar by its repr, anything else by size."""
    if isinstance(x, list):
        return f"array of length {len(x)}"
    if isinstance(x, dict):
        return f"object of size {len(x)}"
    text = repr(x)
    if len(text) <= _SHOWN_CHARS:
        return text
    if isinstance(x, str):
        return f"string of length {len(x)}"
    return f"{type(x).__name__} of {len(text)} characters"


def _json_path(path: Any) -> str:
    steps = []
    while path != "$":
        path, step = path
        steps.append(f"[{step}]" if isinstance(step, int) else step)
    return "$" + "".join(reversed(steps))


def _is_integer(x: Any) -> bool:
    if isinstance(x, int):
        return not isinstance(x, bool)
    return isinstance(x, float) and x.is_integer()


def _is_number(x: Any) -> bool:
    # Narrower than jsonschema's numbers.Number: a Decimal, which JSON
    # decoding never yields, is rejected.
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class _SchemaCompiler:
    def __init__(self, schema: Any, source: str):
        self.source = source
        self.defs = schema.get("$defs", {}) if isinstance(schema, dict) else {}
        if not isinstance(self.defs, dict):
            self.fail("#/$defs", "$defs must be an object")
        self.refs: dict[str, Optional[_Node]] = {}

    def fail(self, pointer: str, problem: str) -> NoReturn:
        raise ValueError(f"{self.source}: {problem} at {pointer}")

    def node(self, schema: Any, pointer: str) -> _Node:
        if not isinstance(schema, dict):
            self.fail(pointer, f"unsupported schema form {schema!r} (objects only)")
        declared = schema.get("type")
        if "type" in schema and not (isinstance(declared, str) and declared in _TYPE_KEYWORDS):
            self.fail(pointer, f"unsupported type {declared!r}")
        allowed = _ANNOTATIONS.union(_FORMS, _TYPE_KEYWORDS.get(declared, ()))
        for keyword in schema:
            if keyword not in allowed:
                self.fail(pointer, f"unsupported keyword {keyword!r} beside type {declared!r}")
        forms = [form for form in _FORMS if form in schema]
        if len(forms) != 1:
            found = " beside ".join(map(repr, forms)) or "none of 'type', 'enum' and '$ref'"
            self.fail(pointer, f"unsupported schema form: {found} (exactly one per schema)")
        if declared is not None:
            return getattr(self, declared)(schema, pointer)
        if "enum" in schema:
            return self.enum(schema["enum"], pointer + "/enum")
        return self.ref(schema["$ref"], pointer + "/$ref")

    def ref(self, target: Any, pointer: str) -> _Node:
        name = None
        if isinstance(target, str) and target.startswith(_DEF_PREFIX):
            name = target[len(_DEF_PREFIX):]
        if not name or any(c in name for c in "/~%") or name not in self.defs:
            self.fail(pointer, f"unsupported $ref {target!r} (only #/$defs/<name> "
                               f"of this schema)")
        if name not in self.refs:
            self.refs[name] = None  # in progress: the name met again now is recursive
            self.refs[name] = self.node(self.defs[name], _DEF_PREFIX + name)
        if self.refs[name] is None:
            self.fail(pointer, f"unsupported recursive $ref {target!r}")
        return self.refs[name]

    def count(self, schema: dict, keyword: str, pointer: str) -> Optional[int]:
        if keyword not in schema:
            return None
        value = schema[keyword]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            self.fail(pointer, f"{keyword} must be a non-negative integer")
        return value

    def object(self, schema: dict, pointer: str) -> _Node:
        properties = schema.get("properties", {})
        required = schema.get("required", [])
        if not isinstance(properties, dict):
            self.fail(pointer, "properties must be an object")
        if not isinstance(required, list) or not all(isinstance(k, str) for k in required):
            self.fail(pointer, "required must be a list of strings")
        closed = "additionalProperties" in schema
        if closed and schema["additionalProperties"] is not False:
            self.fail(pointer, "unsupported additionalProperties (only false)")
        # property -> (its check, its json_path step)
        checks = {key: (self.node(sub, f"{pointer}/properties/{key}"),
                        f".{key}" if _PLAIN_KEY.match(key) else
                        "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']")
                  for key, sub in properties.items()}
        required_keys, known = frozenset(required), frozenset(properties)

        def check(x, path, out):
            if not isinstance(x, dict):
                out.append((path, f"{_shown(x)} is not of type 'object'"))
                return
            if not x.keys() >= required_keys:
                out.extend((path, f"{key!r} is a required property")
                           for key in required if key not in x)
            for key, value in x.items():
                sub = checks.get(key)
                if sub is not None:
                    sub[0](value, (path, sub[1]), out)
            if closed and not x.keys() <= known:
                extras = x.keys() - known
                names = ", ".join(map(repr, sorted(extras, key=str)))
                if len(names) > _SHOWN_CHARS:
                    names = str(len(extras))
                verb = "was" if len(extras) == 1 else "were"
                out.append((path, f"Additional properties are not allowed "
                                  f"({names} {verb} unexpected)"))
        return check

    def array(self, schema: dict, pointer: str) -> _Node:
        low = self.count(schema, "minItems", pointer) or 0
        high = self.count(schema, "maxItems", pointer)
        item = self.node(schema["items"], pointer + "/items") if "items" in schema else None

        def check(x, path, out):
            if not isinstance(x, list):
                out.append((path, f"{_shown(x)} is not of type 'array'"))
                return
            if len(x) < low:
                out.append((path, f"{len(x)} items, fewer than minItems {low}"))
            if high is not None and len(x) > high:
                out.append((path, f"{len(x)} items, more than maxItems {high}"))
            if item is not None:
                for index, value in enumerate(x):
                    item(value, (path, index), out)
        return check

    def string(self, schema: dict, pointer: str) -> _Node:
        low = self.count(schema, "minLength", pointer) or 0
        short = "should be non-empty" if low == 1 else "is too short"

        def check(x, path, out):
            if not isinstance(x, str):
                out.append((path, f"{_shown(x)} is not of type 'string'"))
            elif len(x) < low:
                out.append((path, f"{_shown(x)} {short}"))
        return check

    def integer(self, schema: dict, pointer: str) -> _Node:
        for keyword in ("minimum", "maximum"):
            if keyword in schema and not _is_number(schema[keyword]):
                self.fail(pointer, f"{keyword} must be a number")
        low, high = schema.get("minimum"), schema.get("maximum")

        def check(x, path, out):
            if not _is_integer(x):
                out.append((path, f"{_shown(x)} is not of type 'integer'"))
                if not _is_number(x):  # the bounds still apply to 2.5
                    return
            # "x < low", not "x >= low": NaN passes, as in jsonschema
            if low is not None and x < low:
                out.append((path, f"{_shown(x)} is less than the minimum of {low!r}"))
            if high is not None and x > high:
                out.append((path, f"{_shown(x)} is greater than the maximum of {high!r}"))
        return check

    def enum(self, values: Any, pointer: str) -> _Node:
        if not isinstance(values, list):
            self.fail(pointer, "enum must be a list")
        strings, numbers = set(), set()
        for value in values:
            if isinstance(value, str):
                strings.add(value)
            elif _is_number(value):
                numbers.add(value)
            else:
                self.fail(pointer, f"unsupported enum value {value!r} "
                                   f"(strings and numbers only)")

        def check(x, path, out):
            # A bool is no number here, and 30 equals 30.0.
            found = x in strings if isinstance(x, str) else _is_number(x) and x in numbers
            if not found:
                out.append((path, f"{_shown(x)} is not one of {values!r}"))
        return check


def compile_schema(schema: dict, source: str) -> Callable[[Any], Violations]:
    """Compile a JSON Schema into check(doc) -> Violations.

    check walks doc once and returns every violation, () when doc is valid,
    at exactly the json_paths jsonschema's Draft 2020-12 validation
    reports. Messages use jsonschema's wording for a short scalar and name
    anything else by its size ("4 items, more than maxItems 3"). Types
    follow jsonschema (a bool is no number, 1.0 is an integer), except
    that a value no JSON type, such as a Decimal, is rejected. Supported,
    what the bundled schemas use: exactly one of type, enum or $ref per
    schema; the types object (properties, required, additionalProperties
    false), array (items, minItems, maxItems), string (minLength) and
    integer (minimum, maximum); an enum of strings and numbers; a $ref to
    #/$defs/<name> that does not recur; and the annotations $schema, $defs
    and title. Anything else raises ValueError naming the form and source.
    """
    walk = _SchemaCompiler(schema, source).node(schema, "#")

    def check(doc: Any) -> Violations:
        out: list = []
        walk(doc, "$", out)
        return tuple(sorted((_json_path(path), message) for path, message in out))
    return check


class ContractSet:
    """Contracts plus their loaded templates and bundled schemas, whose
    output cardinality is ITEM_BOUNDS[schema_mode]. The questionnaire
    schema holds none of those arrays, so it reads the same in both modes.
    """

    def __init__(self, schema_mode: str = "case_study"):
        if schema_mode not in SCHEMA_MODES:
            raise ValueError(f"unknown schema mode {schema_mode!r}")
        self.schema_mode = schema_mode
        self._templates: dict[str, str] = {}
        self._checkers: dict[str, Callable[[Any], Violations]] = {}
        # (role, corpus, questionnaire) -> the prompt of a role that reads no context
        self._context_free: dict[tuple[str, Corpus, str], str] = {}

    def contract(self, role: str) -> AgentContract:
        if role == SINGLE_AGENT_ROLE:
            return SINGLE_AGENT
        if role not in CONTRACTS:
            raise KeyError(f"unknown agent role {role!r}")
        return CONTRACTS[role]

    def template_text(self, name: str) -> str:
        if name not in self._templates:
            self._templates[name] = (DATA_DIR / "templates" / name).read_text(encoding="utf-8")
        return self._templates[name]

    def schema(self, name: str) -> dict:
        """The named bundled schema, read afresh, with its top-level
        threats, risks and recommendations arrays bounded by
        ITEM_BOUNDS[schema_mode]."""
        schema = read_json(SCHEMAS_DIR / name, "schema")
        props = schema.get("properties", {})
        for field, (lo, hi) in ITEM_BOUNDS[self.schema_mode].items():
            if field in props:
                props[field].update(minItems=lo, maxItems=hi)
        return schema

    def checker(self, name: str) -> Callable[[Any], Violations]:
        """The named schema compiled by compile_schema, once per ContractSet."""
        if name not in self._checkers:
            self._checkers[name] = compile_schema(self.schema(name), str(SCHEMAS_DIR / name))
        return self._checkers[name]

    # -- prompt assembly ---------------------------------------------------

    def assemble_prompt(self, role: str, snapshot: dict[str, ContextEntry],
                        grounding: list[FrameworkExcerpt], questionnaire: str) -> str:
        contract = self.contract(role)
        for key in contract.reads:
            if snapshot.get(key) is None:
                raise RiskforgeError(f"role {role!r} requires context key {key!r} which is absent")

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
        parts += excerpt_lines(grounding)
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
        parts.append(self.task_text(role, questionnaire))
        parts.append("")
        parts.append("Respond with a single JSON object that satisfies the required "
                     "output schema for this role.")
        return "\n".join(parts)

    def gather_grounding(self, role: str, snapshot: dict[str, ContextEntry],
                         corpus: Corpus) -> list[FrameworkExcerpt]:
        """Retrieved excerpts plus carry-forward excerpts for every corpus
        identifier already cited inside the role's read entries, so the
        citation policy stays satisfiable as citations flow downstream."""
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

    def build_prompt(self, role: str, snapshot: dict[str, ContextEntry],
                     corpus: Corpus, questionnaire: str) -> str:
        """The role's full prompt over a snapshot, for either topology;
        questionnaire is the profile's canonical_json. The prompt of a
        role that reads no context (single_agent, risk_intake) depends on
        (role, corpus, questionnaire) alone, so it is built once per
        ContractSet and every later call returns that same str; a role
        that reads context is built on every call."""
        context_free = not self.contract(role).reads
        key = (role, corpus, questionnaire)
        if context_free and key in self._context_free:
            return self._context_free[key]
        if role == SINGLE_AGENT_ROLE:
            prompt = self._single_prompt(corpus, questionnaire)
        else:
            grounding = self.gather_grounding(role, snapshot, corpus)
            prompt = self.assemble_prompt(role, snapshot, grounding, questionnaire)
        if context_free:  # threads that miss together store equal prompts
            self._context_free[key] = prompt
        return prompt

    def _single_prompt(self, corpus: Corpus, questionnaire: str) -> str:
        grounding = corpus.retrieve(SINGLE_AGENT.grounding_query, SINGLE_AGENT.grounding_k)
        parts = [
            "You are a security analyst performing a complete cybersecurity risk "
            "assessment in a single pass. Work through every stage below in order.",
            "",
            "=== QUESTIONNAIRE ===",
            questionnaire,
            "",
            "=== FRAMEWORK EXCERPTS ===",
            *excerpt_lines(grounding),
            "",
            "=== CITATION POLICY ===",
            "Reference framework control identifiers only if they appear verbatim in "
            "the FRAMEWORK EXCERPTS section above.",
            "",
            "=== TASK ===",
            self.combined_task_text(questionnaire),
            "",
            "Respond with a single JSON object with exactly three threats, three "
            "risks, and three recommendations.",
        ]
        return "\n".join(parts)

    # -- output validation -------------------------------------------------

    def validate_output(self, role: str, raw: str) -> tuple[Violations, Optional[dict]]:
        """Parse and schema-check raw model output: (violations, doc), with
        violations () exactly when doc is valid; never raises. Text holding
        no object gives (NO_OBJECT_VIOLATION,) and doc None, and a doc that
        holds an unpaired surrogate adds SURROGATE_VIOLATION."""
        doc = extract_json_object(raw)
        if doc is None:
            return (NO_OBJECT_VIOLATION,), None
        violations = self.checker(self.contract(role).schema_name)(doc)
        if _may_hold_surrogate(raw) and not encodes_utf8(canonical_json(doc)):
            violations = tuple(sorted(violations + (SURROGATE_VIOLATION,)))
        return violations, doc

    def validate_single_output(self, raw: str) -> tuple[Violations, Optional[dict]]:
        """validate_output for the combined document of a single-agent run."""
        return self.validate_output(SINGLE_AGENT_ROLE, raw)

    # -- agent execution ---------------------------------------------------

    def run_agent(self, role: str, prompt: str, store: ContextStore, gateway,
                  config: ModelConfig) -> tuple[ContextEntry, int]:
        """Complete, validate, retry, append, starting from the role's full
        prompt (build_prompt's). A truncated reply is TRUNCATED_VIOLATION,
        any other passes validate_output, the one gate. A retry sends that
        prompt plus the latest violation block only. A prompt, first or
        retry, that does not fit the window raises ContextOverflow with its
        BudgetDecision before the gateway sees it. Returns the appended
        entry and the number of attempts used, else raises AgentFailed."""
        contract = self.contract(role)
        last_violations: Violations = ()
        request_prompt = prompt
        for attempt in range(1, MAX_ATTEMPTS + 1):
            request = CompletionRequest(role=role, prompt=request_prompt, config=config)
            decision = BudgetDecision(role, request.prompt_tokens, config.context_window_tokens)
            if not decision.ok:
                raise ContextOverflow(decision)
            result = gateway.complete(request)
            if result.truncated:
                last_violations = (TRUNCATED_VIOLATION,)
            else:
                last_violations, doc = self.validate_output(role, result.text)
                if not last_violations:
                    return store.append_entry(contract.writes, role, doc), attempt
            violation_lines = "\n".join(f"- {path}: {msg}" for path, msg in last_violations)
            request_prompt = (
                f"{prompt}\n\n=== {RETRY_MARKER} ===\n"
                f"Your previous output did not satisfy the schema:\n{violation_lines}\n"
                f"Emit a corrected JSON object."
            )
        raise AgentFailed(f"agent {role!r} failed after retries: {list(last_violations)}")

    def task_text(self, role: str, questionnaire: str) -> str:
        """The role's template, stripped, with its one placeholder,
        {{questionnaire}}, filled in."""
        template = self.template_text(self.contract(role).template_name)
        return template.strip().replace("{{questionnaire}}", questionnaire)

    def combined_task_text(self, questionnaire_json: str) -> str:
        """Concatenated task instructions of all six roles, for the
        single-agent ablation baseline, with the questionnaire filled in."""
        return "\n\n".join(f"## Stage: {role}\n{self.task_text(role, questionnaire_json)}"
                             for role in ROLES)
