"""Exception hierarchy shared across the pipeline."""


class RiskforgeError(Exception):
    """Base class for all riskforge errors."""


class UnknownKey(RiskforgeError):
    """Append attempted against an entry kind that is not registered."""


class StorageFailure(RiskforgeError):
    """The persistence layer could not record an entry, or a recorded line
    cannot be read back as one."""


class StageError(RiskforgeError):
    """A failure that ends a run without ending the process: the stage
    runner returns it, and execute_pipeline records kind as the run's
    failure_kind. Any other error raised in a stage propagates."""

    kind = ""


class ContextOverflow(StageError):
    """Prompt plus reserved output tokens exceed the context window."""

    kind = "context_overflow"

    def __init__(self, role: str, prompt_tokens: int, reserved_output_tokens: int,
                 context_window_tokens: int):
        self.role = role
        self.prompt_tokens = prompt_tokens
        self.reserved_output_tokens = reserved_output_tokens
        self.context_window_tokens = context_window_tokens
        deficit = prompt_tokens + reserved_output_tokens - context_window_tokens
        super().__init__(
            f"context overflow for role {role!r}: {prompt_tokens} prompt tokens "
            f"+ {reserved_output_tokens} reserved > window {context_window_tokens} "
            f"(deficit {deficit})"
        )


class ProviderUnreachable(StageError):
    """The model provider could not be reached after retries."""

    kind = "provider_error"


class ProviderError(StageError):
    """The model provider returned a non-success response."""

    kind = "provider_error"

    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"provider returned status {status}: {body[:500]}")


class NoScriptForRole(RiskforgeError):
    """The stub gateway has no scripted response set for the role."""


class MissingContextKey(RiskforgeError):
    """An agent's declared read is absent from the context snapshot."""

    def __init__(self, role: str, key: str):
        self.role = role
        self.key = key
        super().__init__(f"role {role!r} requires context key {key!r} which is absent")


class Unparseable(RiskforgeError):
    """No balanced JSON object could be extracted from model output."""


class AgentFailed(StageError):
    """An agent exhausted its validation retries."""

    kind = "agent_failed"

    def __init__(self, role: str, violations):
        self.role = role
        self.violations = list(violations)
        super().__init__(f"agent {role!r} failed after retries: {self.violations}")


class MalformedCorpus(RiskforgeError):
    """A corpus file line could not be ingested."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}")


class DuplicateIdentifier(RiskforgeError):
    """The same control identifier appears twice in a corpus."""


class IncompleteContext(RiskforgeError):
    """The final report was derived before all entry kinds existed."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"context is missing entry kind {key!r}")


class ProfileInvalid(RiskforgeError):
    """The questionnaire document failed schema validation."""


class MissingFunction(RiskforgeError):
    """A control assessment document lacks one of the five CSF functions."""
