"""Exception hierarchy shared across the pipeline, one class per way a
caller handles it. A StageError is recorded: the run ends, the process
goes on. Any other RiskforgeError is an input error before a run, which
the CLI prints as one "Error:" line with exit 1, or an internal error
inside one. Anything else is a programming error. A ContextOverflow
does no arithmetic: it carries the gateway.BudgetDecision that raised it."""


class RiskforgeError(Exception):
    """Base class for all riskforge errors, and the class of any that no
    caller tells apart by type."""


class StageError(RiskforgeError):
    """A failure that ends a run without ending the process: the stage
    runner returns it, and execute_pipeline records kind as the run's
    failure_kind. Any other error raised in a stage propagates."""

    kind = ""


class ContextOverflow(StageError):
    """A prompt does not fit the context window. decision is the
    gateway.BudgetDecision that said so, and the message is its text."""

    kind = "context_overflow"

    def __init__(self, decision):
        self.decision = decision
        super().__init__(f"context overflow for {decision.describe()}")


class ProviderError(StageError):
    """The model provider returned a non-success response, or could not
    be reached after retries."""

    kind = "provider_error"


class AgentFailed(StageError):
    """An agent exhausted its validation retries."""

    kind = "agent_failed"


class Unparseable(RiskforgeError):
    """No balanced JSON object could be extracted from model output."""


class ProfileInvalid(RiskforgeError):
    """The questionnaire document failed schema validation."""
