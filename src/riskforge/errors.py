"""Exception hierarchy shared across the pipeline, one class per way a
caller handles it. A RiskforgeError a role raises ends the run, not the
process: the run record's failure_kind is its kind. Raised before a run,
it is an input error: one "Error:" line from the CLI, exit 1. Anything
else is a programming error. A ContextOverflow does no arithmetic: it
carries the gateway.BudgetDecision that raised it."""


class RiskforgeError(Exception):
    """Base class for all riskforge errors, and the class of any that no
    caller tells apart by type; kind is the failure_kind of a run it ends."""

    kind = "internal_error"


class ContextOverflow(RiskforgeError):
    """A prompt does not fit the context window. decision is the
    gateway.BudgetDecision that said so, and the message is its text."""

    kind = "context_overflow"

    def __init__(self, decision):
        self.decision = decision
        super().__init__(f"context overflow for {decision.describe()}")


class ProviderError(RiskforgeError):
    """The model provider returned a non-success response, or could not
    be reached after retries."""

    kind = "provider_error"


class AgentFailed(RiskforgeError):
    """An agent exhausted its validation retries."""

    kind = "agent_failed"


class Unparseable(RiskforgeError):
    """No balanced JSON object could be extracted from model output."""


class ProfileInvalid(RiskforgeError):
    """The questionnaire document failed schema validation."""
