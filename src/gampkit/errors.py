"""Exception types shared across the workbench."""


class GampkitError(Exception):
    pass


class InvalidIdeal(GampkitError):
    pass


class IdealNotMapped(GampkitError):
    """A morphism does not carry the source ideal into the target ideal."""


class NotIdealInduced(GampkitError):
    pass


class NotSubset(GampkitError):
    pass


class NotTotal(GampkitError):
    """Operation requires a total algebra."""


class NotComposable(GampkitError):
    pass


class TooLarge(GampkitError):
    """Instance exceeds the configured exhaustive-computation bound."""


class TooManyIdeals(TooLarge):
    pass


class WrongSignature(GampkitError):
    """A lattice-specific check was asked of a non-lattice similarity type."""


class NotStrong(GampkitError):
    pass


class MissingRealization(GampkitError):
    pass


class DomainMismatch(GampkitError):
    pass


class UnknownName(GampkitError):
    pass


class HypothesisFailed(GampkitError):
    """A construction's arithmetic hypotheses fail; carries the violated equation."""


class PreconditionFailed(GampkitError):
    """A refutation candidate fails one of the stated preconditions."""

    def __init__(self, reason, detail=None):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


class StepFailed(GampkitError):
    """A checked step of a traced proof failed.

    This is surfaced loudly: it means either an implementation bug or a
    genuine counterexample to the refuted statement.
    """

    def __init__(self, step, detail=None):
        super().__init__(f"step failed: {step}")
        self.step = step
        self.detail = detail


class BudgetExceeded(GampkitError):
    pass


class SearchExhausted(BudgetExceeded):
    """A search ran out of its budget part way through: the answer is
    unknown at that bound, not an input error. Carries the bound."""

    def __init__(self, what, bound):
        super().__init__(f"budget exhausted: more than {bound} {what}")
        self.bound = bound


class SchemaError(GampkitError):
    """Malformed serialized input; message carries the offending path."""


class CrossCheckFailed(AssertionError):
    """Two independent computations of one fact disagree.

    An internal fault, never an input error: it subclasses neither
    GampkitError nor ValueError, so the CLI reports it as exit 4. Raised
    explicitly, so the cross-checks also run under python -O.
    """


def cross_check(ok, message):
    """Raise CrossCheckFailed(message) unless ok is true."""
    if not ok:
        raise CrossCheckFailed(message)
