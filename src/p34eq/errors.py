"""Exception types shared across the package."""


class P34Error(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(P34Error):
    """Raised by the parser; carries the 0-based position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredSymbolError(P34Error):
    """An expression uses a symbol that the parameter environment does not declare."""


class NotCubicError(P34Error):
    """The right-hand side is not polynomial of degree <= 3 in the derivative symbol."""


class EvalPole(P34Error):
    """Numeric evaluation hit a vanishing denominator."""


class EvalDomainError(P34Error):
    """Numeric evaluation required an even root of a negative number."""


class CaseError(P34Error):
    """A pipeline stage was invoked outside the degeneration case it is defined for."""


class VanishingRecoveryError(CaseError):
    """A recovery formula's denominator vanishes identically.

    Each denominator is a rational function of absolute invariants that is
    nonzero on the P34 normal form, so it cannot vanish identically on an
    equation equivalent to P34; ``condition`` names the condition that fails.
    """

    def __init__(self, what: str):
        super().__init__(f"{what} denominator vanishes identically")
        self.condition = f"{what} denominator nonzero"


class UnknownVerdictError(P34Error):
    """A zero-test came back Unknown where the classification needs a definite answer."""

    def __init__(self, predicate: str, verdict=None):
        super().__init__(f"inconclusive zero-test for predicate {predicate!r}")
        self.predicate = predicate
        self.verdict = verdict


class DegenerateTransformError(P34Error):
    """A point transformation has identically vanishing Jacobian."""

