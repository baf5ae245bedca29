"""Exception hierarchy for the engine.

Errors fall into three families: input-contract violations (bad polynomial
text, support not at the origin, parameter range), honest refusals where the
computation would leave the rationals (non-rational centers), and internal
invariant violations that indicate a bug rather than bad input.
"""

from __future__ import annotations


class TopZetaError(Exception):
    """Base class for all errors raised by this package."""


# --- input contract ---------------------------------------------------------

class ParseError(TopZetaError):
    """Polynomial text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """An identifier that is not one of the declared variables."""


class NonRationalLiteralError(ParseError):
    """A numeric literal that is not an integer or integer fraction."""


class DegreeCapExceeded(TopZetaError):
    """Input polynomial exceeds a size cap: total degree 64, an exponent
    256, a literal's digits or a coefficient's bit size."""


class SupportMissesOrigin(TopZetaError):
    """Some generator has a nonzero constant term, so the origin is not in
    the zero set of the ideal."""


class AllZero(TopZetaError):
    """Every generator is the zero polynomial."""


class ParameterOrder(TopZetaError):
    """Family parameters must satisfy a > b >= 0."""


class OutOfRange(TopZetaError):
    """Requested pole is outside the realizable set."""


# --- honest refusals --------------------------------------------------------

class CenterNotRational(TopZetaError):
    """A required blow-up center is an algebraic point of degree > 1.

    Carries the rational-root-free locator polynomial whose zeros are the
    offending points.
    """

    def __init__(self, locator: str):
        super().__init__(f"required center is not rational; locator {locator}")
        self.locator = locator


class CenterNotOverOrigin(TopZetaError):
    """Blow-up center does not lie on the fiber over the origin."""


class StepBudgetExceeded(TopZetaError):
    """Blow-up count exceeded max_steps before completion."""


class ResidualNotUnit(TopZetaError):
    """Operation requires a completed principalization."""


class RetriesExhausted(TopZetaError):
    """No generic coefficient sample passed certification within budget."""


class DegenerateLambda(TopZetaError):
    """Coefficient sample failed a genericity check; caller should resample."""


class OrderTwoCandidate(TopZetaError):
    """Residue contribution requested at a candidate of order two."""


class NotACandidate(TopZetaError):
    """Value is not among the candidate poles of the diagram."""


class NonMinimalDiagram(TopZetaError):
    """The pole criterion only applies to minimal principalizations."""


class MalformedDiagram(TopZetaError):
    """Diagram data violates structural requirements."""


class InternalInvariantError(TopZetaError):
    """An internal consistency check failed; indicates a bug."""
