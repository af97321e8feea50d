"""Exception types shared across the package, the dense polynomial limit
that `laurent`, `knots`, `signature` and `jumps` enforce, and the torus
knot parameter rule."""

import math


class KnotObsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KnotObsError):
    """An input violates a documented precondition."""


class ParseError(ValidationError):
    """Text could not be parsed as a polynomial or knot expression."""


class ZeroPolynomialError(ValidationError):
    """Operation (breadth, factor, Fox-Milnor) is undefined for the zero polynomial."""


class NormalizationError(ValidationError):
    """Input is not a normalized Alexander representative (requires f(1) = +-1)."""


class UnsupportedExpressionError(ValidationError):
    """Knot expression lies outside the class supported by the requested invariant."""


class InsufficientDataError(KnotObsError):
    """A partial data record (germ, epsilon class) cannot answer the query."""


class RuleNotApplicableError(KnotObsError):
    """Comparison or obstruction rule's hypotheses are not met by the record."""


class JumpEvaluationError(KnotObsError):
    """Signature queried exactly at a discontinuity; carries both one-sided values."""

    def __init__(self, point, left, right):
        self.point = point
        self.left = left
        self.right = right
        super().__init__(
            f"signature has a jump at {point}: left limit {left}, right limit {right}"
        )


class AmbiguousSignatureError(KnotObsError):
    """An eigenvalue lies within the float error bound of the numeric
    signature, as at a jump point."""


class FactorizationComplexityError(ValidationError):
    """Zassenhaus recombination would pass `laurent.MAX_RECOMBINATIONS` subsets."""


class InternalCheckError(KnotObsError):
    """A self-check of a computed result failed: a defect in this package."""


# Largest breadth of a dense coefficient list; refusing larger ones keeps
# inputs such as t^200000 - 1 from tying up memory and time.
MAX_DENSE_BREADTH = 100_000


def check_breadth(breadth: int, what: str) -> None:
    """Refuse a polynomial of this breadth: ValidationError above the limit."""
    if breadth > MAX_DENSE_BREADTH:
        raise ValidationError(
            f"{what} {breadth} exceeds the dense polynomial limit {MAX_DENSE_BREADTH}"
        )


def check_torus(p: int, q: int) -> None:
    """Refuse (p, q) unless both are >= 2 and coprime: the parameters of a
    torus knot T(p,q)."""
    if p < 2 or q < 2:
        raise ValidationError("torus knot parameters must be >= 2")
    if math.gcd(p, q) != 1:
        raise ValidationError(f"torus knot parameters must be coprime: ({p},{q})")
