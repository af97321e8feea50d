"""Symbolic knot expressions and their classical invariants.

The expression language covers exactly what the concordance obstructions
need: torus knots, cables, untwisted Whitehead doubles, mirrors, connected
sums and the unknot.  Alexander polynomials and Seifert genus are computed
structurally; the three knot families J_n, J'_n and L_n are provided as
constructors.

Whitehead doubles are fixed as untwisted with positive clasp and enter every
computation only through Delta = 1 and g = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import (
    ParseError,
    UnsupportedExpressionError,
    ValidationError,
    check_torus,
)
from .reporting import Record

SLICE_GENUS_SOURCE_L = "published slice-genus computation for the L-family"


class TorusKnot(Record):
    __slots__ = ("p", "q")

    def _check(self):
        check_torus(self.p, self.q)


class Cable(Record):
    __slots__ = ("companion", "p", "q")

    def _check(self):
        if self.p < 1:
            raise ValidationError("cable longitude winding p must be >= 1")
        if math.gcd(self.p, abs(self.q)) != 1:
            raise ValidationError(f"cable parameters must be coprime: ({self.p},{self.q})")


class WhiteheadDouble(Record):
    __slots__ = ("companion",)


class Mirror(Record):
    __slots__ = ("inner",)


class Sum(Record):
    __slots__ = ("summands",)  # tuple of KnotExpression


class Unknot(Record):
    __slots__ = ()


KnotExpression = Union[TorusKnot, Cable, WhiteheadDouble, Mirror, Sum, Unknot]

UNKNOT = Unknot()


# ---------------------------------------------------------------------------
# constructors producing normalized expressions
# ---------------------------------------------------------------------------


def torus(p: int, q: int) -> TorusKnot:
    if p > q:
        p, q = q, p
    return TorusKnot(p, q)


def cable(companion: KnotExpression, p: int, q: int) -> KnotExpression:
    return normalize(Cable(companion, p, q))


def wh(companion: KnotExpression) -> WhiteheadDouble:
    return WhiteheadDouble(normalize(companion))


def mirror(e: KnotExpression) -> KnotExpression:
    return normalize(Mirror(e))


def sum_of(*exprs: KnotExpression) -> KnotExpression:
    return normalize(Sum(tuple(exprs)))


def normalize(e: KnotExpression) -> KnotExpression:
    """Canonical form: sums flattened, sorted and unknot-free; mirrors pushed
    inside sums and cancelled pairwise; single-summand sums collapsed."""
    if isinstance(e, (TorusKnot, Unknot)):
        return e
    if isinstance(e, Cable):
        inner = normalize(e.companion)
        if e.p == 1:
            # the (1,q) pattern is the core curve, so the cable is the companion
            return inner
        if inner is not e.companion:
            return Cable(inner, e.p, e.q)
        return e
    if isinstance(e, WhiteheadDouble):
        inner = normalize(e.companion)
        if inner is not e.companion:
            return WhiteheadDouble(inner)
        return e
    if isinstance(e, Mirror):
        inner = normalize(e.inner)
        if isinstance(inner, Unknot):
            return UNKNOT
        if isinstance(inner, Mirror):
            return inner.inner
        if isinstance(inner, Sum):
            return normalize(Sum(tuple(Mirror(s) for s in inner.summands)))
        return Mirror(inner)
    if isinstance(e, Sum):
        flat: list[KnotExpression] = []
        for s in e.summands:
            s = normalize(s)
            if isinstance(s, Sum):
                flat.extend(s.summands)
            elif isinstance(s, Unknot):
                continue
            else:
                flat.append(s)
        if not flat:
            return UNKNOT
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=format_knot)
        return Sum(tuple(flat))
    raise ValidationError(f"not a knot expression: {e!r}")


def summands(e: KnotExpression) -> tuple[KnotExpression, ...]:
    e = normalize(e)
    return e.summands if isinstance(e, Sum) else (e,)


# ---------------------------------------------------------------------------
# text grammar: T(p,q) | Wh(E) | Cable(E;p,q) | -E | E # E | U
# ---------------------------------------------------------------------------


def format_knot(e: KnotExpression) -> str:
    if isinstance(e, Unknot):
        return "U"
    if isinstance(e, TorusKnot):
        return f"T({e.p},{e.q})"
    if isinstance(e, WhiteheadDouble):
        return f"Wh({format_knot(e.companion)})"
    if isinstance(e, Cable):
        return f"Cable({format_knot(e.companion)};{e.p},{e.q})"
    if isinstance(e, Mirror):
        return f"-{format_knot(e.inner)}"
    if isinstance(e, Sum):
        return " # ".join(format_knot(s) for s in e.summands)
    raise ValidationError(f"not a knot expression: {e!r}")


# Deepest nesting of "(", "Wh(" and "Cable(" the parser accepts; it keeps
# parsing and the recursive invariants well inside the interpreter's stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.s = text.replace(" ", "").replace("\t", "")
        self.i = 0
        self.depth = 0

    def error(self, msg: str):
        raise ParseError(f"{msg} at position {self.i} in knot expression")

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def take(self, token: str):
        if not self.s.startswith(token, self.i):
            self.error(f"expected {token!r}")
        self.i += len(token)

    def integer(self) -> int:
        start = self.i
        if self.peek() == "-":
            self.i += 1
        while self.peek().isdigit():
            self.i += 1
        if self.i == start or self.s[start:self.i] == "-":
            self.error("expected an integer")
        try:
            return int(self.s[start:self.i])
        except ValueError:  # beyond the interpreter's integer string limit
            self.error(f"integer of {self.i - start} characters is too long")

    def expression(self) -> KnotExpression:
        parts = [self.term()]
        while self.peek() == "#":
            self.i += 1
            parts.append(self.term())
        return Sum(tuple(parts)) if len(parts) > 1 else parts[0]

    def term(self) -> KnotExpression:
        mirrored = False
        while self.peek() == "-":
            self.i += 1
            mirrored = not mirrored
        inner = self.atom()
        return Mirror(inner) if mirrored else inner

    def nested(self, opening: str) -> KnotExpression:
        """The expression after `opening`, one nesting level deeper."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.take(opening)
        self.depth += 1
        inner = self.expression()
        self.depth -= 1
        return inner

    def atom(self) -> KnotExpression:
        if self.s.startswith("T(", self.i):
            self.take("T(")
            p = self.integer()
            self.take(",")
            q = self.integer()
            self.take(")")
            return torus(p, q)
        if self.s.startswith("Wh(", self.i):
            inner = self.nested("Wh(")
            self.take(")")
            return WhiteheadDouble(inner)
        if self.s.startswith("Cable(", self.i):
            inner = self.nested("Cable(")
            self.take(";")
            p = self.integer()
            self.take(",")
            q = self.integer()
            self.take(")")
            return Cable(inner, p, q)
        if self.peek() == "U":
            self.i += 1
            return UNKNOT
        if self.peek() == "(":
            inner = self.nested("(")
            self.take(")")
            return inner
        self.error("expected a knot atom")


def parse_knot(text: str) -> KnotExpression:
    p = _Parser(text)
    e = p.expression()
    if p.i != len(p.s):
        p.error("trailing input")
    return normalize(e)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def alexander(e: KnotExpression) -> laurent.LaurentPolynomial:
    """Alexander polynomial, centered symmetric normalization.

    Cables use Delta_{K_{p,q}}(t) = Delta_K(t^p) * Delta_{T(p,q)}(t); for
    q in {0, +-1} the pattern torus factor is trivial.  Untwisted Whitehead
    doubles have trivial Alexander polynomial.

    Each product and substitution checks its breadth against
    errors.MAX_DENSE_BREADTH before it allocates, so nested cables fail
    fast.
    """
    from . import laurent

    e = normalize(e)
    if isinstance(e, Unknot):
        return laurent.ONE
    if isinstance(e, TorusKnot):
        return laurent.torus_alexander(e.p, e.q)
    if isinstance(e, WhiteheadDouble):
        return laurent.ONE
    if isinstance(e, Mirror):
        return alexander(e.inner)
    if isinstance(e, Sum):
        return math.prod([alexander(s) for s in e.summands], start=laurent.ONE)
    if isinstance(e, Cable):
        check_winding(e)
        companion = alexander(e.companion)
        pattern = laurent.torus_alexander(e.p, e.q) if e.q >= 2 else laurent.ONE
        return companion.substitute_power(e.p) * pattern
    raise ValidationError(f"not a knot expression: {e!r}")


def check_winding(e: Cable) -> None:
    """Refuse a cable whose meridian winding q is <= -2, which has no
    verified convention for its Alexander polynomial or signature."""
    if e.q <= -2:
        raise UnsupportedExpressionError(
            f"cable meridian winding {e.q} <= -2 has no verified convention"
        )


class GenusReport(Record):
    __slots__ = ("seifert_genus", "summand_max_genus", "slice_genus_hint", "slice_genus_source")
    _defaults = {"slice_genus_hint": None, "slice_genus_source": None}

    def _check(self):
        if self.summand_max_genus > self.seifert_genus:
            raise ValidationError("summand genus cannot exceed total genus")
        if self.slice_genus_hint is not None:
            if self.slice_genus_hint > self.seifert_genus:
                raise ValidationError("slice genus hint cannot exceed Seifert genus")
            if self.slice_genus_source is None:
                raise ValidationError("slice genus hints must carry a provenance tag")


def _seifert_genus(e: KnotExpression) -> int:
    if isinstance(e, Unknot):
        return 0
    if isinstance(e, TorusKnot):
        return (e.p - 1) * (e.q - 1) // 2
    if isinstance(e, WhiteheadDouble):
        return 1
    if isinstance(e, Mirror):
        return _seifert_genus(e.inner)
    if isinstance(e, Sum):
        return sum(_seifert_genus(s) for s in e.summands)
    if isinstance(e, Cable):
        if e.q <= 0:
            raise UnsupportedExpressionError(
                "Seifert genus of cables is only supported for q >= 1"
            )
        return e.p * _seifert_genus(e.companion) + (e.p - 1) * (e.q - 1) // 2
    raise ValidationError(f"not a knot expression: {e!r}")


def genus(e: KnotExpression) -> GenusReport:
    """Seifert genus from the standard constructions: g(T(p,q)) = (p-1)(q-1)/2,
    g(Wh K) = 1, g(K_{p,q}) = p g(K) + (p-1)(q-1)/2 for q >= 1, additive under
    connected sum.  Members of the L family carry the published slice genus
    1 as a hint."""
    e = normalize(e)
    total = _seifert_genus(e)
    per_summand = max(_seifert_genus(s) for s in summands(e))
    l_member = _is_L_member(e)
    return GenusReport(
        seifert_genus=total,
        summand_max_genus=per_summand,
        slice_genus_hint=1 if l_member else None,
        slice_genus_source=SLICE_GENUS_SOURCE_L if l_member else None,
    )


def _is_L_member(e: KnotExpression) -> bool:
    """True when the normalized e is L_n, n being the p of its Cable
    summand; such knots have published slice genus 1."""
    return any(
        isinstance(s, Cable) and e == family("L", s.p) for s in summands(e)
    )


# ---------------------------------------------------------------------------
# the three families
# ---------------------------------------------------------------------------


def family(name: str, n: int) -> KnotExpression:
    """Family member by name:

    J      (Wh T(2,3))_{n,n+1} # -T(n,n+1)
    Jprime (Wh T(2,3))_{n,2n-1} # -T(n,2n-1)
    L      (Wh T(2,3))_{n,1} # -(Wh T(2,3))_{n-1,1}

    genus() reports the published slice genus 1 of every L member.
    """
    if n < 2:
        raise ValidationError(f"family index must be >= 2, got {n}")
    core = wh(torus(2, 3))
    if name == "J":
        expr = sum_of(cable(core, n, n + 1), mirror(torus(n, n + 1)))
    elif name == "Jprime":
        expr = sum_of(cable(core, n, 2 * n - 1), mirror(torus(n, 2 * n - 1)))
    elif name == "L":
        expr = sum_of(cable(core, n, 1), mirror(cable(core, n - 1, 1)))
    else:
        raise ValidationError(f"unknown family {name!r}; expected J, Jprime or L")
    return expr


def gsp_bound_of_knot(e: KnotExpression) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds for the splitting concordance genus: lower from
    odd-multiplicity self-reciprocal Alexander factors, upper from the largest
    Seifert genus among the top-level summands."""
    from . import laurent

    lower = laurent.gsp_lower_bound(alexander(e))
    upper = Fraction(genus(e).summand_max_genus)
    return lower, upper
