"""Symbolic knot expressions and their classical invariants.

The expression language covers exactly what the concordance obstructions
need: torus knots, cables, untwisted Whitehead doubles, mirrors, connected
sums and the unknot.  Alexander polynomials (as binomials t^e - 1) and
Seifert genus are computed structurally, and the factorization of an
Alexander polynomial, a product of cyclotomic polynomials, from integer
indices; the three knot families J_n, J'_n and L_n are constructors.

Whitehead doubles are fixed as untwisted with positive clasp and enter every
computation only through Delta = 1 and g = 1.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Union

from .errors import (
    InternalCheckError,
    ParseError,
    UnsupportedExpressionError,
    ValidationError,
    check_breadth,
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
    inside sums and cancelled pairwise; single-summand sums collapsed.  An
    expression already in this form is returned as it is."""
    if isinstance(e, (TorusKnot, Unknot)):
        return e
    if isinstance(e, Cable):
        inner = normalize(e.companion)
        if e.p == 1:
            # the (1,q) pattern is the core curve, so the cable is the companion
            return inner
        if isinstance(inner, Unknot):
            # the (p,q) pattern in an unknotted solid torus is T(p,q), the
            # unknot when |q| = 1 and the mirror of T(p,|q|) when q <= -2
            if abs(e.q) == 1:
                return UNKNOT
            return torus(e.p, e.q) if e.q > 0 else Mirror(torus(e.p, -e.q))
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
        return e if inner is e.inner else Mirror(inner)
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
        flat = tuple(sorted(flat, key=format_knot))
        return e if flat == e.summands else Sum(flat)
    raise ValidationError(f"not a knot expression: {e!r}")


def signed_summands(e: KnotExpression) -> list[tuple[KnotExpression, int]]:
    """The #-summands of e, normalized once, as (summand, sign): a mirror
    becomes the sign -1 and the unknot is dropped, so no summand is a Sum,
    a Mirror or the unknot."""
    return _signed(normalize(e))


def _signed(e: KnotExpression) -> list[tuple[KnotExpression, int]]:
    """signed_summands of an e that is already normalized, such as the
    companion of a normalized cable."""
    if isinstance(e, Sum):
        return [(s.inner, -1) if isinstance(s, Mirror) else (s, 1) for s in e.summands]
    if isinstance(e, Mirror):
        return [(e.inner, -1)]
    return [] if isinstance(e, Unknot) else [(e, 1)]


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
        # "-A # B" reads as (-A) # B, so a mirrored sum keeps its parentheses
        inner = format_knot(e.inner)
        return f"-({inner})" if isinstance(e.inner, Sum) else f"-{inner}"
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


def alexander_exponents(e: KnotExpression) -> dict[int, int]:
    """{e: m}, m nonzero, with prod (t^e - 1)^m the Alexander polynomial of
    e up to a unit.  T(p,q) gives (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)),
    and Delta_{K_{p,q}}(t) = Delta_K(t^p) Delta_{T(p,q)}(t) (the pattern
    only for q >= 2); Wh(K) gives 1, a mirror the same, a #-sum adds.  The
    breadth, the sum of e m, is checked against errors.MAX_DENSE_BREADTH at
    each cable and sum, so nested cables are refused before any list is built."""
    exponents, _ = _binomials(signed_summands(e))
    return {k: m for k, m in exponents.items() if m}


def _binomials(parts) -> tuple[Counter, int]:
    """(exponents, breadth) of the #-sum of parts from signed_summands: each
    summand is read, then the breadths add up, each partial sum checked."""
    summands = [_summand_binomials(s) for s, _ in parts]
    out, breadth = Counter(), 0
    for exponents, b in summands:
        out.update(exponents)
        breadth += b
        check_breadth(breadth, "breadth")
    return out, breadth


def _summand_binomials(s: KnotExpression) -> tuple[Counter, int]:
    out, b, pattern = Counter(), 0, 0
    if isinstance(s, WhiteheadDouble):
        return out, b
    if isinstance(s, Cable):
        check_winding(s)
        companion, b = _binomials(_signed(s.companion))
        out.update({e * s.p: m for e, m in companion.items()})
    if s.q >= 2:  # a torus knot, or the pattern T(p,q) of a cable
        check_breadth(s.p * s.q, "torus knot product pq")
        out.update({s.p * s.q: 1, 1: 1, s.p: -1, s.q: -1})
        pattern = (s.p - 1) * (s.q - 1)
    # Delta_K(t^p), then its product with the pattern's polynomial
    check_breadth(b * s.p, "breadth")
    check_breadth(b * s.p + pattern, "breadth")
    return out, b * s.p + pattern


def alexander(e: KnotExpression) -> laurent.LaurentPolynomial:
    """Alexander polynomial, centered symmetric normalization: the binomials
    of `alexander_exponents`, expanded one linear pass each."""
    from . import laurent

    return laurent._binomial_product(alexander_exponents(e))


def alexander_factorization(e: KnotExpression) -> laurent.Factorization:
    """The irreducible factorization of alexander(e), read from integer
    index arithmetic alone (`_alexander_indices`), with no Delta built.  The
    exponents are read first, so every refusal is alexander's, and the
    answer is accepted only when its sign is +1, its exponent minus half the
    breadth, and the Moebius binomials of its factors are those exponents:
    a product of binomials t^e - 1 fixes its exponents, each a new Phi_e."""
    from . import laurent

    parts = signed_summands(e)
    exponents, breadth = _binomials(parts)
    found = {laurent._cyclotomic(d): m for d, m in _alexander_indices(parts).items()}
    fac = laurent._factorization(1, -breadth // 2, found)
    binomials = Counter(laurent._moebius_binomials((p.d, m) for p, m in fac.factors))
    # Counters compare with their zero counts left out
    if (fac.sign, fac.exponent, binomials) != (1, -breadth // 2, exponents):
        raise InternalCheckError("self-check failed: the cyclotomic indices must reproduce Delta")
    return fac


def _alexander_indices(parts) -> Counter:
    """{d: m} with prod Phi_d^m the Alexander polynomial of the #-sum of
    parts, (summand, sign) pairs as signed_summands gives them.

    Delta_{T(p,q)} is the product of Phi_d over d | pq with d dividing
    neither p nor q.  A cable K_{p,q} has the indices of Delta_K(t^p) and,
    for q >= 2, those of its pattern T(p,q).  Phi_d(t^l) for a prime l is
    Phi_{dl} when l | d and Phi_{dl} Phi_d otherwise; taken one prime of p
    at a time, Phi_d(t^p) is the product of Phi_{d p1 e} over e | p2, where
    p1 is the part of p whose primes divide d and p2 = p / p1.  Wh(K) has
    no index; a mirror keeps its indices and a #-sum adds them.
    """
    out = Counter()
    for s, _ in parts:
        if isinstance(s, Cable):
            for d, m in _alexander_indices(_signed(s.companion)).items():
                p2 = s.p
                while (g := math.gcd(p2, d)) > 1:
                    p2 //= g
                out.update({d * s.p // p2 * e: m for e in _divisors(p2)})
        # a torus knot, or the pattern T(p,q) of a cable
        if not isinstance(s, WhiteheadDouble) and s.q >= 2:
            out.update(a * b for a in _divisors(s.p)[1:] for b in _divisors(s.q)[1:])
    return out


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, in increasing order."""
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


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


def _seifert_genus(s: KnotExpression) -> int:
    """Seifert genus of a summand from signed_summands."""
    if isinstance(s, TorusKnot):
        return (s.p - 1) * (s.q - 1) // 2
    if isinstance(s, WhiteheadDouble):
        return 1
    if s.q <= 0:
        raise UnsupportedExpressionError(
            "Seifert genus of cables is only supported for q >= 1"
        )
    companion = sum(_seifert_genus(c) for c, _ in _signed(s.companion))
    return s.p * companion + (s.p - 1) * (s.q - 1) // 2


def genus(e: KnotExpression) -> GenusReport:
    """Seifert genus from the standard constructions: g(T(p,q)) = (p-1)(q-1)/2,
    g(Wh K) = 1, g(K_{p,q}) = p g(K) + (p-1)(q-1)/2 for q >= 1, additive under
    connected sum.  Members of the L family carry the published slice genus
    1 as a hint, which e carries when it equals L_n for n the p of one of
    its unmirrored cable summands."""
    parts = signed_summands(e)
    total = per_summand = 0
    l_member = False
    for s, sign in parts:
        g = _seifert_genus(s)
        total += g
        per_summand = max(per_summand, g)
        if sign > 0 and isinstance(s, Cable) and not l_member:
            l_member = parts == _signed(family("L", s.p))
    return GenusReport(
        seifert_genus=total,
        summand_max_genus=per_summand,
        slice_genus_hint=1 if l_member else None,
        slice_genus_source=SLICE_GENUS_SOURCE_L if l_member else None,
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

    lower = laurent.gsp_lower_bound_of_factorization(alexander_factorization(e))
    upper = Fraction(genus(e).summand_max_genus)
    return lower, upper
