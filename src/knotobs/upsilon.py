"""Exact piecewise-linear Upsilon calculus on [0,2], held by derivative jumps.

Upsilon of a torus knot follows Euclid's algorithm on its parameters:
U_{T(a,b)} = U_{T(a,b-a)} + U_{T(a,a+1)} for 1 < a < b (Feller and
Krcatovich, Math. Ann. 2017), and U_{T(a,a+1)} is known in closed form
(Ozsvath, Stipsicz and Szabo, Adv. Math. 2017), so every admitted T(p,q)
(pq <= 100000) is a few integer operations, with no Alexander polynomial.
The derivative jump at t0 drives two obstructions: a genus bound from the
denominator of a singularity, and exclusion of nonzero jumps on (0, 1/n) for
sums of genus-n knots.  The J' family enters only through its published
derivative-jump germ (zero before 2/(2n-1), jump 2n-1 there); queries beyond
the certified range are refused rather than defaulted.

A PL function is held by its integer slope jumps over one common denominator,
in the form it shares with signature jumps (``jumps.RationalJumps``): a
sum is one merge, a derivative jump is a lookup, and breakpoints are integer
prefix sums.  An expression is read through ``knots.signed_summands`` as
signed torus-knot summands, since Upsilon adds over # and changes sign under
mirroring.  No polynomial code is imported, and the knot layer only where an
expression's Upsilon is computed, so the germ obstruction and the summand
certificate load neither.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    InsufficientDataError,
    UnsupportedExpressionError,
    ValidationError,
    check_breadth,
    check_torus,
)
from .jumps import RationalJumps
from .reporting import Certificate, CertificateCheck, Record

JPRIME_GERM_SOURCE = "published derivative-jump computation for the J' family"
# Largest side n_max - k + 1 of the summand certificate's matrix, which holds
# the square of it in entries.
MAX_CERTIFY_RANGE = 500


# ---------------------------------------------------------------------------
# piecewise linear functions
# ---------------------------------------------------------------------------


class PiecewiseLinearFunction(RationalJumps):
    """Exact PL function U on [0,2] with U(0) = 0, held by its integer
    derivative jumps at rationals in [0,2): the slope at 0 is the jump at
    t = 0 (taking U' = 0 before 0), so U(t) is the sum over jumps j at s < t
    of j * (t - s).  Only nonzero jumps are kept, so equality is equality of
    graphs."""

    __slots__ = ()

    @staticmethod
    def _check(den: int, jumps: dict) -> None:
        for n in jumps:
            if not 0 <= n < 2 * den:
                raise ValidationError(f"slope jump location {Fraction(n, den)} outside [0,2)")

    def value(self, t) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 2:
            raise ValidationError(f"{t} outside the domain [0,2]")
        # for t = a/b, t - n/N = (a * N - n * b) / (b * N)
        b, target = t.denominator, t.numerator * self._den
        total = sum(j * (target - n * b) for n, j in self._jumps.items() if n * b < target)
        return Fraction(total, b * self._den)

    def slope_right(self, t) -> int:
        t = Fraction(t)
        if not 0 <= t < 2:
            raise ValidationError(f"no right slope at {t}")
        d, target = t.denominator, t.numerator * self._den
        return sum(j for n, j in self._jumps.items() if n * d <= target)

    def delta_prime(self, t0) -> int:
        """Jump of the derivative at t0 in (0,2): right slope minus left slope."""
        t0 = Fraction(t0)
        if not 0 < t0 < 2:
            raise ValidationError(f"derivative jumps are defined on (0,2), got {t0}")
        n, r = divmod(t0.numerator * self._den, t0.denominator)
        return 0 if r else self._jumps.get(n, 0)

    def singularities(self) -> tuple[Fraction, ...]:
        """Locations in (0,2) of the derivative jumps, each nonzero."""
        return tuple(x for x, _ in self._located() if x)

    def reflected(self) -> "PiecewiseLinearFunction":
        """The function t -> value(2 - t), valid when it vanishes at t = 2:
        each jump at s moves to 2 - s, and the slope at 0 becomes minus the
        slope before 2."""
        if self.value(2) != 0:
            raise ValidationError("reflection needs value 0 at t = 2")
        N = self._den
        jumps = {2 * N - n: j for n, j in self._jumps.items() if n}
        jumps[0] = -sum(self._jumps.values())
        return self._over(N, jumps)

    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(t, U(t)) at 0, at each singularity and at 2, by integer prefix
        sums over the common denominator N: U(n/N) = (n * S - W) / N with S
        and W the sums of j and of j * m over the jumps j at m/N < n/N."""
        N = self._den
        out = [(Fraction(0), Fraction(0))]
        slope = weighted = 0
        for n, j in self._jumps.items():
            if n:
                out.append((Fraction(n, N), Fraction(n * slope - weighted, N)))
            slope += j
            weighted += j * n
        out.append((Fraction(2), Fraction(2 * N * slope - weighted, N)))
        return tuple(out)


# ---------------------------------------------------------------------------
# torus knots
# ---------------------------------------------------------------------------


def upsilon_torus(p: int, q: int) -> PiecewiseLinearFunction:
    """Upsilon of T(p,q) by Euclid's algorithm on (p, q).

    For 1 < a < b, U_{T(a,b)} = U_{T(a,b-a)} + U_{T(a,a+1)} (Feller and
    Krcatovich, "On cobordisms between knots, braid index, and the
    Upsilon-invariant", Math. Ann. 2017), so with b = k*a + r, T(a,b)
    contributes k copies of U_{T(a,a+1)} and continues as T(r,a), until the
    smaller index is 1 (the unknot).  U_{T(a,a+1)} has slope -a(a-1)/2 at 0
    and a slope jump +a at each 2i/a, i = 1..a-1 (Ozsvath, Stipsicz and
    Szabo, "Concordance homomorphisms from knot Floer homology",
    Adv. Math. 2017)."""
    check_torus(p, q)
    check_breadth(p * q, "torus knot product pq")
    a, b = min(p, q), max(p, q)
    steps = []  # (a, k): k copies of U_{T(a,a+1)}
    while a > 1:
        k, r = divmod(b, a)
        steps.append((a, k))
        a, b = r, a
    den = math.lcm(*(a for a, _ in steps))
    jumps = {0: -sum(k * a * (a - 1) // 2 for a, k in steps)}
    for a, k in steps:
        # the jump at 2i/a is at numerator i * (2 den / a) over den
        w = 2 * den // a
        for n in range(w, 2 * den, w):
            jumps[n] = jumps.get(n, 0) + k * a
    return PiecewiseLinearFunction._over(den, jumps)


def upsilon_of_expression(e: knots.KnotExpression) -> PiecewiseLinearFunction:
    """Upsilon of sums and mirrors of torus knots, via additivity and
    negation under mirroring; other constructors are outside the computable
    class."""
    from . import knots

    def of(s, sign):
        if not isinstance(s, knots.TorusKnot):
            raise UnsupportedExpressionError(
                "Upsilon is only computed for sums and mirrors of torus knots; "
                "cabled and doubled summands enter through published germ data"
            )
        u = upsilon_torus(s.p, s.q)
        return u if sign > 0 else -u

    parts = knots.signed_summands(e)
    if len(parts) == 1:
        return of(*parts[0])
    # the sum counts each part's jumps as it arrives, before the next is read
    return PiecewiseLinearFunction._sum(of(*part) for part in parts)


# ---------------------------------------------------------------------------
# derivative-jump germs
# ---------------------------------------------------------------------------


class JumpGerm(Record):
    """Partial low-t record of a derivative-jump function: zero on
    (0, first_singularity), with jump jump_value there.  Nothing beyond
    first_singularity is certified."""

    __slots__ = ("first_singularity", "jump_value", "source")
    _defaults = {"source": "user-supplied"}

    def _check(self):
        if not 0 < self.first_singularity < 2:
            raise ValidationError("first singularity must lie in (0,2)")
        if self.jump_value <= 0:
            raise ValidationError("germ jump value must be positive")

    def delta_prime(self, t0) -> Fraction:
        t0 = Fraction(t0)
        if t0 == self.first_singularity:
            return self.jump_value
        if t0 < self.first_singularity:
            return Fraction(0)
        raise InsufficientDataError(
            f"germ certifies nothing beyond t = {self.first_singularity}"
        )


def jprime_germ(n: int) -> JumpGerm:
    """Published derivative-jump germ of the n-th J' knot: zero before
    2/(2n-1), jump 2n-1 there."""
    if n < 2:
        raise ValidationError(f"J' family index must be >= 2, got {n}")
    return JumpGerm(
        first_singularity=Fraction(2, 2 * n - 1),
        jump_value=Fraction(2 * n - 1),
        source=JPRIME_GERM_SOURCE,
    )


# ---------------------------------------------------------------------------
# homomorphisms and obstructions
# ---------------------------------------------------------------------------


def oss_hom(source, p: int, q: int) -> Fraction:
    """Integer-valued concordance homomorphism at the rational p/q in (0,2):
    (1/q) dU'(p/q) for even p, (1/(2q)) dU'(p/q) for odd p."""
    if q < 1 or math.gcd(p, q) != 1:
        raise ValidationError(f"{p}/{q} must be a reduced fraction")
    t0 = Fraction(p, q)
    if not 0 < t0 < 2:
        raise ValidationError(f"evaluation point {t0} outside (0,2)")
    dj = source.delta_prime(t0)
    return Fraction(dj, q if p % 2 == 0 else 2 * q)


def min_genus_from_singularity(p: int, q: int) -> int:
    """Least genus compatible with a derivative jump at reduced p/q: q for odd
    p (q <= g), ceil(q/2) for even p (q <= 2g)."""
    if q < 1 or math.gcd(p, q) != 1:
        raise ValidationError(f"{p}/{q} must be a reduced fraction")
    if not 0 < Fraction(p, q) < 2:
        raise ValidationError(f"{p}/{q} outside (0,2)")
    return q if p % 2 == 1 else (q + 1) // 2


class ObstructionVerdict(Record):
    __slots__ = ("status", "witness", "detail")  # status: obstructed | not_obstructed
    _defaults = {"witness": None, "detail": ""}


def obstruct_Gn(source, n: int) -> ObstructionVerdict:
    """Membership obstruction against sums of genus <= n knots: any nonzero
    derivative jump at a rational in (0, 1/n) obstructs."""
    if n < 1:
        raise ValidationError("genus level must be >= 1")
    window = Fraction(1, n)
    if isinstance(source, PiecewiseLinearFunction):
        # every stored jump is nonzero, so the first singularity decides
        sing = source.singularities()
        if sing and sing[0] < window:
            t = sing[0]
            return ObstructionVerdict(
                "obstructed",
                witness=t,
                detail=f"derivative jump {source.delta_prime(t)} at {t} < 1/{n}",
            )
        return ObstructionVerdict(
            "not_obstructed", detail=f"no derivative jump on (0, 1/{n})"
        )
    if isinstance(source, JumpGerm):
        t0 = source.first_singularity
        if t0 < window:
            return ObstructionVerdict(
                "obstructed",
                witness=t0,
                detail=f"certified jump {source.delta_prime(t0)} at {t0} < 1/{n}",
            )
        return ObstructionVerdict(
            "not_obstructed",
            detail=f"certified zero on (0, {t0}) covers (0, 1/{n})",
        )
    raise ValidationError(f"cannot obstruct with {source!r}")


# ---------------------------------------------------------------------------
# summand certificate
# ---------------------------------------------------------------------------


class UpsilonSummandCertificate(Certificate):
    """Checked hypotheses that the J' family from index k on maps onto a basis
    of a Z^infinity summand of the concordance group modulo genus <= k-1.
    `matrix` has rows m and columns n, with None where uncertified."""

    __slots__ = ("k", "n_max", "matrix", "provenance")

    def as_dict(self) -> dict:
        # the derived rows follow n_max; a repeated key keeps its first place
        rows = list(range(self.k, self.n_max + 1))
        return {"k": self.k, "n_max": self.n_max, "rows": rows, **super().as_dict()}


def summand_certificate_upsilon(k: int, n_max: int) -> UpsilonSummandCertificate:
    """Evaluate the germ-certified part of the homomorphism matrix
    M[m][n] = oss_hom(jprime_germ(n), 2, 2m-1) and check it is triangular with
    unit diagonal, with every evaluation point inside the exclusion window
    (0, 1/(k-1))."""
    if k < 2:
        raise ValidationError("certificate needs k >= 2")
    if n_max < k:
        raise ValidationError(f"n_max must be >= k, got {n_max} < {k}")
    if n_max - k + 1 > MAX_CERTIFY_RANGE:
        raise ValidationError(
            f"range {k}..{n_max} holds {n_max - k + 1} knots, above the limit {MAX_CERTIFY_RANGE}"
        )
    indices = range(k, n_max + 1)
    germs = {n: jprime_germ(n) for n in indices}
    matrix: list[tuple[Fraction | None, ...]] = []
    checks: list[CertificateCheck] = []
    for m in indices:
        row: list[Fraction | None] = []
        for n in indices:
            if m >= n:
                row.append(oss_hom(germs[n], 2, 2 * m - 1))
            else:
                row.append(None)  # beyond the germ's certified range
        matrix.append(tuple(row))
    for a, m in enumerate(indices):
        diag = matrix[a][a]
        checks.append(
            CertificateCheck(
                f"unit_diagonal[{m}]",
                diag == 1,
                f"M[{m}][{m}] = {diag}",
            )
        )
    below_ok = all(
        matrix[a][b] == 0 for a in range(len(matrix)) for b in range(a)
    )
    checks.append(
        CertificateCheck(
            "triangular_below_diagonal",
            below_ok,
            "all germ-certified entries with m > n vanish",
        )
    )
    window = Fraction(1, k - 1)
    for m in indices:
        t = Fraction(2, 2 * m - 1)
        checks.append(
            CertificateCheck(
                f"evaluation_in_window[{m}]",
                t < window,
                f"2/(2m-1) = {t} vs 1/(k-1) = {window}",
            )
        )
    return UpsilonSummandCertificate(
        k=k,
        n_max=n_max,
        matrix=tuple(matrix),
        checks=tuple(checks),
        provenance=(JPRIME_GERM_SOURCE,),
        conclusion_if_valid=(
            f"J'_{k} .. J'_{n_max} represent part of a basis of a "
            f"Z^inf summand modulo knots of genus <= {k - 1}"
        ),
    )
