"""Exact piecewise-linear Upsilon calculus on [0,2], held by derivative jumps.

Upsilon of an L-space-form polynomial is realized through its staircase:
corners read off the alternating Alexander coefficients, then
U(t) = -2 min over corners (i,j) of [(1 - t/2) i + (t/2) j], the lower
envelope of the corner lines built in one stack pass that is linear in the
number of corners, so every admitted T(p,q) (pq <= 100000) answers.  The
derivative jump at t0 drives two obstructions: a genus bound from the
denominator of a singularity, and exclusion of nonzero jumps on (0, 1/n) for
sums of genus-n knots.  The J' family enters only through its published
derivative-jump germ (zero before 2/(2n-1), jump 2n-1 there); queries beyond
the certified range are refused rather than defaulted.

A PL function is held by its integer slope jumps over one common denominator,
in the form it shares with signature jumps (``jumps.RationalJumps``): a
sum is one merge, a derivative jump is a lookup, and breakpoints are integer
prefix sums.  The knot and polynomial layers are imported only where a
torus knot's Upsilon is computed, so the germ obstruction and the summand
certificate load neither.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    InsufficientDataError,
    NotLSpaceFormError,
    UnsupportedExpressionError,
    ValidationError,
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
# staircases of L-space-form polynomials
# ---------------------------------------------------------------------------


class Staircase(Record):
    """Even-index corner data of the staircase complex of an L-space-form
    polynomial: strictly monotone corners from (0,g) to (g,0), symmetric under
    (i,j) -> (j,i), within the genus band |i - j| <= g."""

    __slots__ = ("corners",)

    def _check(self):
        cs = self.corners
        if not cs:
            raise ValidationError("a staircase needs at least one corner")
        g = cs[0][1]
        if cs[0] != (0, g) or cs[-1] != (g, 0):
            raise ValidationError("staircase must run from (0,g) to (g,0)")
        for (i1, j1), (i2, j2) in zip(cs, cs[1:]):
            if not (i1 < i2 and j1 > j2):
                raise ValidationError("corners must strictly increase in i and decrease in j")
        if set(cs) != {(j, i) for i, j in cs}:
            raise ValidationError("corner set must be symmetric under (i,j) -> (j,i)")
        if any(abs(i - j) > g for i, j in cs):
            raise ValidationError("corner outside the genus band")

    @property
    def genus(self) -> int:
        return self.corners[0][1]


def staircase_from_alexander(f: laurent.LaurentPolynomial) -> Staircase:
    """Corners from an alternating +-1 polynomial: with exponents
    a_0 > a_1 > ... > a_{2l} the path takes horizontal steps a_{2r} - a_{2r+1}
    and vertical steps a_{2r+1} - a_{2r+2} from (0, a_0); even-index corners
    are returned."""
    if f.is_zero:
        raise NotLSpaceFormError("zero polynomial")
    exps = sorted(f.coeffs, reverse=True)
    coeffs = [f.coeff(e) for e in exps]
    if len(coeffs) % 2 == 0 or any(
        c != (1 if i % 2 == 0 else -1) for i, c in enumerate(coeffs)
    ):
        raise NotLSpaceFormError(
            "coefficients must alternate +1, -1 from the top exponent down"
        )
    corners = [(0, exps[0])]
    i = j = 0
    j = exps[0]
    for r in range(len(exps) - 1):
        step = exps[r] - exps[r + 1]
        if r % 2 == 0:
            i += step
        else:
            j -= step
        corners.append((i, j))
    even = tuple(corners[::2])
    try:
        return Staircase(even)
    except ValidationError as exc:
        raise NotLSpaceFormError(f"exponent pattern has no staircase: {exc}") from exc


def upsilon_from_staircase(s: Staircase) -> PiecewiseLinearFunction:
    """U(t) = -2 min over corners (i,j) of [(1 - t/2) i + (t/2) j], as the
    exact lower envelope of the corner lines a + b*u with a = i, b = j - i
    and u = t/2, in one stack pass.

    Along the staircase b strictly decreases, so the envelope visits the
    surviving lines in corner order.  The first corner (0, g) is the minimum
    for u <= 0 and the last corner (g, 0) for u >= 1, so every vertex of the
    envelope lies in (0, 2) and U vanishes at both ends."""
    hull: list[tuple[int, int]] = []
    for a3, b3 in ((i, j - i) for i, j in s.corners):
        # the top line 2 is redundant when the new line 3 meets the line 1
        # below it no later than line 2 does: x13 <= x12
        while len(hull) >= 2:
            (a1, b1), (a2, b2) = hull[-2], hull[-1]
            if (a3 - a1) * (b1 - b2) > (a2 - a1) * (b1 - b3):
                break
            hull.pop()
        hull.append((a3, b3))
    # U = -2a - b*t on line (a, b): slope -g from the first corner (0, g),
    # then a slope jump d = b1 - b2 at t = 2(a2 - a1)/d where line 1 hands
    # over to line 2
    steps = [(2 * (a2 - a1), b1 - b2) for (a1, b1), (a2, b2) in zip(hull, hull[1:])]
    den = math.lcm(*(d for _, d in steps))
    jumps = {n * (den // d): d for n, d in steps}
    jumps[0] = -hull[0][1]
    return PiecewiseLinearFunction._over(den, jumps)


def upsilon_torus(p: int, q: int) -> PiecewiseLinearFunction:
    from . import laurent

    return upsilon_from_staircase(staircase_from_alexander(laurent.torus_alexander(p, q)))


def upsilon_of_expression(e: knots.KnotExpression) -> PiecewiseLinearFunction:
    """Upsilon of sums and mirrors of torus knots, via additivity and
    negation under mirroring; other constructors are outside the computable
    class."""
    from . import knots

    def of(e):
        # the parts of a normalized expression are normalized
        if isinstance(e, knots.Unknot):
            return PiecewiseLinearFunction({})
        if isinstance(e, knots.TorusKnot):
            return upsilon_torus(e.p, e.q)
        if isinstance(e, knots.Mirror):
            return -of(e.inner)
        if isinstance(e, knots.Sum):
            return PiecewiseLinearFunction._sum(of(s) for s in e.summands)
        raise UnsupportedExpressionError(
            "Upsilon is only computed for sums and mirrors of torus knots; "
            "cabled and doubled summands enter through published germ data"
        )

    return of(knots.normalize(e))


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
