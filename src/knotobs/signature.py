"""Tristram-Levine signature jump functions and a Seifert-matrix oracle.

Two independent routes to the signature function of torus-knot expressions:

* ``expression_jumps`` reads an expression built from torus knots,
  cables of trivial-Alexander companions, mirrors and sums through
  ``knots.signed_summands`` as signed torus terms and writes the jumps of
  every term, from the combinatorial rule on the multiset { i/p + j/q },
  into one ``JumpFunction``.  A jump function is
  a ``jumps.RationalJumps`` (as is ``upsilon.PiecewiseLinearFunction``):
  integer jumps at numerators over one common denominator (i/p + j/q is
  (iq + jp)/pq) in one canonical form.  ``signature_at`` reads the same
  terms and counts the points of the rule below x instead of listing them.
* ``seifert_from_braid`` + ``numeric_signature`` compute signatures from a
  Seifert matrix of the closed braid, by counting eigenvalue signs of
  (1-w)V + (1-conj w)V^T with certified precision.

The two routes are compared exactly in the test suite; neither feeds the
other.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import knots
from .errors import (
    AmbiguousSignatureError,
    InternalCheckError,
    JumpEvaluationError,
    UnsupportedExpressionError,
    ValidationError,
    check_breadth,
    check_torus,
)
from .jumps import RationalJumps, check_jump_count
from .reporting import Certificate, CertificateCheck, Record


# ---------------------------------------------------------------------------
# jump functions
# ---------------------------------------------------------------------------


class JumpFunction(RationalJumps):
    """Finite set of signature jumps at rationals in (0,1).

    Jumps are nonzero even integers with jump(1-x) = -jump(x); the running
    sum from 0+ is the signature step function.
    """

    __slots__ = ()

    @staticmethod
    def _check(den: int, jumps: dict) -> None:
        # the numerators are sorted, so n and den - n sit at mirrored
        # places: the k-th smallest pairs with the k-th largest
        if not jumps:
            return
        items = list(jumps.items())
        for n, _ in (items[0], items[-1]):
            if not 0 < n < den:
                raise ValidationError(f"jump location {Fraction(n, den)} outside (0,1)")
        for (n, j), (m, k) in zip(items[: (len(items) + 1) // 2], reversed(items)):
            if j % 2 != 0:
                raise ValidationError(f"jump {j} at {Fraction(n, den)} is odd")
            if n + m != den or j + k != 0:
                raise ValidationError(
                    f"conjugate antisymmetry fails at {Fraction(n, den)}: "
                    f"{j} vs {jumps.get(den - n, 0)}"
                )

    @property
    def jumps(self) -> dict:
        return dict(self._located())

    @property
    def support(self) -> tuple:
        return tuple(x for x, _ in self._located())

    def as_rows(self) -> list[dict]:
        return [{"x": str(x), "jump": j} for x, j in self._located()]


EMPTY_JUMPS = JumpFunction({})


def _torus_points(p: int, q: int, k: int, jump: int) -> dict:
    """The jumps of T(p,q) times jump/2, at numerators over k*pq: +jump at
    each point of S = { i/p + j/q : 1 <= i <= p-1, 1 <= j <= q-1 } in (0,1)
    and -jump at s - 1 for each s in S above 1.

    Row i of S has the numerators iq + jp, j = 1..q-1, over pq: those below
    pq are points of S in (0,1), and the others, less pq, run from
    iq mod p up to iq - p."""
    if p > q:
        p, q = q, p  # fewer, longer rows
    kp, kN = k * p, k * p * q
    up: list[int] = []
    down: list[int] = []
    for iq in range(k * q, kN, k * q):
        up += range(iq + kp, kN, kp)
        down += range(iq % kp, iq - kp + 1, kp)
    out = dict.fromkeys(up, jump)
    out.update(dict.fromkeys(down, -jump))
    # a repeated numerator would overwrite a jump and fail the count
    if len(out) != (p - 1) * (q - 1):
        raise InternalCheckError("self-check failed: T(p,q) has (p-1)(q-1) distinct jumps")
    return out


def _jumps_of(terms: list[tuple[int, int, int]]) -> JumpFunction:
    """Jump function of the sum of sign * T(p,q) over the (p, q, sign)
    terms: every term written into one accumulator over the lcm of the
    products pq, which is validated once."""
    den = math.lcm(*(p * q for p, q, _ in terms))
    acc: dict[int, int] = {}
    for p, q, sign in terms:
        points = _torus_points(p, q, den // (p * q), 2 * sign)
        if acc:
            shared = {n: acc[n] + points[n] for n in acc.keys() & points.keys()}
            acc.update(points)
            acc.update(shared)
        else:
            acc = points
    return JumpFunction._over(den, acc)


def torus_jumps(p: int, q: int) -> JumpFunction:
    """Signature jumps of the (p,q) torus knot at x in (0,1), w = e^{2 pi i x}:
    +2 at points of S in (0,1) and -2 at points of S - 1, where
    S = { i/p + j/q : 1 <= i <= p-1, 1 <= j <= q-1 }.  Over N = pq the point
    i/p + j/q has numerator i*q + j*p."""
    check_torus(p, q)
    check_breadth(p * q, "torus knot product pq")
    return _jumps_of([(p, q, 1)])


def _torus_term(e: knots.KnotExpression, sign: int):
    """(p, q, sign) for the torus knot whose signature function is that of
    the summand e from `knots.signed_summands`, or None where it vanishes.

    A cable contributes only its pattern torus knot because the companion has
    vanishing signature function (Delta = 1 forces sigma = 0, and
    sigma_w(K_{p,q}) = sigma_{w^p}(K) + sigma_w(T(p,q)))."""
    if isinstance(e, knots.WhiteheadDouble):
        return None
    if isinstance(e, knots.Cable):
        from .laurent import ONE  # only a cable needs the polynomial layer

        if knots.alexander(e.companion) != ONE:
            raise UnsupportedExpressionError(
                "cable signatures are only supported over companions with "
                "trivial Alexander polynomial"
            )
        knots.check_winding(e)
        if e.q < 2:
            return None
    check_torus(e.p, e.q)
    check_breadth(e.p * e.q, "torus knot product pq")
    return e.p, e.q, sign


def _torus_terms(e: knots.KnotExpression) -> list[tuple[int, int, int]]:
    """The (p, q, sign) terms whose sum of sign * sigma(T(p,q)) is the
    signature function of e, summand by summand; T(p,q) has (p-1)(q-1)
    jumps, and their count is refused past `jumps.MAX_JUMPS` as each
    summand is read."""
    terms, total = [], 0
    for s, sign in knots.signed_summands(e):
        term = _torus_term(s, sign)
        if term is not None:
            terms.append(term)
            total += (term[0] - 1) * (term[1] - 1)
            check_jump_count(total)
    return terms


def expression_jumps(e: knots.KnotExpression) -> JumpFunction:
    """Jump function of an expression built from torus knots, trivial-Alexander
    companions and their cables, mirrors and sums."""
    return _jumps_of(_torus_terms(e))


def _count_below(p: int, q: int, b: int, t: int) -> int:
    """#{(i, j) : 1 <= i <= p-1, 1 <= j <= q-1, b(iq + jp) < t}, one floor
    per row: row i holds the j with j * bp <= t - 1 - i * bq, at most q - 1
    of them, and the rows shrink as i grows."""
    if p > q:
        p, q = q, p
    bp, bq = b * p, b * q
    count, u = 0, t - 1 - bq
    for _ in range(p - 1):
        if u < bp:
            break
        count += min(q - 1, u // bp)
        u -= bq
    return count


def _torus_jump(p: int, q: int, n: int) -> int:
    """Jump of T(p,q)'s signature at n/pq, 0 < n < pq.  The solution of
    iq + jp = n mod pq with i mod p and j mod q is unique; when neither is 0
    it is a point of S, at n (+2) or at n + pq (-2)."""
    if n % p == 0 or n % q == 0:
        return 0
    i = n * pow(q, -1, p) % p
    j = (n - i * q) // p % q
    return 2 if i * q + j * p < p * q else -2


def signature_at(e: knots.KnotExpression, x) -> int:
    """Signature sigma_w at w = e^{2 pi i x}, x a non-jump rational in (0,1);
    at a jump point of e, JumpEvaluationError carries both one-sided limits.

    Each term T(p,q) gives sigma(x-) = 2 #{s in S : s < x}
    - 2 #{s in S : 1 < s < 1 + x}, counted in O(min(p, q)) steps, and
    #{s in S : s < 1} = (p-1)(q-1)/2 since s -> 2 - s maps S onto itself."""
    terms = _torus_terms(e)
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValidationError(f"evaluation point {x} outside (0,1)")
    a, b = x.numerator, x.denominator
    left = jump = 0
    for p, q, sign in terms:
        N = p * q
        below_x = _count_below(p, q, b, a * N)
        below_1_plus_x = _count_below(p, q, b, (a + b) * N)
        left += 2 * sign * (below_x - below_1_plus_x + (p - 1) * (q - 1) // 2)
        if N % b == 0:
            jump += sign * _torus_jump(p, q, a * (N // b))
    if jump:
        raise JumpEvaluationError(x, left, left + jump)
    return left


# ---------------------------------------------------------------------------
# Seifert matrices from braid closures
# ---------------------------------------------------------------------------


class SeifertMatrix(Record):
    """Integer Seifert matrix; size is even and det(V - V^T) = +-1, checked
    as Pf(V - V^T) = +-1."""

    __slots__ = ("entries",)

    def _check(self):
        V = self.entries
        n = len(V)
        if any(len(row) != n for row in V):
            raise ValidationError("Seifert matrix must be square")
        if n % 2 != 0:
            raise ValidationError("Seifert matrix of a knot has even size")
        if not _pfaffian_is_unit(V):
            raise ValidationError("V - V^T must be unimodular")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return self.size // 2


def _pfaffian_is_unit(V) -> bool:
    """|Pf A| = 1, that is |det A| = 1, for the skew-symmetric A = V - V^T
    of a square integer matrix V, read from V's entries.

    Skew-symmetric elimination with 2x2 pivots (Bunch, "A note on the
    stable decomposition of skew-symmetric matrices", Math. Comp. 38, 1982):
    a pivot (a, b) with p = A[a][b] != 0 leaves Pf A = +-p Pf S, where the
    Schur complement S on the other indices is A[i][j] + (u[j] v[i] -
    u[i] v[j]) / p for the rows u = A[a], v = A[b].  It differs from A only
    where u or v has an entry, so the rows are kept sparse and only those
    entries are touched.  A unit pivot p = +-1 anywhere among the live
    indices keeps every entry an integer; without one the step divides
    exactly, in Fractions.  A live row of zeros makes A singular.
    """
    # row i of V - V^T is row i of V minus column i of V
    rows = {
        i: {j: x for j, (a, b) in enumerate(zip(row, col)) if (x := a - b)}
        for i, (row, col) in enumerate(zip(V, zip(*V)))
    }
    pf = 1  # |Pf| of the eliminated block
    while rows:
        a, b = next(((a, b) for a, row in rows.items() for b, x in row.items() if x in (1, -1)), (None, None))
        if a is None:
            a = next(iter(rows))
            if not rows[a]:
                return False
            b = next(iter(rows[a]))
        u, v = rows.pop(a), rows.pop(b)
        p = u.pop(b)
        del v[a]
        pf *= abs(p)
        inv = p if p in (1, -1) else Fraction(1, p)
        touched = sorted(u.keys() | v.keys())
        for i in touched:
            rows[i].pop(a, None)
            rows[i].pop(b, None)
        for k, i in enumerate(touched):
            row, ui, vi = rows[i], u.get(i, 0), v.get(i, 0)
            for j in touched[k + 1 :]:
                if x := (u.get(j, 0) * vi - ui * v.get(j, 0)) * inv:
                    if x := row.get(j, 0) + x:
                        row[j], rows[j][i] = x, -x
                    else:
                        del row[j], rows[j][i]
    return pf == 1


def braid_permutation(word: list[int], strands: int) -> list[int]:
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def closes_to_knot(word: list[int], strands: int) -> bool:
    perm = braid_permutation(word, strands)
    seen = [False] * strands
    cycles = 0
    for i in range(strands):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles == 1


def seifert_from_braid(word: list[int]) -> SeifertMatrix:
    """Seifert matrix of the closed braid via Seifert's algorithm.

    The surface is the braid-strand disks joined by half-twisted crossing
    bands; the homology basis has one loop per consecutive pair of crossings
    on the same generator index.  Linking numbers follow the disk-and-band
    combinatorics:

    * a loop through bands of signs e1, e2 links its pushoff -(e1+e2)/2 times;
    * consecutive loops in one column sharing a band of sign e contribute
      ((1+e)/2, (e-1)/2) for (upper-to-lower, lower-to-upper);
    * loops in adjacent columns contribute (0, +-1) when their band heights
      interleave (sign by which loop starts first), 0 otherwise.

    The convention is gauge-fixed to reproduce the bidiagonal matrices of the
    (2,q) torus knots; the test suite checks det(V - tV^T) against exact
    Alexander polynomials and classical signature values.

    The braid has one strand more than its largest |letter|: a strand that
    no letter touches would be a split component.
    """
    word = list(word)
    if 0 in word:
        raise ValidationError("braid letters must be nonzero")
    strands = max((abs(w) for w in word), default=0) + 1
    if not closes_to_knot(word, strands):
        raise ValidationError("braid closure is a link, not a knot")

    cols: dict[int, list[tuple[int, int]]] = {}
    for pos, letter in enumerate(word):
        cols.setdefault(abs(letter) - 1, []).append((pos, 1 if letter > 0 else -1))
    loops = []
    for col in sorted(cols):
        occ = cols[col]
        for k in range(len(occ) - 1):
            loops.append((col, occ[k], occ[k + 1]))
    m = len(loops)
    V = [[0] * m for _ in range(m)]
    for i, (ci, (a, ea), (b, eb)) in enumerate(loops):
        V[i][i] = -(ea + eb) // 2
        for j in range(i + 1, m):
            cj, (c, ec), (d, ed) = loops[j]
            if ci == cj:
                if b == c:
                    V[i][j], V[j][i] = (1 + eb) // 2, (eb - 1) // 2
                elif d == a:
                    V[j][i], V[i][j] = (1 + ed) // 2, (ed - 1) // 2
            elif cj == ci + 1:
                inside = (a < c < b) + (a < d < b)
                if inside == 1:
                    V[j][i] = 1 if a < c else -1
            elif cj == ci - 1:
                inside = (c < a < d) + (c < b < d)
                if inside == 1:
                    V[i][j] = 1 if c < a else -1
    return SeifertMatrix(tuple(tuple(row) for row in V))


def torus_braid_word(p: int, q: int) -> list[int]:
    """(s_1 s_2 ... s_{p-1})^q, whose closure is the (p,q) torus knot."""
    return [i for _ in range(q) for i in range(1, p)]


def numeric_signature(V: SeifertMatrix, x) -> int:
    """Matrix signature of (1-w)V + (1-conj w)V^T at w = e^{2 pi i x}.

    Eigenvalues are counted by sign with an explicit error bound; an
    eigenvalue inside the bound raises `AmbiguousSignatureError`.
    """
    import numpy as np  # only this oracle needs numpy; importing it costs every CLI call

    x = Fraction(x)
    n = V.size
    if n == 0:
        return 0
    A = np.array(V.entries, dtype=float)
    w = np.exp(2j * np.pi * float(x))
    M = (1 - w) * A + (1 - np.conj(w)) * A.T
    ev = np.linalg.eigvalsh(M)
    # Weyl perturbation: eigenvalue error is at most the spectral norm of the
    # combined rounding backward error; 64*n*eps*||M||_F is a generous cover.
    bound = 64 * n * np.finfo(float).eps * max(1.0, float(np.linalg.norm(M)))
    if min(abs(e) for e in ev) > bound:
        return int((ev > 0).sum() - (ev < 0).sum())
    raise AmbiguousSignatureError(
        f"cannot certify eigenvalue signs at x = {x}; likely a jump point"
    )


# ---------------------------------------------------------------------------
# independence certificate
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class IndependenceCertificate(Certificate):
    """Checked hypotheses for linear independence of torus knots modulo the
    genus-k filtration subgroup."""

    __slots__ = ("generators", "filtration_level")


def torus_independence_certificate(
    pairs: list[tuple[int, int]], k: int
) -> IndependenceCertificate:
    """Certificate that the torus knots T(p_i,q_i) stay independent after
    quotienting by knots of genus <= k.

    Checks per hypothesis: pairwise distinct products p_i q_i; both parameters
    prime and > k with 2k < (p_i-1)(q_i-1), so no Alexander polynomial of a
    small-genus knot is divisible by the relevant cyclotomic; and a nonzero
    signature jump at a primitive (p_i q_i)-th root of unity.
    """
    if k < 1:
        raise ValidationError("filtration level must be >= 1")
    pairs = [tuple(pr) for pr in pairs]
    for p, q in pairs:
        check_torus(p, q)
        check_breadth(p * q, "torus knot product pq")
    checks: list[CertificateCheck] = []

    products = [p * q for p, q in pairs]
    checks.append(
        CertificateCheck(
            "distinct_products",
            len(set(products)) == len(products),
            f"products {products}",
        )
    )

    for p, q in pairs:
        # primality makes deg Delta = (p-1)(q-1) the degree of the relevant
        # cyclotomic; the strict inequality is what blocks divisibility
        degree = (p - 1) * (q - 1)
        both_prime = _is_prime(p) and _is_prime(q)
        checks.append(
            CertificateCheck(
                f"degree_bound[{p},{q}]",
                both_prime and 2 * k < degree,
                f"2k = {2 * k} < (p-1)(q-1) = {degree}: {2 * k < degree}; "
                f"both prime: {both_prime}",
            )
        )

    for p, q in pairs:
        # 1/pq is a primitive (pq)-th root of unity and a jump point of T(p,q)
        jump = _torus_jump(p, q, 1)
        checks.append(
            CertificateCheck(
                f"primitive_jump[{p},{q}]",
                jump != 0,
                f"jump {jump:+d} at {Fraction(1, p * q)}" if jump else "no primitive jump point",
            )
        )

    names = ", ".join(f"T({p},{q})" for p, q in pairs)
    return IndependenceCertificate(
        generators=tuple(pairs),
        filtration_level=k,
        checks=tuple(checks),
        conclusion_if_valid=f"{names} are linearly independent modulo knots of genus <= {k}",
    )
