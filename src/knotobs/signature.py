"""Tristram-Levine signature jump functions and a Seifert-matrix oracle.

Two independent routes to the signature function of torus-knot expressions:

* ``torus_jumps`` builds the jump function from the combinatorial rule on the
  multiset { i/p + j/q }, extended to cables of trivial-Alexander companions,
  mirrors and sums.
* ``seifert_from_braid`` + ``numeric_signature`` compute signatures from a
  Seifert matrix of the closed braid, by counting eigenvalue signs of
  (1-w)V + (1-conj w)V^T with certified precision.

The two routes are compared exactly in the test suite; neither feeds the
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import knots
from .errors import (
    AmbiguousSignatureError,
    InternalCheckError,
    JumpEvaluationError,
    UnsupportedExpressionError,
    ValidationError,
)
from .laurent import ONE
from .reporting import Certificate, CertificateCheck


# ---------------------------------------------------------------------------
# jump functions
# ---------------------------------------------------------------------------


class JumpFunction:
    """Finite set of signature jumps at rationals in (0,1).

    Jumps are nonzero even integers with jump(1-x) = -jump(x); the running
    sum from 0+ is the signature step function.
    """

    __slots__ = ("_jumps",)

    def __init__(self, jumps):
        data = {}
        for x, j in dict(jumps).items():
            x = Fraction(x)
            j = int(j)
            if j == 0:
                continue
            if not 0 < x < 1:
                raise ValidationError(f"jump location {x} outside (0,1)")
            if j % 2 != 0:
                raise ValidationError(f"jump {j} at {x} is odd")
            data[x] = j
        for x, j in data.items():
            if data.get(1 - x, 0) != -j:
                raise ValidationError(
                    f"conjugate antisymmetry fails at {x}: {j} vs {data.get(1 - x, 0)}"
                )
        object.__setattr__(self, "_jumps", dict(sorted(data.items())))

    def __setattr__(self, *args):
        raise AttributeError("JumpFunction is immutable")

    @property
    def jumps(self) -> dict:
        return dict(self._jumps)

    @property
    def support(self) -> tuple:
        return tuple(self._jumps)

    def __bool__(self) -> bool:
        return bool(self._jumps)

    def __eq__(self, other) -> bool:
        return isinstance(other, JumpFunction) and self._jumps == other._jumps

    def __hash__(self):
        return hash(tuple(self._jumps.items()))

    def __add__(self, other: "JumpFunction") -> "JumpFunction":
        out = dict(self._jumps)
        for x, j in other._jumps.items():
            out[x] = out.get(x, 0) + j
        return JumpFunction(out)

    def __neg__(self) -> "JumpFunction":
        return JumpFunction({x: -j for x, j in self._jumps.items()})

    def scale(self, c: int) -> "JumpFunction":
        return JumpFunction({x: c * j for x, j in self._jumps.items()})

    def step_at(self, x: Fraction) -> int:
        """Sum of jumps strictly below x; raises at a jump point with both
        one-sided limits."""
        x = Fraction(x)
        left = sum(j for p, j in self._jumps.items() if p < x)
        if x in self._jumps:
            raise JumpEvaluationError(x, left, left + self._jumps[x])
        return left

    def __repr__(self):
        inner = ", ".join(f"{x}: {j:+d}" for x, j in self._jumps.items())
        return f"JumpFunction({{{inner}}})"

    def as_rows(self) -> list[dict]:
        return [{"x": str(x), "jump": j} for x, j in self._jumps.items()]


EMPTY_JUMPS = JumpFunction({})


def torus_jumps(p: int, q: int) -> JumpFunction:
    """Signature jumps of the (p,q) torus knot at x in (0,1), w = e^{2 pi i x}:
    +2 at points of S in (0,1) and -2 at points of S - 1, where
    S = { i/p + j/q : 1 <= i <= p-1, 1 <= j <= q-1 }."""
    if p < 2 or q < 2:
        raise ValidationError("torus knot parameters must be >= 2")
    if math.gcd(p, q) != 1:
        raise ValidationError(f"torus knot parameters must be coprime: ({p},{q})")
    jumps: dict[Fraction, int] = {}
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if s < 1:
                jumps[s] = jumps.get(s, 0) + 2
            else:
                jumps[s - 1] = jumps.get(s - 1, 0) - 2
    out = JumpFunction(jumps)
    if len(out.jumps) != (p - 1) * (q - 1):
        raise InternalCheckError("self-check failed: T(p,q) has (p-1)(q-1) distinct jumps")
    return out


def expression_jumps(e: knots.KnotExpression) -> JumpFunction:
    """Jump function of an expression built from torus knots, trivial-Alexander
    companions and their cables, mirrors and sums.

    A cable contributes only its pattern torus knot because the companion has
    vanishing signature function (Delta = 1 forces sigma = 0, and
    sigma_w(K_{p,q}) = sigma_{w^p}(K) + sigma_w(T(p,q)))."""
    e = knots.normalize(e)
    if isinstance(e, knots.Unknot):
        return EMPTY_JUMPS
    if isinstance(e, knots.TorusKnot):
        return torus_jumps(e.p, e.q)
    if isinstance(e, knots.WhiteheadDouble):
        return EMPTY_JUMPS
    if isinstance(e, knots.Mirror):
        return -expression_jumps(e.inner)
    if isinstance(e, knots.Sum):
        out = EMPTY_JUMPS
        for s in e.summands:
            out = out + expression_jumps(s)
        return out
    if isinstance(e, knots.Cable):
        if knots.alexander(e.companion) != ONE:
            raise UnsupportedExpressionError(
                "cable signatures are only supported over companions with "
                "trivial Alexander polynomial"
            )
        if e.q >= 2:
            return torus_jumps(e.p, e.q)
        if e.q in (0, 1, -1):
            return EMPTY_JUMPS
        raise UnsupportedExpressionError(
            f"cable meridian winding {e.q} <= -2 has no verified convention"
        )
    raise UnsupportedExpressionError(f"unsupported expression {e!r}")


def signature_at(e: knots.KnotExpression, x) -> int:
    """Signature sigma_w at w = e^{2 pi i x}, x a non-jump rational in (0,1)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValidationError(f"evaluation point {x} outside (0,1)")
    return expression_jumps(e).step_at(x)


# ---------------------------------------------------------------------------
# Seifert matrices from braid closures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeifertMatrix:
    """Integer Seifert matrix; size is even and det(V - V^T) = +-1."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValidationError("Seifert matrix must be square")
        if n % 2 != 0:
            raise ValidationError("Seifert matrix of a knot has even size")
        if n and abs(_int_det([[self.entries[i][j] - self.entries[j][i] for j in range(n)] for i in range(n)])) != 1:
            raise ValidationError("V - V^T must be unimodular")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return self.size // 2


def _int_det(M: list[list[int]]) -> int:
    """Bareiss fraction-free determinant."""
    M = [row[:] for row in M]
    n = len(M)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


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


def seifert_from_braid(word: list[int], strands: int | None = None) -> SeifertMatrix:
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
    """
    word = list(word)
    if strands is None:
        strands = max((abs(w) for w in word), default=0) + 1
    if strands < 1:
        raise ValidationError("a braid needs at least one strand")
    if any(w == 0 or abs(w) >= strands for w in word):
        raise ValidationError("braid letters must be nonzero with |letter| < strands")
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


_ESCALATION_DPS = (60, 140)


def numeric_signature(V: SeifertMatrix, x) -> int:
    """Matrix signature of (1-w)V + (1-conj w)V^T at w = e^{2 pi i x}.

    Eigenvalues are counted by sign with an explicit error bound; ambiguous
    gaps escalate to high-precision arithmetic and finally raise.
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
    return _numeric_signature_mp(V, x)


def _numeric_signature_mp(V: SeifertMatrix, x: Fraction) -> int:
    import mpmath as mp

    n = V.size
    for dps in _ESCALATION_DPS:
        with mp.workdps(dps):
            theta = 2 * mp.pi * mp.mpf(x.numerator) / mp.mpf(x.denominator)
            w = mp.cos(theta) + 1j * mp.sin(theta)
            M = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    M[i, j] = (1 - w) * V.entries[i][j] + (1 - mp.conj(w)) * V.entries[j][i]
            ev = mp.eigh(M, eigvals_only=True)
            norm = max(mp.mpf(1), max(abs(M[i, j]) for i in range(n) for j in range(n)) * n)
            bound = norm * mp.mpf(10) ** (-(dps - 10))
            if min(abs(e) for e in ev) > bound:
                return int(sum(1 for e in ev if e > 0) - sum(1 for e in ev if e < 0))
    raise AmbiguousSignatureError(
        f"cannot certify eigenvalue signs at x = {x}; likely a jump point"
    )


# ---------------------------------------------------------------------------
# independence certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceCertificate(Certificate):
    """Checked hypotheses for linear independence of torus knots modulo the
    genus-k filtration subgroup."""

    generators: tuple[tuple[int, int], ...]
    filtration_level: int

    def as_dict(self) -> dict:
        return {
            "generators": [list(g) for g in self.generators],
            "filtration_level": self.filtration_level,
            **self.verdict_dict(),
        }


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
        if p < 2 or q < 2 or math.gcd(p, q) != 1:
            raise ValidationError(f"({p},{q}) is not a coprime torus-knot pair")
    checks: list[CertificateCheck] = []

    products = [p * q for p, q in pairs]
    checks.append(
        CertificateCheck(
            name="distinct_products",
            passed=len(set(products)) == len(products),
            witness=f"products {products}",
        )
    )

    for p, q in pairs:
        # primality makes deg Delta = (p-1)(q-1) the degree of the relevant
        # cyclotomic; the strict inequality is what blocks divisibility
        degree = (p - 1) * (q - 1)
        passed = _is_prime(p) and _is_prime(q) and 2 * k < degree
        checks.append(
            CertificateCheck(
                name=f"degree_bound[{p},{q}]",
                passed=passed,
                witness=f"2k = {2 * k} < (p-1)(q-1) = {degree}: {2 * k < degree}; "
                f"both prime: {_is_prime(p) and _is_prime(q)}",
            )
        )

    for p, q in pairs:
        jf = torus_jumps(p, q)
        primitive = [x for x in jf.support if x.denominator == p * q and math.gcd(x.numerator, p * q) == 1]
        checks.append(
            CertificateCheck(
                name=f"primitive_jump[{p},{q}]",
                passed=bool(primitive),
                witness=f"jump {jf.jumps[primitive[0]]:+d} at {primitive[0]}" if primitive else "no primitive jump point",
            )
        )

    names = ", ".join(f"T({p},{q})" for p, q in pairs)
    return IndependenceCertificate(
        generators=tuple(pairs),
        filtration_level=k,
        checks=tuple(checks),
        conclusion_if_valid=f"{names} are linearly independent modulo knots of genus <= {k}",
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
