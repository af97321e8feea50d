"""Exact integer Laurent polynomial arithmetic and factorization.

A Laurent polynomial is stored dense: its least exponent and the tuple of
its coefficients from there up, with nonzero ends, so every kernel below
reads the stored tuple and every result is built through one trusted
constructor.  On top of the ring arithmetic this module
provides breadth, cyclotomic polynomials, complete irreducible factorization
over the integers (up to units +-t^k), the Fox-Milnor slice condition with an
explicit witness, and the splitting-genus lower bound read off from
odd-multiplicity self-reciprocal factors.

Factorization has three stages: strip the integer content into prime
constants, strip cyclotomic factors (Phi_1 by exact division by t - 1, then
screen every other index d with phi(d) at most the degree by integer
divisibility of evaluations; candidates that take the whole degree are the
answer when it passes the final check, otherwise divide once by their
product, falling back to one index at a time when a candidate was
false), then split the remaining square-free part by Zassenhaus: factor it
modulo a small prime, Hensel-lift past the Mignotte bound, and recombine
subsets of the lifted factors.

The dense polynomial core works in plain integers throughout: cyclotomic
polynomials are built, divided out and multiplied back in through their
Moebius factors t^e - 1, one linear pass per binomial (for a product of
cyclotomics, per binomial left after the exponents of its factors cancel);
other exact division is long division with an early exit (reducing mod p^k
in the splitter), and gcd a primitive pseudo-remainder sequence.  Phi_d is
a `Cyclotomic`, which carries d, so `Factorization.expand` takes the
cyclotomic part through those binomials and the other factors by Kronecker
substitution: each coefficient list packs into one integer, wide enough for
a bound on every coefficient of the product, and the polynomial product is
one integer product.  `factor`'s self-check is that `expand()` reproduces
the input; the Fox-Milnor witness w is `expand()` of the halved factors,
checked by w(t) w(1/t) = +-t^k f.
Fractions appear only in `evaluate` (one division by x^-lo when the least
exponent lo is negative, or at a Fraction point) and in the splitting-genus
bound.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, count, zip_longest
from operator import add, sub

from .errors import (
    FactorizationComplexityError,
    InternalCheckError,
    NormalizationError,
    ParseError,
    ValidationError,
    ZeroPolynomialError,
    check_breadth,
    check_torus,
)
from .reporting import Record


class LaurentPolynomial:
    """Integer Laurent polynomial with finite support.

    Stored dense: the least exponent `_lo` and the coefficient tuple `_c`,
    with `_c[i]` the coefficient of t^(_lo + i) and both ends nonzero; zero
    is (0, ()).  Instances are immutable; every operation returns a new
    object, and one whose breadth would pass errors.MAX_DENSE_BREADTH is refused
    before its coefficients are allocated.
    """

    __slots__ = ("_lo", "_c")

    def __new__(cls, coeffs=None):
        """From a map {exponent: coefficient} of integers."""
        coeffs = dict(coeffs or {})
        if not all(isinstance(e, int) and isinstance(c, int) for e, c in coeffs.items()):
            raise ValidationError("exponents and coefficients must be integers")
        return _terms(coeffs)

    def __setattr__(self, *args):
        raise AttributeError("LaurentPolynomial is immutable")

    def __reduce__(self):
        return _poly, (self._c, self._lo)

    # -- constructors -------------------------------------------------

    @staticmethod
    def monomial(c: int, e: int) -> "LaurentPolynomial":
        if not (isinstance(c, int) and isinstance(e, int)):
            raise ValidationError("exponents and coefficients must be integers")
        return _poly((c,), e)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> dict:
        return {e: c for e, c in enumerate(self._c, self._lo) if c}

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, e: int) -> int:
        i = e - self._lo
        return self._c[i] if 0 <= i < len(self._c) else 0

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ZeroPolynomialError("zero polynomial has no support")
        return self._lo

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self._c) - 1

    @property
    def breadth(self) -> int:
        return self.max_exp - self._lo

    @property
    def leading_coeff(self) -> int:
        return self.coeff(self.max_exp)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = _poly((other,))
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __hash__(self) -> int:
        return hash((self._lo, self._c))

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "LaurentPolynomial":
        other = _coerce(other)
        if not (self._c and other._c):
            return other if self.is_zero else self
        lo = min(self._lo, other._lo)
        check_breadth(max(self.max_exp, other.max_exp) - lo, "breadth")
        a, b = ((0,) * (p._lo - lo) + p._c for p in (self, other))
        return _poly([x + y for x, y in zip_longest(a, b, fillvalue=0)], lo)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return _poly([-c for c in self._c], self._lo)

    def __sub__(self, other) -> "LaurentPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "LaurentPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        other = _coerce(other)
        lo = self._lo + other._lo
        a, b = sorted((self._c, other._c), key=len)
        if len(a) == 1:  # c t^k scales and shifts the other tuple
            return _poly([a[0] * x for x in b], lo)
        check_breadth(len(a) + len(b) - 2, "breadth")
        return _poly(_dproduct([(a, 1), (b, 1)]), lo)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValidationError("negative powers are not polynomials")
        check_breadth((len(self._c) - 1) * n, "breadth")
        return _poly(_dproduct([(self._c, n)]), self._lo * n)

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by the unit t^k."""
        return _poly(self._c, self._lo + k)

    def reciprocal(self) -> "LaurentPolynomial":
        """Substitute t -> t^-1."""
        return _poly(self._c[::-1], 1 - self._lo - len(self._c))

    def substitute_power(self, p: int) -> "LaurentPolynomial":
        """Substitute t -> t^p (p >= 1)."""
        if p < 1:
            raise ValidationError("substitution power must be >= 1")
        check_breadth((len(self._c) - 1) * p, "breadth")
        return _poly(_dstretch(self._c, p), self._lo * p)

    def evaluate(self, x):
        """Exact evaluation at a nonzero int or Fraction: Horner's rule on the
        coefficient tuple, times x^lo for the least exponent lo."""
        if x == 0:
            raise ValidationError("Laurent polynomials cannot be evaluated at 0")
        value = _deval(self._c, x) * Fraction(x) ** self._lo
        return int(value) if value.denominator == 1 else value

    # -- normal forms --------------------------------------------------

    @property
    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._c)

    def canonical(self) -> "LaurentPolynomial":
        """Representative up to units: primitive, positive leading coefficient,
        minimal exponent 0."""
        if self.is_zero:
            return self
        g = self.content if self._c[-1] > 0 else -self.content
        return _poly(self._c if g == 1 else [v // g for v in self._c])

    def is_palindromic(self) -> bool:
        """True when the coefficient vector reads the same in both directions."""
        return self._c == self._c[::-1]

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        return format_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({format_laurent(self)!r})"


def _poly(c, lo: int = 0, cls=LaurentPolynomial) -> LaurentPolynomial:
    """The polynomial sum c[i] t^(lo + i) from a sequence c of ints, with the
    zeros at both ends trimmed: the one constructor of every polynomial,
    which checks neither types nor breadth."""
    c = tuple(c)
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    i = 0
    while i < hi and not c[i]:
        i += 1
    f = object.__new__(cls)
    object.__setattr__(f, "_lo", lo + i if hi else 0)
    object.__setattr__(f, "_c", c[i:hi])
    return f


def _terms(coeffs: dict) -> LaurentPolynomial:
    """The polynomial sum c t^e over a map {e: c} of ints, whose types are
    not checked; a breadth above the limit is refused before allocating."""
    data = {e: c for e, c in coeffs.items() if c}
    lo = min(data, default=0)
    hi = max(data, default=lo - 1)
    check_breadth(hi - lo, "breadth")
    c = [0] * (hi - lo + 1)
    for e, v in data.items():
        c[e - lo] = v
    return _poly(c, lo)


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial.monomial(1, 0)
T = LaurentPolynomial.monomial(1, 1)


def _coerce(x) -> LaurentPolynomial:
    if isinstance(x, LaurentPolynomial):
        return x
    if isinstance(x, int):
        return _poly((x,))
    raise ValidationError(f"cannot treat {x!r} as a Laurent polynomial")


# ---------------------------------------------------------------------------
# text format: "c0*t^e0 + c1*t^e1 + ..." with strictly increasing exponents
# ---------------------------------------------------------------------------


def format_laurent(f: LaurentPolynomial) -> str:
    if f.is_zero:
        return "0"
    return " + ".join(f"{c}*t^{e}" for e, c in enumerate(f._c, f._lo) if c)


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse the canonical text format, whitespace-insensitive; accepts bare
    integers, omitted coefficients ("t^2", "-t") and omitted exponents ("3t")."""
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ParseError("empty polynomial text")
    # split on + and - that start a new term; "^-" keeps its minus
    terms = []
    cur = ""
    for ch in s:
        if ch == "+" and cur:
            terms.append(cur)
            cur = ""
        elif ch == "-" and cur and not cur.endswith("^") and not cur.endswith("*"):
            terms.append(cur)
            cur = "-"
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict[int, int] = {}
    for term in terms:
        if not term or term in ("+", "-"):
            raise ParseError(f"malformed term in {text!r}")
        coeff_part, sep, exp_part = term.partition("t")
        if not sep:
            try:
                c = int(term)
            except ValueError as exc:
                raise ParseError(f"bad constant term {term!r}") from exc
            e = 0
        else:
            if coeff_part.endswith("*"):
                coeff_part = coeff_part[:-1]
            if coeff_part in ("", "+"):
                c = 1
            elif coeff_part == "-":
                c = -1
            else:
                try:
                    c = int(coeff_part)
                except ValueError as exc:
                    raise ParseError(f"bad coefficient in {term!r}") from exc
            if exp_part == "":
                e = 1
            elif exp_part.startswith("^"):
                try:
                    e = int(exp_part[1:])
                except ValueError as exc:
                    raise ParseError(f"bad exponent in {term!r}") from exc
            else:
                raise ParseError(f"malformed term {term!r}")
        coeffs[e] = coeffs.get(e, 0) + c
    return _terms(coeffs)


# ---------------------------------------------------------------------------
# dense helpers (ordinary polynomials, coefficient list indexed by degree)
# ---------------------------------------------------------------------------

def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _deg(c: list) -> int:
    return len(c) - 1


# array typecodes by item size: the machine integers of 1, 2, 4 and 8 bytes
_MACHINE_INTS = {array(code).itemsize: code for code in "bhilq"}


def _kbias(w: int, n: int) -> int:
    """D: the integer of n w-byte digits, each 2^(8w-1)."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _kpack(a, w: int) -> int:
    """a(2^(8w)) for coefficients in [-2^(8w-1), 2^(8w-1)): their w-byte
    two's-complement digits, through a machine-integer `array` at a machine
    width (byteswapped on a big-endian host), read as one integer; XORed
    with D they are the nonnegative digits c + 2^(8w-1), so a(2^(8w)) is
    that integer minus D."""
    if code := _MACHINE_INTS.get(w):
        digits = array(code, a)
        if sys.byteorder == "big":
            digits.byteswap()
        raw = digits.tobytes()
    else:
        raw = b"".join(c.to_bytes(w, "little", signed=True) for c in a)
    D = _kbias(w, len(a))
    return (int.from_bytes(raw, "little") ^ D) - D


def _kunpack(value: int, w: int, n: int) -> list:
    """The n coefficients c, each in [-2^(8w-1), 2^(8w-1)), of the integer
    value = sum c_i 2^(8wi): value + D has the digits c + 2^(8w-1), and
    XORed with D their two's complements, read back as `_kpack` writes them."""
    D = _kbias(w, n)
    raw = ((value + D) ^ D).to_bytes(w * n, "little")
    if not (code := _MACHINE_INTS.get(w)):
        return [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, len(raw), w)]
    digits = array(code, raw)
    if sys.byteorder == "big":
        digits.byteswap()
    return digits.tolist()


def _dproduct(parts) -> list:
    """Exact dense product of a**m over the (a, m) pairs in parts.

    Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4): B = prod ||a||_1^m bounds every coefficient of the
    product, so with the smallest byte width w where B < 2^(8w-1), raised
    to 1, 2, 4 or 8 bytes when it fits a machine integer, each list packs
    into the integer a(2^(8w)) (`_kpack`), the product is one integer
    product, and its coefficients read back exactly (`_kunpack`).
    """
    # a zeroth power is left out of B, so its list may not fit the width
    parts = [(a, m) for a, m in parts if m]
    bound = 1
    for a, m in parts:
        bound *= sum(map(abs, a)) ** m
    if not bound:
        return []
    w = (bound.bit_length() + 8) // 8
    w = next((v for v in sorted(_MACHINE_INTS) if v >= w), w)
    value = 1
    length = 1
    for a, m in parts:
        value *= _kpack(a, w) ** m
        length += (len(a) - 1) * m
    return _trim(_kunpack(value, w, length))


def _dexact_div(a: list, b: list):
    """Exact integer quotient a / b, or None when b does not divide a over Z.

    Integer long division from the top coefficient down (Knuth, TAOCP vol. 2,
    4.6.1).  The quotient over Q is unique and its coefficients come out in
    that order, so the first one not divisible by lc(b), or a nonzero
    remainder, settles that b does not divide a over Z.
    """
    a = _trim(list(a))
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    m = len(b)
    if len(a) < m:
        return None
    lc = b[-1]
    tail = [(j, c) for j, c in enumerate(b[:-1]) if c]
    quot = [0] * (len(a) - m + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = a[k + m - 1]
        if not c:
            continue
        if lc != 1:
            c, r = divmod(c, lc)
            if r:
                return None
        quot[k] = c
        for j, y in tail:
            a[k + j] -= c * y
    if any(a[: m - 1]):
        return None
    return quot


def _dprimitive(a: list) -> list:
    c = math.gcd(*a)
    if c in (0, 1):
        return a[:]
    return [x // c for x in a]


def _dprem(a: list, b: list) -> list:
    """A nonzero integer multiple of the remainder of a by b (the
    pseudo-remainder, scaling by lc(b) only when a quotient coefficient would
    not be an integer)."""
    rem = a[:]
    m = len(b)
    lc = b[-1]
    for k in range(len(a) - m, -1, -1):
        c = rem[k + m - 1]
        if c % lc:
            rem = [lc * x for x in rem]
            c *= lc
        c //= lc
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trim(rem[: m - 1])


def _dgcd(a: list, b: list) -> list:
    """Primitive gcd over Z with positive leading coefficient, by the
    primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1)."""
    a = _dprimitive(_trim(a[:]))
    b = _dprimitive(_trim(b[:]))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _dprimitive(_dprem(a, b))
    if a and a[-1] < 0:
        a = [-x for x in a]
    return a


def _self_checked(value, claim: str):
    """value, after checking it is not None: None means claim failed."""
    if value is None:
        raise InternalCheckError(f"self-check failed: {claim}")
    return value


def _deval(a: list, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# number theory helpers
# ---------------------------------------------------------------------------


# factor trial-divides a content up to this bound; a larger prime is refused
CONTENT_TRIAL_BOUND = 10**7


def _prime_factors(n: int, bound: int | None = None) -> dict[int, int]:
    """Trial division by 2 and the odd numbers p with p^2 <= the cofactor;
    with a bound, p stops there, and a cofactor not shown prime is refused."""
    out: dict[int, int] = {}
    m = abs(n)
    p = 2
    while p * p <= m:
        if bound is not None and p > bound:
            raise ValidationError(f"cannot factor the integer content {n}: its "
                                  f"cofactor above {bound}^2 has no prime factor up to {bound}")
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 + (p > 2)
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def totient(n: int) -> int:
    """Euler's phi, as the product of (p - 1) p^(k - 1) over n = prod p^k."""
    if n < 1:
        raise ValidationError("totient requires n >= 1")
    return math.prod((p - 1) * p ** (k - 1) for p, k in _prime_factors(n).items())


# (degree m, phis, ds): every index d with phi(d) <= m, sorted by (phi, d)
_index_table = (0, array("q"), array("q"))


def _cyclotomic_indices(n: int) -> tuple[array, array]:
    """(phis, ds) for every index d with phi(d) <= m, for some m >= n,
    sorted by (phi, d): a caller that stops at the first phi above n reads
    the indices of the cyclotomic polynomials that fit in degree n.

    phi(d) is the product of (p - 1) p^(k - 1) over the prime powers p^k of
    d, so a depth-first search that multiplies in prime powers, each prime
    larger than the last, reaches every such d once and stops a branch as
    soon as phi passes n; only primes with p - 1 <= n occur.  One table,
    for the largest degree asked so far, serves every call: 194,429
    indices in two 8-byte arrays at the dense limit.
    """
    global _index_table
    top, phis, ds = _index_table
    if n <= top:
        return phis, ds
    sieve = bytearray([1]) * (n + 2)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n + 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 2, p)))
    primes = [p for p, is_prime in enumerate(sieve) if is_prime]
    found = []

    def search(start: int, d: int, phi: int):
        found.append((phi, d))
        for i in range(start, len(primes)):
            p = primes[i]
            pk, phik = p, phi * (p - 1)
            if phik > n:
                return
            while phik <= n:
                search(i + 1, d * pk, phik)
                pk, phik = pk * p, phik * p

    search(0, 1, 1)
    found.sort()
    _index_table = (n, array("q", [phi for phi, _ in found]), array("q", [d for _, d in found]))
    return _index_table[1:]


def _dstretch(a: list, k: int) -> list:
    """Coefficients of a(t^k)."""
    out = [0] * ((len(a) - 1) * k + 1)
    out[::k] = a
    return out


def _dtimes_binomial(a: list, e: int) -> list:
    """Coefficients of a * (t^e - 1)."""
    pad = [0] * e
    return list(map(sub, pad + a, a + pad))


def _ddiv_binomial(a: list, e: int):
    """Exact quotient a / (t^e - 1) of a trimmed list, or None when t^e - 1
    does not divide a.

    a = q (t^e - 1) + r reads q[i] = a[i + e] + q[i + e] from the top, so
    each quotient coefficient is a suffix sum of a over its residue class
    mod e, and r[i] = a[i] + q[i] (i < e) is the sum of the whole class.
    With more classes than entries per class (e * e >= len(a)) the sums run
    one block of e coefficients at a time, otherwise one class at a time;
    either way the work is linear in len(a).
    """
    n = len(a)
    if n <= e:
        return None if a else []
    if e * e < n:
        q = [0] * (n - e)
        for r in range(e):
            sums = list(accumulate(a[r::e][::-1]))
            if sums[-1]:
                return None
            q[r::e] = sums[-2::-1]
        return q
    # t^pad a has the same divisibility and a length that is a multiple of e
    pad = -n % e
    a = [0] * pad + a
    acc = [0] * e
    blocks = []
    for i in range(len(a) - e, 0, -e):
        acc = list(map(add, acc, a[i : i + e]))
        blocks.append(acc)
    if any(map(add, acc, a[:e])):
        return None
    return list(chain.from_iterable(reversed(blocks)))[pad:]


# Moebius exponents kept for reuse: a warm workload of torus knots and J, J',
# L polynomials reads a few hundred indices, and a screen near the dense
# limit one for each of up to 194,429 (about 300 bytes each)
MOEBIUS_EXPONENT_CACHE = 1024


@lru_cache(maxsize=MOEBIUS_EXPONENT_CACHE)
def _moebius_exponents(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponents of Phi_n = prod (t^e - 1)^mu(n/e) over e | n with n/e
    squarefree, as (those with mu = +1, those with mu = -1), largest first."""
    squarefree = [(1, 1)]  # (s, mu(s)) over the squarefree divisors s of n
    for p in _prime_factors(n):
        squarefree += [(s * p, -mu) for s, mu in squarefree]
    numer = tuple(sorted((n // s for s, mu in squarefree if mu == 1), reverse=True))
    denom = tuple(sorted((n // s for s, mu in squarefree if mu == -1), reverse=True))
    return numer, denom


def _dbinomials(a: list, times, over):
    """a * prod (t^e - 1) over the e in times, divided exactly by each
    t^e - 1 for the e in over, in that order, of a trimmed list; None when a
    division leaves a remainder.  Every step is linear in the length, and
    exact division by monic polynomials stays in Z[t], so a None proves that
    the whole quotient is not a polynomial."""
    for e in times:
        a = _dtimes_binomial(a, e)
    for e in over:
        if (a := _ddiv_binomial(a, e)) is None:
            return None
    return a


def _ddiv_cyclotomics(a: list, pairs):
    """Exact quotient a / prod Phi_d^m over the (d, m) in pairs, of a trimmed
    list, or None when that product does not divide a, building no Phi_d.
    A negative m multiplies: with every m negated the result is the product
    a * prod Phi_d^m, never None.  The product is prod (t^e - 1)^n_e over
    the net Moebius exponents n_e, the sums of m mu(d/e): `_dbinomials`
    multiplies a by each binomial with n_e < 0, then divides by each with
    n_e > 0, largest first."""
    net: dict[int, int] = {}
    for d, m in pairs:
        for exponents, n in zip(_moebius_exponents(d), (m, -m)):
            for e in exponents:
                net[e] = net.get(e, 0) + n
    times = [e for e, n in net.items() for _ in range(-n)]
    over = sorted((e for e, n in net.items() for _ in range(n)), reverse=True)
    return _dbinomials(a, times, over)


class Cyclotomic(LaurentPolynomial):
    """Phi_d, which carries its index d, built only by `_cyclotomic`.  It
    equals and hashes like the plain polynomial; `Factorization.expand`
    multiplies it back in through the binomials of d."""

    __slots__ = ("d",)

    def __reduce__(self):
        return _cyclotomic, (self.d,)


def cyclotomic(n: int) -> Cyclotomic:
    """The n-th cyclotomic polynomial, for an index within the dense limit."""
    if n < 1:
        raise ValidationError("cyclotomic requires n >= 1")
    check_breadth(n, "cyclotomic index")
    return _cyclotomic(n)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> Cyclotomic:
    """Phi_n for any n >= 1, with no index check: factor builds a Phi_d that
    divides its input, whose index may pass the dense limit.

    Phi_r for r = rad n is [1] times its Moebius binomials t^e - 1
    (`_ddiv_cyclotomics` with m = -1): each numerator binomial multiplies,
    then each denominator binomial divides exactly.  Phi_n(t) =
    Phi_r(t^{n / r}) finishes it.  The longest intermediate list is the
    numerator product, with 1 + (sigma(r) + phi(r)) / 2 entries: 2 for
    n = 1, at most 1.71 n below the dense limit (51,265 entries at
    n = 30030), and 916,993 at n = 510510, the largest index with phi(n)
    within it.
    """
    rad = math.prod(_prime_factors(n))
    poly = _self_checked(_ddiv_cyclotomics([1], [(rad, -1)]), f"the binomials of Phi_{rad} divide")
    phi = _poly(_dstretch(poly, n // rad), 0, Cyclotomic)
    object.__setattr__(phi, "d", n)
    return phi


# Phi_d(x) values kept for reuse: a warm factoring workload of torus knots
# and J, J', L polynomials reads about 200, and a screen near the dense
# limit reads one for each of up to 194,429 indices
CYCLOTOMIC_VALUE_CACHE = 512


@lru_cache(maxsize=CYCLOTOMIC_VALUE_CACHE)
def _cyclotomic_at(n: int, x: int) -> int:
    """Phi_n(x) for an integer x >= 2, as the integer
    prod_{d | n} (x^d - 1)^mu(n/d); no polynomial is built."""
    numer, denom = _moebius_exponents(n)
    value, rem = divmod(
        math.prod(x**e - 1 for e in numer), math.prod(x**e - 1 for e in denom)
    )
    if rem:
        raise InternalCheckError(f"self-check failed: Phi_{n}({x}) must be an integer")
    return value


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of the (p,q) torus knot, centered symmetric form:
    (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    check_torus(p, q)
    check_breadth(p * q, "torus knot product pq")
    quot = _self_checked(_dbinomials([1], (p * q, 1), (p, q)), "(t^p - 1)(t^q - 1) divides (t^pq - 1)(t - 1)")
    # the breadth (p - 1)(q - 1) is even; centered, the least exponent is minus half of it
    return _poly(quot, (1 - len(quot)) // 2)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


class Factorization(Record):
    """Complete factorization f = sign * t^exponent * prod(factors^mult).

    Factors are canonical irreducible representatives: prime integers
    (breadth 0) or primitive polynomials with positive leading coefficient and
    minimal exponent 0, ordered by (breadth, coefficient tuple).
    """

    __slots__ = ("sign", "exponent", "factors")

    @property
    def unit(self) -> LaurentPolynomial:
        return LaurentPolynomial.monomial(self.sign, self.exponent)

    def expand(self) -> LaurentPolynomial:
        """The product: each `Cyclotomic` factor multiplied in through the
        net Moebius binomials, the sign and every other factor by
        `_dproduct`."""
        cyc = [(p.d, -m) for p, m in self.factors if isinstance(p, Cyclotomic)]
        rest = [(p._c, m) for p, m in self.factors if not isinstance(p, Cyclotomic)]
        return _poly(_ddiv_cyclotomics(_dproduct([((self.sign,), 1), *rest]), cyc), self.exponent)

    def multiplicity(self, p: LaurentPolynomial) -> int:
        return dict(self.factors).get(p.canonical(), 0)

    def as_dict(self) -> dict:
        return {
            "unit": str(self.unit),
            "factors": [{"factor": str(p), "multiplicity": m} for p, m in self.factors],
        }


def _factor_key(p: LaurentPolynomial):
    return len(p._c), p._c


# Most subsets of modular factors that recombination may try, counted on the
# factors left after the pass over single factors: 2^20 admits 21 factors.
# 4849845 t (t - 1) ... (t - 20) + 23, irreducible with 21 linear factors
# mod 23, takes 3.7 s on a 2-core host.
MAX_RECOMBINATIONS = 2**20


def _pmod(a: list, m: int) -> list:
    return _trim([x % m for x in a])


def _psub(a: list, b: list, m: int) -> list:
    return _pmod([x - y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _pmul(a: list, b: list, m: int) -> list:
    return _pmod(_dproduct([(a, 1), (b, 1)]), m)


def _pdivmod(a: list, b: list, m: int) -> tuple[list, list]:
    """(q, r) with a = q b + r mod m and deg r < deg b, for lc(b) a unit mod m."""
    r, n, inv = _pmod(a, m), len(b), pow(b[-1], -1, m)
    tail = [(j, y) for j, y in enumerate(b[:-1]) if y]
    q = [0] * max(len(r) - n + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n - 1] * inv % m
        for j, y in tail:
            r[k + j] -= c * y
    return q, _pmod(r[: n - 1], m)


def _ppow(a: list, e: int, f: list, m: int) -> list:
    """a^e mod (f, m), by left-to-right repeated squaring."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _pdivmod(_pmul(out, out, m), f, m)[1]
        if bit == "1":
            out = _pdivmod(_pmul(out, a, m), f, m)[1]
    return out


def _pgcd(a: list, b: list, p: int) -> list:
    """Monic gcd mod the prime p."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmul(a, [pow(a[-1], -1, p)], p)


def _pfactor(f: list, p: int) -> list[list]:
    """Monic irreducible factors mod the odd prime p of a monic square-free f:
    each gcd(f, t^(p^d) - t), split by `_psplit` (Modern Computer Algebra, 14.2)."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= _deg(f):
        d += 1
        h = _ppow(h, p, f, p)
        g = _pgcd(f, _psub(h, [0, 1], p), p)
        if _deg(g):
            out += _psplit(g, d, p)
            f = _pdivmod(f, g, p)[0]
    return out + ([f] if _deg(f) else [])


def _psplit(g: list, d: int, p: int) -> list[list]:
    """Cantor-Zassenhaus (Modern Computer Algebra, 14.3): the factors of g, a
    product of distinct degree-d irreducibles mod p.  gcd(g, a^((p^d-1)/2) - 1)
    splits g for about half of all a; a takes the base-p digits of p, p + 1, ..."""
    if _deg(g) == d:
        return [g]
    for n in count(p):
        a = [n // p**i % p for i in range(n.bit_length())]
        b = _pgcd(g, _psub(_ppow(a, (p**d - 1) // 2, g, p), [1], p), p)
        if 0 < _deg(b) < _deg(g):
            return _psplit(b, d, p) + _psplit(_pdivmod(g, b, p)[0], d, p)


def _hensel_lift(W: list, h: list, p: int, M: int) -> list:
    """The monic lift mod M = p^k of a monic irreducible factor h of W mod p
    coprime to g = W / h, lifted quadratically with s = 1/g mod h (von zur
    Gathen & Gerhard, 15.4): from m to m^2, W = g h + m e makes the divisor
    h + m (s e mod h) and the inverse s (2 - s g); s starts as g^(p^deg h - 2)."""
    s = _ppow(_pdivmod(W, h, p)[0], p ** _deg(h) - 2, h, p)
    m = p
    while m < M:
        mm = min(m * m, M)
        e = [c // m for c in _pdivmod(W, h, mm)[1]]
        step = _pdivmod(_pmul(s, e, m), h, m)[1]
        h = _pmod([a + m * b for a, b in zip_longest(h, step, fillvalue=0)], mm)
        sg = _pmul(s, _pdivmod(W, h, mm)[0], mm)
        s = _pdivmod(_pmul(s, _psub([2], sg, mm), mm), h, mm)[1]
        m = mm
    return h


def _irreducibles(W: list) -> list[list]:
    """Irreducible factors over Z of a primitive square-free dense W of
    degree at least 1, by Zassenhaus (von zur Gathen & Gerhard, Modern
    Computer Algebra, 15.6; Knuth, TAOCP vol. 2, 4.6.2).

    1. p is the first odd prime not dividing lc = lc(W), with W square-free
       mod p; W / lc mod p splits into monic irreducibles g_i.
    2. Each g_i lifts mod M = p^k > 2 |lc| 2^deg W ||W||_2, twice Mignotte's
       bound on the coefficients of (lc / lc(v)) v for each v | W.
    3. By increasing size, a subset gives lc prod g_i mod M in symmetric
       residues; if its primitive part divides W it is a factor, and the
       subset leaves the search.  A subset is skipped unformed when its
       constant term does not divide lc W(0).  After the single factors,
       the subsets of the factors left are counted against
       MAX_RECOMBINATIONS before any pair is tried.
    """
    lc, dW, p = W[-1], [i * c for i, c in enumerate(W)][1:], 3
    while totient(p) < p - 1 or not lc % p or _deg(_pgcd(_pmod(W, p), _pmod(dW, p), p)):
        p += 2
    gs = _pfactor(_pmul(W, [pow(lc, -1, p)], p), p)
    if len(gs) == 1:
        return [W]
    bound = abs(lc) * 2 ** _deg(W) * (math.isqrt(sum(c * c for c in W)) + 1)
    M = p
    while M <= 2 * bound:
        M *= p
    gs = [_hensel_lift(W, g, p, M) for g in gs]
    out, s = [], 1
    while 2 * s <= len(gs):
        for S in combinations(range(len(gs)), s):
            v = lc * math.prod(gs[i][0] for i in S) % M
            if v and lc * W[0] % (v - M if 2 * v > M else v) == 0:
                v = _pmod(_dproduct([([lc], 1)] + [(gs[i], 1) for i in S]), M)
                cand = _dprimitive([c - M if 2 * c > M else c for c in v])
                if (q := _dexact_div(W, cand)) is not None:
                    out.append(cand)
                    W, lc = q, q[-1]
                    gs = [g for i, g in enumerate(gs) if i not in S]
                    break
        else:
            s += 1
            if s == 2:  # the single factors are out: count the subsets of the rest
                subsets = sum(math.comb(len(gs), k) for k in range(1, len(gs) // 2 + 1))
                if subsets > MAX_RECOMBINATIONS:
                    raise FactorizationComplexityError(
                        f"recombining {len(gs)} factors mod {p} may try {subsets} subsets, "
                        f"above {MAX_RECOMBINATIONS}")
    return out + [W]


def _cyclotomic_screen(F: list, divide: bool) -> tuple[list, list]:
    """(F, [(d, m)...]): the indices d >= 2, in increasing (phi(d), d),
    whose Phi_d(x)^m divide the values of F at x = 2 and 3 (where nonzero)
    that earlier indices left, with m phi(d) within the degree they left.
    Phi_1, which `factor` divides out exactly beforehand, is skipped.

    Phi_d(3) is computed only once Phi_d(2) divides.  Without divide, F is
    returned as it is and each m is the most the values and the degree
    allow: a necessary condition, which a false candidate can pass and so
    take another index's share.  With divide, each step also divides Phi_d
    out of F through `_ddiv_cyclotomics`, stops at the first remainder and
    returns the quotient: then the m are the exact multiplicities.
    """
    n = _deg(F)
    vals = [(x, v) for x in (2, 3) if (v := _deval(F, x))]
    out = []
    for phi, d in zip(*_cyclotomic_indices(n)):
        if phi > n:
            break
        m = 0
        while d > 1 and phi <= n and all(v % _cyclotomic_at(d, x) == 0 for x, v in vals):
            if divide:
                if (q := _ddiv_cyclotomics(F, [(d, 1)])) is None:
                    break
                F = q
            # Phi_d(x) >= 1 at x = 2, 3: a value stays zero or nonzero
            vals = [(x, v // _cyclotomic_at(d, x)) for x, v in vals]
            m, n = m + 1, n - phi
        if m:
            out.append((d, m))
    return F, out


def factor(f: LaurentPolynomial) -> Factorization:
    """Complete irreducible factorization over Z up to units +-t^k, in three
    stages.

    1. The integer content splits into prime constants, by trial division
       up to CONTENT_TRIAL_BOUND (a larger cofactor raises ValidationError).
    2. Cyclotomic factors Phi_d with phi(d) at most the degree.  Phi_1 is
       divided out by t - 1 as often as it divides.  For d >= 2, one screen
       of the integers F(2) and F(3) (`_cyclotomic_screen`) yields
       candidates (d, m).  When their m phi(d) sum to the degree of F, the
       answer built from them is returned if it passes the final check
       below, so a false candidate is never returned.  Otherwise F is
       divided once by their product through the net Moebius binomials
       (`_ddiv_cyclotomics`).  When that division is exact the candidates
       are the whole cyclotomic part, since only a false candidate could
       take another factor's share of the values or the degree; otherwise
       each candidate is divided out alone, at most m times, and the screen
       runs again on what is left, dividing as it goes.  Knot expressions
       skip the screen: `knots.alexander_factorization` reads their indices.
    3. The square-free part of the rest splits into irreducibles by
       Zassenhaus (`_irreducibles`), and each is divided out as often as it
       divides.

    The answer is checked to reproduce f: its `expand()` must equal f.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    F = list(f._c)
    sign = 1
    if F[-1] < 0:
        sign = -1
        F = [-x for x in F]

    found = Counter()

    content = math.gcd(*F)
    if content > 1:
        F = [x // content for x in F]
        for p, e in _prime_factors(content, CONTENT_TRIAL_BOUND).items():
            found[LaurentPolynomial.monomial(p, 0)] += e

    # Phi_1 exactly, by synthetic division by t - 1
    while (q := _ddiv_binomial(F, 1)) is not None:
        F = q
        found[_cyclotomic(1)] += 1
    _, cands = _cyclotomic_screen(F, divide=False)
    if sum(m * totient(d) for d, m in cands) == _deg(F):
        # the candidates claim all of F: the final check alone decides them
        result = _checked(f, sign, found + Counter({_cyclotomic(d): m for d, m in cands}))
        if result is not None:
            return result
    if (q := _ddiv_cyclotomics(F, cands)) is None:
        # a false candidate: the true ones shrink F before it is screened again
        for d, m in cands:
            for _ in range(m):
                if (q := _ddiv_cyclotomics(F, [(d, 1)])) is None:
                    break
                F = q
                found[_cyclotomic(d)] += 1
        F, cands = _cyclotomic_screen(F, divide=True)
    else:
        F = q
    for d, m in cands:
        found[_cyclotomic(d)] += m

    if _deg(F) >= 1:
        sqfree_gcd = _dgcd(F, _trim([i * c for i, c in enumerate(F)][1:]))
        W = _dprimitive(_self_checked(_dexact_div(F, sqfree_gcd), "the square-free gcd divides F"))
        for irr in _irreducibles(W):
            poly = _poly(irr).canonical()
            mult = 0
            while (q := _dexact_div(F, poly._c)) is not None:
                F, mult = q, mult + 1
            if mult == 0:
                raise InternalCheckError(f"self-check failed: factor {poly} does not divide F")
            found[poly] += mult
        if not (_deg(F) < 1 and F and F[0] == 1):
            raise InternalCheckError("self-check failed: factor residue must be the unit 1")

    return _self_checked(_checked(f, sign, found), "factorization must reproduce the input")


def _checked(f: LaurentPolynomial, sign: int, found: dict):
    """The Factorization of f with the factors found ({factor: multiplicity}),
    in `_factor_key` order, or None when its `expand()` is not f."""
    result = Factorization(sign, f._lo, tuple(sorted(found.items(), key=lambda kv: _factor_key(kv[0]))))
    return result if result.expand() == f else None


# ---------------------------------------------------------------------------
# Fox-Milnor and the splitting-genus bound
# ---------------------------------------------------------------------------


def reciprocal_partner(p: LaurentPolynomial) -> LaurentPolynomial:
    """Canonical representative of t^{deg p} * p(1/t)."""
    return p.reciprocal().canonical()


def is_alexander_normalized(f: LaurentPolynomial) -> bool:
    """f(1) = +-1, read as the sum of the coefficients (0 for zero)."""
    return sum(f._c) in (1, -1)


class FoxMilnorResult(Record):
    __slots__ = ("passes", "witness", "violations", "factorization")


def fox_milnor(f: LaurentPolynomial) -> FoxMilnorResult:
    """Decide whether f factors as +-t^n w(t) w(1/t); on a pass return the
    witness w.  f must be nonzero with f(1) = +-1; the verdict is
    `fox_milnor_of_factorization` of `factor(f)`."""
    if f.is_zero:
        raise ZeroPolynomialError("Fox-Milnor is undefined for the zero polynomial")
    if not is_alexander_normalized(f):
        raise NormalizationError(
            f"normalization required: f(1) = {f.evaluate(1)}, expected +-1"
        )
    return fox_milnor_of_factorization(f, factor(f))


def fox_milnor_of_factorization(f: LaurentPolynomial, fac: Factorization) -> FoxMilnorResult:
    """The Fox-Milnor verdict on f from fac, its complete factorization.

    Every self-reciprocal irreducible factor must occur with even
    multiplicity, and every other factor with the same multiplicity as its
    reciprocal partner.  Then w is `expand()` of the halved factors (p^(m/2)
    for each self-reciprocal p, one partner of each pair to its full
    multiplicity), checked by w(t) w(1/t) = +-t^k f.
    """
    mult = dict(fac.factors)
    violations = []
    half = []
    seen = set()
    for p, m in fac.factors:
        if p in seen:
            continue
        partner = reciprocal_partner(p)
        if partner == p:
            if m % 2:
                violations.append(
                    f"self-reciprocal factor {format_laurent(p)} has odd multiplicity {m}"
                )
            else:
                half.append((p, m // 2))
        else:
            pm = mult.get(partner, 0)
            if pm != m:
                violations.append(
                    f"factor {format_laurent(p)} has multiplicity {m} but its "
                    f"reciprocal partner has {pm}"
                )
            else:
                # deterministic pick: the partner with the larger coefficient tuple
                half.append((max(p, partner, key=_factor_key), m))
        seen.update((p, partner))
    if violations:
        return FoxMilnorResult(False, None, tuple(violations), fac)
    w = Factorization(1, 0, tuple(half)).expand()
    g = w * w.reciprocal()
    if g.shift(f._lo - g._lo) not in (f, -f):
        raise InternalCheckError("self-check failed: the Fox-Milnor witness must reproduce f")
    return FoxMilnorResult(True, w, (), fac)


def gsp_lower_bound(f: LaurentPolynomial) -> Fraction:
    """The splitting-genus lower bound of f:
    `gsp_lower_bound_of_factorization` of `factor(f)`."""
    return gsp_lower_bound_of_factorization(factor(f))


def gsp_lower_bound_of_factorization(fac: Factorization) -> Fraction:
    """Largest breadth/2 over self-reciprocal irreducible factors of odd
    multiplicity in fac; 0 when every such factor has even multiplicity.

    Reciprocal pairs of distinct factors never obstruct: they can always be
    split between a witness and its reflection, so only self-reciprocal
    factors enter the bound.
    """
    best = Fraction(0)
    for p, m in fac.factors:
        if m % 2 == 1 and p.breadth > 0 and reciprocal_partner(p) == p:
            best = max(best, Fraction(p.breadth, 2))
    return best
