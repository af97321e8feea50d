"""Independent reference implementations and generators for the test suite.

Expected values in the tests are frozen from these oracles (or from hand
computation); none of them call the code paths they are used to check.
`budget` bounds the wall time of a block for the tests that time one.
"""

import contextlib
import functools
import itertools
import math
import random
import signal
from fractions import Fraction

from knotobs.errors import ValidationError
from knotobs.laurent import LaurentPolynomial, parse_laurent, torus_alexander
from knotobs.reporting import Record
from knotobs.upsilon import PiecewiseLinearFunction


def convolve(d1: dict, d2: dict) -> dict:
    """Reference Laurent multiplication on raw exponent->coefficient dicts."""
    out = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def dict_eval(d: dict, x) -> Fraction:
    return sum((Fraction(c) * Fraction(x) ** e for e, c in d.items()), Fraction(0))


def brute_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_mobius(n: int) -> int:
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    if any(n % (p * p) == 0 for p in primes):
        return 0
    return (-1) ** len(primes)


def cyclotomic_oracle(n: int) -> dict:
    """Phi_n as an exponent->coefficient dict, from the Moebius product
    prod_{d | n} (1 - t^d)^mu(n/d) (equal to Phi_n for n > 1) expanded as a
    power series past degree phi(n); 1/(1 - t^d) is its geometric series."""
    if n == 1:
        return {0: -1, 1: 1}
    top = brute_totient(n)
    out = {0: 1}
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = brute_mobius(n // d)
        if mu == 1:
            factor = {0: 1, d: -1}
        elif mu == -1:
            factor = {k * d: 1 for k in range(top // d + 1)}
        else:
            continue
        out = {e: c for e, c in convolve(out, factor).items() if e <= top}
    return out


def dict_exact_div(a: dict, b: dict) -> dict:
    """Quotient a / b of exponent->coefficient dicts by schoolbook long
    division over Fractions; ArithmeticError unless b divides a exactly."""
    rem = {e: Fraction(c) for e, c in a.items()}
    top, low = max(b), min(b)
    quot = {}
    for shift in range(max(a) - top, min(a) - low - 1, -1):
        c = rem.pop(shift + top, 0) / b[top]
        if c:
            quot[shift] = c
            for e, y in b.items():
                if e != top:
                    rem[e + shift] = rem.get(e + shift, 0) - c * y
    if any(rem.values()) or any(c.denominator != 1 for c in quot.values()):
        raise ArithmeticError(f"{b} does not divide {a} over Z")
    return {e: int(c) for e, c in quot.items()}


def cyclotomic_prime_by_prime(n: int) -> dict:
    """Phi_n as an exponent->coefficient dict, built from Phi_1 = t - 1 one
    prime p of n at a time by Phi_{mp}(t) = Phi_m(t^p) / Phi_m(t) (p not
    dividing m), then Phi_n(t) = Phi_{rad n}(t^{n / rad n})."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    phi = {0: -1, 1: 1}
    for p in primes:
        phi = dict_exact_div({e * p: c for e, c in phi.items()}, phi)
    stretch = n // math.prod(primes)
    return {e * stretch: c for e, c in phi.items()}


def fraction_det(M: list) -> Fraction:
    """Determinant by Gaussian elimination over Fractions, swapping in the
    first row with a nonzero entry when a pivot is zero."""
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(len(A)):
        r = next((r for r in range(k, len(A)) if A[r][k]), None)
        if r is None:
            return Fraction(0)
        if r != k:
            A[k], A[r] = A[r], A[k]
            det = -det
        det *= A[k][k]
        for i in range(k + 1, len(A)):
            ratio = A[i][k] / A[k][k]
            A[i] = [x - ratio * y for x, y in zip(A[i], A[k])]
    return det


def int_det(M: list[list[int]]) -> int:
    """Bareiss fraction-free determinant.

    A row with a zero below the pivot has no cross term: it is only scaled
    by pivot / prev, exactly, and left as it is when the two are equal."""
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
        pivot_row = M[k]
        piv = pivot_row[k]
        for i in range(k + 1, n):
            row = M[i]
            if c := row[k]:
                for j in range(k + 1, n):
                    row[j] = (row[j] * piv - c * pivot_row[j]) // prev
            elif piv != prev:
                for j in range(k + 1, n):
                    row[j] = row[j] * piv // prev
        prev = piv
    return sign * M[n - 1][n - 1]


def exact_quotient(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """f / g by `dict_exact_div`; ArithmeticError unless g divides f."""
    return LaurentPolynomial(dict_exact_div(f.coeffs, g.coeffs))


def substitute_power(f: LaurentPolynomial, p: int) -> LaurentPolynomial:
    """f(t^p), exponent by exponent."""
    return LaurentPolynomial({p * e: c for e, c in f.coeffs.items()})


def torus_alexander_by_division(p: int, q: int) -> LaurentPolynomial:
    """Delta of T(p,q), centered: (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))
    by `dict_exact_div`."""
    numer = convolve({p * q: 1, 0: -1}, {1: 1, 0: -1})
    quot = dict_exact_div(numer, convolve({p: 1, 0: -1}, {q: 1, 0: -1}))
    return LaurentPolynomial({e - (p - 1) * (q - 1) // 2: c for e, c in quot.items()})


def product_alexander(e) -> LaurentPolynomial:
    """Reference Alexander polynomial of a knot expression by the product
    route: torus polynomials by `torus_alexander_by_division`,
    Delta_{K_{p,q}}(t) = Delta_K(t^p) Delta_{T(p,q)}(t) (the pattern only for
    q >= 2), Wh(K) gives 1, and products are LaurentPolynomial's Kronecker
    products.  A cable with q <= -2 is refused as knots refuses it."""
    from knotobs import knots

    def product(parts):
        # a mirror has the polynomial of the knot it mirrors
        return math.prod([of(s) for s, _ in parts], start=LaurentPolynomial({0: 1}))

    def of(s):
        if isinstance(s, knots.TorusKnot):
            return torus_alexander_by_division(s.p, s.q)
        if isinstance(s, knots.WhiteheadDouble):
            return LaurentPolynomial({0: 1})
        knots.check_winding(s)
        pattern = torus_alexander_by_division(s.p, s.q) if s.q >= 2 else 1
        return substitute_power(product(knots.signed_summands(s.companion)), s.p) * pattern

    return product(knots.signed_summands(e))


def min_genus_from_singularity(p: int, q: int) -> int:
    """Least genus compatible with an Upsilon derivative jump at reduced p/q:
    q for odd p (q <= g), ceil(q/2) for even p (q <= 2g)."""
    if q < 1 or math.gcd(p, q) != 1:
        raise ValidationError(f"{p}/{q} must be a reduced fraction")
    if not 0 < Fraction(p, q) < 2:
        raise ValidationError(f"{p}/{q} outside (0,2)")
    return q if p % 2 == 1 else (q + 1) // 2


def torus_upsilon_lines(p: int, q: int) -> list:
    """Upsilon of T(p,q) from its semigroup S = <p, q>: with g = (p-1)(q-1)/2
    it is the max over m in 0..2g of the lines -2 #(S & [0,m)) - t (g - m),
    returned as (intercept, slope) integer pairs."""
    g = (p - 1) * (q - 1) // 2
    in_s = [False] * (2 * g + 1)
    for a in range(0, 2 * g + 1, p):
        for b in range(a, 2 * g + 1, q):
            in_s[b] = True
    lines, below = [], 0
    for m in range(2 * g + 1):
        lines.append((-2 * below, m - g))
        below += in_s[m]
    return lines


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


def staircase_from_alexander(f: LaurentPolynomial) -> Staircase:
    """Corners from an alternating +-1 polynomial: with exponents
    a_0 > a_1 > ... > a_{2l} the path takes horizontal steps a_{2r} - a_{2r+1}
    and vertical steps a_{2r+1} - a_{2r+2} from (0, a_0); even-index corners
    are returned.  ValueError when f is not of L-space form."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    exps = sorted(f.coeffs, reverse=True)
    coeffs = [f.coeff(e) for e in exps]
    if len(coeffs) % 2 == 0 or any(c != (1 if i % 2 == 0 else -1) for i, c in enumerate(coeffs)):
        raise ValueError("coefficients must alternate +1, -1 from the top exponent down")
    corners = [(0, exps[0])]
    i, j = 0, exps[0]
    for r in range(len(exps) - 1):
        step = exps[r] - exps[r + 1]
        if r % 2 == 0:
            i += step
        else:
            j -= step
        corners.append((i, j))
    try:
        return Staircase(tuple(corners[::2]))
    except ValidationError as exc:
        raise ValueError(f"exponent pattern has no staircase: {exc}") from exc


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


def staircase_upsilon(p: int, q: int) -> PiecewiseLinearFunction:
    """Upsilon of T(p,q) through its Alexander polynomial's staircase."""
    return upsilon_from_staircase(staircase_from_alexander(torus_alexander(p, q)))


def litherland_jumps(p: int, q: int) -> dict:
    """Signature jumps of T(p,q) as {Fraction: jump} by Litherland's rule:
    each s = i/p + j/q (1 <= i < p, 1 <= j < q) adds +2 at s when s < 1 and
    -2 at s - 1 otherwise."""
    out = {}
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            x, jump = (s, 2) if s < 1 else (s - 1, -2)
            out[x] = out.get(x, 0) + jump
    return {x: j for x, j in out.items() if j}


def signed_litherland_jumps(terms) -> dict:
    """Jumps of the sum of sign * T(p,q) over (p, q, sign) terms, as
    {Fraction: jump} with cancelled locations removed."""
    out = {}
    for p, q, sign in terms:
        for x, j in litherland_jumps(p, q).items():
            out[x] = out.get(x, 0) + sign * j
    return {x: j for x, j in out.items() if j}


@functools.cache
def property_A_table() -> dict:
    """Property A by exhaustive decomposition search over every nonzero
    element a of rank 3 with |coeff| <= 4, as {coords: holds}, computed once
    per session.  a has Property A on the box when every b in it with the
    same leading index splits as b = k a + c with |k| <= 8 and c zero or of
    larger leading index.  Plain coordinate tuples, no LexElement."""
    box = [v for v in itertools.product(range(-4, 5), repeat=3) if any(v)]

    def lead(v):
        return next(i for i, c in enumerate(v) if c)

    def splits(a, b, i):
        for k in range(-8, 9):
            c = [bj - k * aj for aj, bj in zip(a, b)]
            if not any(c[: i + 1]):
                return True
        return False

    table = {}
    for a in box:
        i = lead(a)
        table[a] = all(splits(a, b, i) for b in box if lead(b) == i)
    return table


# Small irreducible pool with value +-1 at t = 1: linears and quadratics with
# non-square discriminant, cubics without rational roots, and cyclotomics of
# indices with at least two distinct prime factors (those take value 1 at 1).
UNIT_AT_ONE_POOL = [
    parse_laurent("-2 + t"),
    parse_laurent("-1 + 2t"),
    parse_laurent("-1 + t + t^2"),
    parse_laurent("-1 + -1t + t^2"),
    parse_laurent("1 + -3t + t^2"),
    parse_laurent("1 + -2t + 2t^2"),
    parse_laurent("-1 + -1t + t^3"),
    parse_laurent("-1 + t + t^3"),
    parse_laurent("1 + -1t + t^2"),          # cyclotomic index 6
    parse_laurent("1 + -1t + t^2 + -1t^3 + t^4"),  # cyclotomic index 10
    parse_laurent("1 + -1t^2 + t^4"),        # cyclotomic index 12
]

# Wider pool for factorization round trips (values at 1 unconstrained).
FACTOR_POOL = UNIT_AT_ONE_POOL + [
    parse_laurent("-1 + t"),                 # cyclotomic index 1
    parse_laurent("1 + t"),                  # cyclotomic index 2
    parse_laurent("1 + t + t^2"),            # cyclotomic index 3
    parse_laurent("1 + t^2"),                # cyclotomic index 4
    parse_laurent("1 + t + t^2 + t^3 + t^4"),  # cyclotomic index 5
    parse_laurent("3 + t"),
    parse_laurent("2"),
    parse_laurent("3"),
]


def shift_argument(coeffs: list, a: int) -> list:
    """Coefficients (low degree first) of g(t + a), by Horner's rule in t + a."""
    out = []
    for c in reversed(coeffs):
        out = [x + a * y for x, y in zip([0] + out, out + [0])]
        out[0] += c
    return out


def is_eisenstein(coeffs: list, q: int) -> bool:
    """Eisenstein's criterion at the prime q: q divides every coefficient but
    the leading one, which it does not divide, and q^2 misses the constant."""
    return coeffs[-1] % q != 0 and all(c % q == 0 for c in coeffs[:-1]) and coeffs[0] % (q * q) != 0


def random_eisenstein(rng: random.Random, max_degree: int = 5) -> LaurentPolynomial:
    """A primitive polynomial of degree 2..max_degree, irreducible over Z by
    Eisenstein's criterion (checked here), with t -> t + a applied to hide
    the pattern; irreducibility survives the shift."""
    q = rng.choice([2, 3, 5, 7])
    degree = rng.randint(2, max_degree)
    coeffs = [q * rng.choice([c for c in range(-4, 5) if c % q])]
    coeffs += [q * rng.randint(-3, 3) for _ in range(degree - 1)]
    coeffs.append(rng.choice([c for c in range(-5, 6) if c % q]))
    content = math.gcd(*coeffs)
    coeffs = [c // content for c in coeffs]
    if not is_eisenstein(coeffs, q):
        raise AssertionError(f"{coeffs} is not Eisenstein at {q}")
    shifted = shift_argument(coeffs, rng.randint(-3, 3))
    return LaurentPolynomial(dict(enumerate(shifted))).canonical()


def swinnerton_dyer(primes) -> LaurentPolynomial:
    """The Swinnerton-Dyer polynomial S_k, the product of t + sum(+-sqrt p)
    over all signs, for the first k primes given.  In integers: S_0 = t and
    S_{k+1} = A^2 - p B^2, where S_k(t + sqrt p) = A + sqrt(p) B.  It is
    irreducible of degree 2^k, yet splits into factors of degree at most 2
    modulo every prime."""
    s = [0, 1]
    for p in primes:
        a, b = [0] * len(s), [0] * len(s)
        for i, c in enumerate(s):
            for j in range(i + 1):
                # the term C(i, j) t^(i-j) sqrt(p)^j of (t + sqrt p)^i
                term = c * math.comb(i, j) * p ** (j // 2)
                (b if j % 2 else a)[i - j] += term
        a2 = convolve(dict(enumerate(a)), dict(enumerate(a)))
        b2 = convolve(dict(enumerate(b)), dict(enumerate(b)))
        s = [a2.get(e, 0) - p * b2.get(e, 0) for e in range(2 * len(s) - 1)]
    return LaurentPolynomial(dict(enumerate(s)))


def random_normalized_poly(rng: random.Random, max_breadth: int = 10) -> LaurentPolynomial:
    """Random f with f(1) = +-1, built from the unit-at-one pool, with a
    random unit +-t^k thrown in."""
    f = LaurentPolynomial.monomial(rng.choice([1, -1]), 0)
    for _ in range(rng.randint(1, 4)):
        p = rng.choice(UNIT_AT_ONE_POOL)
        if f.breadth + p.breadth > max_breadth:
            break
        f = f * p
    return f.shift(rng.randint(-3, 3))


def random_factor_product(rng: random.Random, max_breadth: int = 10) -> LaurentPolynomial:
    f = LaurentPolynomial.monomial(rng.choice([1, -1]), 0)
    for _ in range(rng.randint(1, 3)):
        p = rng.choice(FACTOR_POOL)
        if f.breadth + p.breadth > max_breadth:
            break
        f = f * p
    return f.shift(rng.randint(-3, 3))


# Cyclotomic indices with at least two distinct prime factors: Phi_d(1) = 1.
UNIT_CYCLOTOMIC_INDICES = [6, 10, 12, 14, 15, 18, 20, 21]


def random_slice_product(rng: random.Random, max_breadth: int = 6) -> LaurentPolynomial:
    """g(t) g(1/t) Phi_d^2 with g from `random_normalized_poly`, so g(1) = +-1
    and the product passes Fox-Milnor; each factor of g that is not
    self-reciprocal meets its reciprocal partner in g(1/t)."""
    g = random_normalized_poly(rng, max_breadth)
    g_of_inverse = LaurentPolynomial({-e: c for e, c in g.coeffs.items()})
    phi = LaurentPolynomial(cyclotomic_oracle(rng.choice(UNIT_CYCLOTOMIC_INDICES)))
    return g * g_of_inverse * phi * phi


def random_torus_sum(rng: random.Random, pairs) -> str:
    """Text of a #-sum of two to four torus knots T(p,q), (p, q) drawn from
    `pairs`, each mirrored or not."""
    return " # ".join(
        rng.choice(["", "-"]) + "T(%d,%d)" % rng.choice(pairs) for _ in range(rng.randint(2, 4))
    )


def random_laurent(rng: random.Random, max_breadth: int = 8) -> LaurentPolynomial:
    lo = rng.randint(-4, 2)
    width = rng.randint(0, max_breadth)
    coeffs = {lo + i: rng.randint(-5, 5) for i in range(width + 1)}
    f = LaurentPolynomial(coeffs)
    return f if not f.is_zero else LaurentPolynomial.monomial(1, 0)


def coprime_pairs(max_product: int, min_p: int = 2):
    return [
        (p, q)
        for p in range(min_p, max_product)
        for q in range(p + 1, max_product)
        if p * q <= max_product and math.gcd(p, q) == 1
    ]


def prime_pairs(max_product: int):
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    return [(p, q) for p, q in coprime_pairs(max_product) if is_prime(p) and is_prime(q)]


# ---------------------------------------------------------------------------
# random knot expressions
# ---------------------------------------------------------------------------

SMALL_TORUS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]


def random_expression(rng: random.Random, depth: int = 3, signature_safe: bool = False):
    """Random normalized expression; with signature_safe only constructions
    whose signature jumps are computable (cables only over trivial-Alexander
    companions)."""
    from knotobs import knots

    def leaf():
        r = rng.random()
        if r < 0.5:
            return knots.torus(*rng.choice(SMALL_TORUS))
        if r < 0.7:
            return knots.wh(knots.torus(*rng.choice(SMALL_TORUS)))
        if r < 0.85:
            p = rng.randint(2, 4)
            q = rng.choice([1, p + 1, 2 * p - 1])
            return knots.cable(knots.wh(knots.torus(2, 3)), p, q)
        return knots.UNKNOT

    def build(d):
        if d <= 0:
            return leaf()
        r = rng.random()
        if r < 0.35:
            return knots.sum_of(*(build(d - 1) for _ in range(rng.randint(2, 3))))
        if r < 0.6:
            return knots.mirror(build(d - 1))
        if not signature_safe and r < 0.75:
            p = rng.randint(2, 3)
            q = rng.choice([1, p + 1, p + 2 if math.gcd(p, p + 2) == 1 else p + 1])
            return knots.cable(build(d - 1), p, q)
        return leaf()

    return knots.normalize(build(depth))


def random_tree(rng: random.Random, depth: int = 3):
    """Random expression tree as a caller may build it, not normalized:
    nested sums (one summand or more), double mirrors, mirrored sums, unknot
    summands, cables with q <= -2, and (1, q) cables, q <= -2 among them,
    over small torus knots and their Whitehead doubles."""
    from knotobs import knots

    def leaf():
        r = rng.random()
        if r < 0.6:
            return knots.TorusKnot(*rng.choice(SMALL_TORUS))
        if r < 0.8:
            return knots.WhiteheadDouble(knots.TorusKnot(2, 3))
        return knots.UNKNOT

    def build(d):
        r = rng.random()
        if d <= 0 or r < 0.15:
            return leaf()
        if r < 0.45:
            return knots.Sum(tuple(build(d - 1) for _ in range(rng.randint(1, 3))))
        if r < 0.6:
            return knots.Mirror(build(d - 1))
        if r < 0.7:
            return knots.Mirror(knots.Mirror(build(d - 1)))
        if r < 0.85:
            return knots.Cable(build(d - 1), 1, rng.choice([-5, -2, 0, 1, 3]))
        p = rng.randint(2, 3)
        return knots.Cable(build(d - 1), p, rng.choice([1, p + 1, -(p + 1), 1 - 2 * p]))

    return build(depth)


@contextlib.contextmanager
def budget(seconds: float, what: str):
    """Raise TimeoutError in the block once it has run for `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"{what} exceeded its {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
