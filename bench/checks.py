"""Reference computations that the benchmark checks knotobs outputs against.

Nothing here imports knotobs.  Polynomials are plain ``{exponent: coefficient}``
dicts, Upsilon of a torus knot comes from its semigroup, signatures from
Litherland's count, factorizations from sympy, and every PL comparison is
exact over ``Fraction``.  Each ``check_*`` function returns a list of problem
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# Laurent polynomials as dicts
# ---------------------------------------------------------------------------

_TERM = re.compile(r"(-?\d+)\*t\^(-?\d+)")


def parse_canonical(text: str) -> dict:
    """Parse knotobs' canonical output format ``c*t^e + c*t^e + ...``."""
    if text.strip() == "0":
        return {}
    out: dict = {}
    for term in text.split(" + "):
        m = _TERM.fullmatch(term.strip())
        if m is None:
            raise ValueError(f"not a canonical term: {term!r}")
        c, e = int(m.group(1)), int(m.group(2))
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def format_canonical(p: dict) -> str:
    return " + ".join(f"{c}*t^{e}" for e, c in sorted(p.items())) if p else "0"


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(a: dict, n: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        out = mul(out, a)
    return out


def reciprocal(a: dict) -> dict:
    return {-e: c for e, c in a.items()}


def shifted(a: dict) -> dict:
    """The same polynomial moved to least exponent 0."""
    low = min(a)
    return {e - low: c for e, c in a.items()}


def same_up_to_unit(a: dict, b: dict) -> bool:
    """a == +-t^k b for some k."""
    if not a or not b:
        return a == b
    sa, sb = shifted(a), shifted(b)
    return sa == sb or sa == {e: -c for e, c in sb.items()}


def dense(a: dict) -> list[int]:
    """Coefficients from degree 0 up of the shifted polynomial."""
    s = shifted(a)
    return [s.get(i, 0) for i in range(max(s) + 1)]


def _divide_monic(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of dense integer polynomials with den monic."""
    num = num[:]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("division is not exact")
    return q


def torus_delta(p: int, q: int) -> dict:
    """Closed form (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), least exponent 0."""

    def t_minus_1(n):
        return [-1] + [0] * (n - 1) + [1]

    num = [0] * (p * q + 2)
    for i, a in enumerate(t_minus_1(p * q)):
        for j, b in enumerate(t_minus_1(1)):
            num[i + j] += a * b
    den = [0] * (p + q + 1)
    for i, a in enumerate(t_minus_1(p)):
        for j, b in enumerate(t_minus_1(q)):
            den[i + j] += a * b
    quot = _divide_monic(num, den)
    return {e: c for e, c in enumerate(quot) if c}


def family_torus(name: str, n: int) -> tuple[int, int] | None:
    """The torus knot whose Alexander polynomial squared is that of the
    family member (None for L, whose polynomial is 1)."""
    return {"J": (n, n + 1), "Jprime": (n, 2 * n - 1), "L": None}[name]


def family_expression(name: str, n: int) -> str:
    if name == "J":
        return f"Cable(Wh(T(2,3));{n},{n + 1}) # -T({n},{n + 1})"
    if name == "Jprime":
        return f"Cable(Wh(T(2,3));{n},{2 * n - 1}) # -T({n},{2 * n - 1})"
    return f"Cable(Wh(T(2,3));{n},1) # -Cable(Wh(T(2,3));{n - 1},1)"


def family_gsp_upper(name: str, n: int) -> int:
    """Largest summand Seifert genus: g(K_{p,q}) = p g(K) + (p-1)(q-1)/2 with
    g(Wh T(2,3)) = 1, against g(T(p,q)) = (p-1)(q-1)/2."""
    pq = family_torus(name, n)
    if pq is None:
        return n  # (Wh T(2,3))_{n,1} has genus n, the other summand n - 1
    p, q = pq
    return p + (p - 1) * (q - 1) // 2


def torus_cyclotomic_indices(p: int, q: int) -> list[int]:
    """Delta_{T(p,q)} is the product of Phi_d over d | pq with d dividing
    neither p nor q, each once."""
    return [d for d in range(2, p * q + 1) if (p * q) % d == 0 and p % d and q % d]


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def torus_gsp(p: int, q: int) -> tuple[Fraction, Fraction]:
    """(lower, upper) for T(p,q): the largest breadth/2 over its cyclotomic
    factors, and the Seifert genus.  Both are (p-1)(q-1)/2 for p, q prime."""
    lower = max(Fraction(totient(d), 2) for d in torus_cyclotomic_indices(p, q))
    return lower, Fraction((p - 1) * (q - 1), 2)


# ---------------------------------------------------------------------------
# factorizations: multiply back, and compare with sympy
# ---------------------------------------------------------------------------


def read_factorization(payload: dict) -> tuple[dict, Counter, Counter]:
    """(unit, prime constants with multiplicity, polynomial factors keyed by
    dense coefficient tuple) from a factor payload."""
    unit = parse_canonical(payload["unit"])
    primes: Counter = Counter()
    polys: Counter = Counter()
    for item in payload["factors"]:
        f = parse_canonical(item["factor"])
        m = int(item["multiplicity"])
        if set(f) == {0}:
            primes[f[0]] += m
        else:
            polys[tuple(dense(f))] += m
    return unit, primes, polys


def expand_factorization(payload: dict) -> dict:
    out = parse_canonical(payload["unit"])
    for item in payload["factors"]:
        out = mul(out, power(parse_canonical(item["factor"]), int(item["multiplicity"])))
    return out


def sympy_factorization(poly: dict) -> tuple[int, Counter, Counter]:
    """(sign, prime factorization of the content, irreducible factors with
    positive leading coefficient) by sympy.factor_list and sympy.factorint."""
    import sympy

    t = sympy.Symbol("t")
    coeffs = dense(poly)
    P = sympy.Poly(list(reversed(coeffs)), t, domain="ZZ")
    content, factors = P.factor_list()
    content = int(content)
    polys: Counter = Counter()
    for f, m in factors:
        c = [int(x) for x in reversed(f.all_coeffs())]
        if c[-1] < 0:
            c = [-x for x in c]
            if m % 2:
                content = -content
        polys[tuple(c)] += m
    primes = Counter({int(p): e for p, e in sympy.factorint(abs(content)).items()})
    return (1 if content > 0 else -1), primes, polys


def check_factor_payload(poly: dict, payload: dict, expected_polys: Counter | None = None) -> list[str]:
    """The factorization multiplies back to ``poly`` and its irreducible
    factors match ``expected_polys`` (sympy's factorization when omitted)."""
    problems = []
    if expand_factorization(payload) != poly:
        problems.append("factorization does not multiply back to the input")
    unit, primes, polys = read_factorization(payload)
    if expected_polys is None:
        sign, ref_primes, ref_polys = sympy_factorization(poly)
        if unit.get(min(unit), 0) != sign:
            problems.append(f"unit sign {unit} differs from sympy's sign {sign}")
        if primes != ref_primes:
            problems.append(f"content primes {dict(primes)} != sympy {dict(ref_primes)}")
    else:
        ref_polys = expected_polys
        if primes:
            problems.append(f"unexpected constant factors {dict(primes)}")
    if polys != ref_polys:
        problems.append("irreducible factors differ from the reference factorization")
    return problems


def cyclotomic_dense(d: int) -> tuple[int, ...]:
    import sympy

    t = sympy.Symbol("t")
    return tuple(int(x) for x in reversed(sympy.Poly(sympy.cyclotomic_poly(d, t), t).all_coeffs()))


def torus_factor_counter(p: int, q: int, mult: int = 1) -> Counter:
    return Counter({cyclotomic_dense(d): mult for d in torus_cyclotomic_indices(p, q)})


def sympy_square_of_torus(poly: dict, p: int, q: int) -> bool:
    """sympy confirms poly = +-t^k * Delta_{T(p,q)}^2."""
    import sympy

    t = sympy.Symbol("t")
    delta = sympy.quo(sympy.Poly((t ** (p * q) - 1) * (t - 1), t), sympy.Poly((t**p - 1) * (t**q - 1), t))
    square = delta**2
    ref = {i: int(c) for i, c in enumerate(reversed(square.all_coeffs())) if c}
    return same_up_to_unit(poly, ref)


# ---------------------------------------------------------------------------
# Fox-Milnor
# ---------------------------------------------------------------------------


def check_fox_milnor(poly: dict, fm: dict, should_pass: bool) -> list[str]:
    problems = []
    if fm["passes"] is not should_pass:
        problems.append(f"fox-milnor passes={fm['passes']}, expected {should_pass}")
    if fm["passes"]:
        w = parse_canonical(fm["witness"])
        if not same_up_to_unit(mul(w, reciprocal(w)), poly):
            problems.append("witness w does not give w(t) w(1/t) = +-t^k Delta")
    if expand_factorization(fm["factorization"]) != poly:
        problems.append("fox-milnor factorization does not multiply back")
    return problems


# ---------------------------------------------------------------------------
# Upsilon of torus knots from the semigroup, exact PL comparison
# ---------------------------------------------------------------------------


def semigroup_lines(p: int, q: int) -> list[tuple[int, int]]:
    """Lines (slope, intercept) of Upsilon(t) = max_m -2 #(S cap [0,m)) - t(g - m),
    m = 0..2g, S the semigroup generated by p and q."""
    g = (p - 1) * (q - 1) // 2
    in_s = [False] * (2 * g + 1)
    for a in range(0, 2 * g + 1, p):
        for s in range(a, 2 * g + 1, q):
            in_s[s] = True
    lines = []
    count = 0
    for m in range(2 * g + 1):
        lines.append((m - g, -2 * count))
        count += in_s[m]
    return lines


def envelope_value(lines: list[tuple[int, int]], t: Fraction) -> Fraction:
    a, b = t.numerator, t.denominator
    return Fraction(max(k * a + c * b for k, c in lines), b)


def envelope_breakpoints(lines: list[tuple[int, int]]) -> list[Fraction]:
    """Kinks in (0,2) of the upper envelope of lines with increasing slopes."""
    hull: list[tuple[int, int]] = []
    for k, c in lines:
        while len(hull) >= 2:
            (k1, c1), (k2, c2) = hull[-2], hull[-1]
            # the middle line never leads if the new one overtakes the first
            # no later than the middle one does
            if (c1 - c) * (k2 - k1) <= (c1 - c2) * (k - k1):
                hull.pop()
            else:
                break
        hull.append((k, c))
    xs = [Fraction(c1 - c2, k2 - k1) for (k1, c1), (k2, c2) in zip(hull, hull[1:])]
    return [x for x in xs if 0 < x < 2]


def upsilon_semigroup(p: int, q: int, t) -> Fraction:
    return envelope_value(semigroup_lines(p, q), Fraction(t))


def pl_value(points: list[tuple[Fraction, Fraction]], t: Fraction) -> Fraction:
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise ValueError(f"{t} outside the breakpoint range")


def check_upsilon(points, terms: list[tuple[int, int, int]]) -> list[str]:
    """``points`` are the program's (t, value) breakpoints of Upsilon of the sum
    of sign * T(p,q) over ``terms``.  Both sides are linear between the union
    of their breakpoints, so agreeing there is agreeing everywhere."""
    pts = [(Fraction(t), Fraction(v)) for t, v in points]
    if not pts or pts[0][0] != 0 or pts[-1][0] != 2:
        return ["breakpoints do not span [0, 2]"]
    if any(a[0] >= b[0] for a, b in zip(pts, pts[1:])):
        return ["breakpoints are not strictly increasing"]
    per_term = [(sign, semigroup_lines(p, q)) for p, q, sign in terms]
    ts = {t for t, _ in pts}
    for _, lines in per_term:
        ts.update(envelope_breakpoints(lines))
    for t in sorted(ts):
        ref = sum((sign * envelope_value(lines, t) for sign, lines in per_term), Fraction(0))
        got = pl_value(pts, t)
        if got != ref:
            return [f"Upsilon({t}) = {got}, semigroup formula gives {ref}"]
    return []


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def torus_jump_points(p: int, q: int) -> set[Fraction]:
    return {(Fraction(i, p) + Fraction(j, q)) % 1 for i in range(1, p) for j in range(1, q)}


def litherland_signature(p: int, q: int, x: Fraction) -> int:
    """sigma at w = e^{2 pi i x} for T(p,q), x not a jump point:
    #{s outside (x, x+1)} - #{s inside}, s = i/p + j/q."""
    inside = outside = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if x < s < x + 1:
                inside += 1
            else:
                outside += 1
    return outside - inside


def sum_signature(terms: list[tuple[int, int, int]], x: Fraction) -> int:
    return sum(sign * litherland_signature(p, q, x) for p, q, sign in terms)


def check_jump_rows(rows: list[dict], terms: list[tuple[int, int, int]]) -> list[str]:
    """The step function of the program's jumps equals the summed Litherland
    signatures on every interval between the union of candidate jump points."""
    jumps = {Fraction(r["x"]): int(r["jump"]) for r in rows}
    cuts = set(jumps)
    for p, q, _ in terms:
        cuts |= torus_jump_points(p, q)
    cuts = sorted(cuts | {Fraction(0), Fraction(1)})
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        got = sum(j for x, j in jumps.items() if x < mid)
        ref = sum_signature(terms, mid)
        if got != ref:
            return [f"signature step at {mid} is {got}, Litherland count gives {ref}"]
    return []


def numpy_signature(V: list[list[int]], x: Fraction) -> int:
    """Signature of (1-w)V + (1-conj w)V^T at w = e^{2 pi i x} by numpy
    eigenvalues; raises when a sign is too close to call."""
    import numpy as np

    A = np.array(V, dtype=float)
    if A.size == 0:
        return 0
    w = np.exp(2j * np.pi * float(x))
    ev = np.linalg.eigvalsh((1 - w) * A + (1 - np.conj(w)) * A.T)
    if np.min(np.abs(ev)) < 1e-8 * max(1.0, float(np.abs(ev).max())):
        raise ArithmeticError(f"eigenvalue sign undecided at x = {x}")
    return int((ev > 0).sum() - (ev < 0).sum())


def sympy_seifert_det(V: list[list[int]]) -> dict:
    """det(V - t V^T) by sympy's exact polynomial-matrix determinant."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    n = len(V)
    M = sympy.Matrix(n, n, lambda i, j: V[i][j] - t * V[j][i])
    det = sympy.Poly(DomainMatrix.from_Matrix(M).det().as_expr() if n else 1, t)
    return {i: int(c) for i, c in enumerate(reversed(det.all_coeffs())) if c}


def check_seifert(V: list[list[int]], p: int, q: int, xs, values) -> list[str]:
    problems = []
    if not same_up_to_unit(sympy_seifert_det(V), torus_delta(p, q)):
        problems.append(f"det(V - tV^T) is not +-t^k Delta_T({p},{q})")
    for x, got in zip(xs, values):
        x = Fraction(x)
        ref = litherland_signature(p, q, x)
        own = numpy_signature(V, x)
        if not got == own == ref:
            problems.append(f"signature at {x}: program {got}, numpy {own}, Litherland {ref}")
    return problems


# ---------------------------------------------------------------------------
# JSON schemas
# ---------------------------------------------------------------------------


class Schemas:
    """The JSON schemas shipped with the package, validated by jsonschema."""

    def __init__(self, schema_dir: Path):
        self._dir = schema_dir
        self._cache: dict = {}

    def problems(self, doc, name: str) -> list[str]:
        import jsonschema

        if name not in self._cache:
            self._cache[name] = json.loads((self._dir / name).read_text())
        try:
            jsonschema.validate(doc, self._cache[name])
        except jsonschema.ValidationError as exc:
            return [f"{name}: {exc.message}"]
        return []


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank ``pct`` percentile; refuses unless at least ten samples
    lie above it, so the tail is never a handful of outliers."""
    xs = sorted(samples)
    rank = math.ceil(pct * len(xs) / 100)
    if rank < 1 or len(xs) - rank < 10:
        raise ValueError(f"p{pct} of {len(xs)} samples has fewer than 10 samples above it")
    return xs[rank - 1]


def highest_tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten of n samples above it."""
    best = 0
    for pct in range(1, 100):
        if n - math.ceil(pct * n / 100) >= 10:
            best = pct
    return best

