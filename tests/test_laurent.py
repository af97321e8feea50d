"""Laurent polynomial arithmetic, factorization, Fox-Milnor, genus bound."""

import math
import random
import time
from array import array
from fractions import Fraction
from itertools import takewhile

import pytest

import oracles
from knotobs import errors, knots, laurent
from knotobs.cli import run
from knotobs.errors import (
    MAX_DENSE_BREADTH,
    FactorizationComplexityError,
    InternalCheckError,
    NormalizationError,
    ParseError,
    ValidationError,
    ZeroPolynomialError,
)
from knotobs.laurent import (
    ONE,
    LaurentPolynomial,
    cyclotomic,
    factor,
    format_laurent,
    fox_milnor,
    gsp_lower_bound,
    parse_laurent,
    reciprocal_partner,
    torus_alexander,
    totient,
)

TREFOIL = parse_laurent("1*t^-1 + -1*t^0 + 1*t^1")


class TestArithmetic:
    def test_multiply_matches_hand_expansion(self):
        # (t - 1 + 1/t)^2 = t^2 - 2t + 3 - 2/t + 1/t^2
        expected = LaurentPolynomial({-2: 1, -1: -2, 0: 3, 1: -2, 2: 1})
        assert TREFOIL * TREFOIL == expected

    def test_additive_inverse(self):
        assert (TREFOIL + (-TREFOIL)).is_zero

    def test_multiplicative_identity(self):
        assert TREFOIL * ONE == TREFOIL

    def test_subtract(self):
        assert (TREFOIL - TREFOIL).is_zero

    def test_random_products_match_convolution_oracle(self):
        rng = random.Random(101)
        for _ in range(200):
            f = oracles.random_laurent(rng)
            g = oracles.random_laurent(rng)
            assert (f * g).coeffs == oracles.convolve(f.coeffs, g.coeffs)

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # the power is one Kronecker product, a single integer power (which
        # squares only while bits remain); no polynomial product is formed
        calls = []
        product = laurent._dproduct
        for m in range(10):
            expected = ONE
            for _ in range(m):
                expected = expected * TREFOIL
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(laurent, "_dproduct", lambda parts: calls.append(parts) or product(parts))
                assert TREFOIL**m == expected
            assert calls == [[(TREFOIL._c, m)]], m

    def test_int_and_fraction_points_match_oracle(self):
        rng = random.Random(4242)
        for _ in range(200):
            f = oracles.random_laurent(rng, max_breadth=12).shift(rng.randint(-8, 0))
            for x in (1, -1, 2, -3):
                value = f.evaluate(x)
                assert value == f.evaluate(Fraction(x)) == oracles.dict_eval(f.coeffs, x)
                if value == int(value):
                    assert type(value) is int

    def test_no_zero_entries_stored(self):
        f = parse_laurent("1 + t") * parse_laurent("1 + -1t")  # 1 - t^2
        assert 1 not in f.coeffs
        assert f == LaurentPolynomial({0: 1, 2: -1})


class TestBreadth:
    def test_trefoil(self):
        assert TREFOIL.breadth == 2

    def test_cyclotomic_15_has_totient_breadth(self):
        assert cyclotomic(15).breadth == oracles.brute_totient(15) == 8

    def test_torus_3_5(self):
        assert torus_alexander(3, 5).breadth == 8

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            LaurentPolynomial().breadth

    def test_breadth_additive_under_product(self):
        rng = random.Random(7)
        for _ in range(200):
            f = oracles.random_laurent(rng)
            g = oracles.random_laurent(rng)
            assert (f * g).breadth == f.breadth + g.breadth


class TestDenseLimit:
    def test_breadth_at_limit_is_dense(self):
        f = parse_laurent(f"t^{MAX_DENSE_BREADTH} - 1")
        assert f._lo == 0 and len(f._c) == MAX_DENSE_BREADTH + 1

    def test_dense_storage_refuses_before_allocating(self, capsys):
        # each result would be a coefficient tuple just past the limit (10^12
        # entries for the dict); its breadth is refused before any allocation
        over = MAX_DENSE_BREADTH + 1
        half = parse_laurent(f"1 + t^{over // 2 + 1}")
        builds = [
            lambda: parse_laurent(f"t^{over} - 1"),
            lambda: LaurentPolynomial({0: 1, 10**12: 1}),
            lambda: half**2,
            lambda: half * half,
            lambda: laurent.T.shift(over) + 1,
        ]
        with oracles.budget(2.0, "refusing polynomials past the dense limit"):
            for build in builds:
                with pytest.raises(ValidationError, match="exceeds the dense polynomial limit"):
                    build()
            # a monomial has breadth 0 whatever its exponent: one entry
            assert laurent.T**over == LaurentPolynomial.monomial(1, over)
            assert run(["fox-milnor", "t^200000 - 1"]) == 1
        assert "invalid: breadth 200000 exceeds the dense polynomial limit" in capsys.readouterr().err

    def test_beyond_limit_refused(self):
        with pytest.raises(ValidationError, match="dense polynomial limit"):
            factor(parse_laurent(f"t^{2 * MAX_DENSE_BREADTH} - 1"))
        with pytest.raises(ValidationError, match="dense polynomial limit"):
            cyclotomic(MAX_DENSE_BREADTH + 1)
        with pytest.raises(ValidationError, match="dense polynomial limit"):
            torus_alexander(317, 331)  # pq = 104927


class TestCyclotomicTotient:
    def test_base_case(self):
        assert cyclotomic(1) == parse_laurent("-1 + t")

    def test_cyclotomic_6(self):
        assert cyclotomic(6) == parse_laurent("1 + -1t + t^2")

    def test_cyclotomic_15_degree(self):
        assert cyclotomic(15).breadth == 8

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 15, 35, 60])
    def test_totient_against_brute_force(self, n):
        assert totient(n) == oracles.brute_totient(n)

    def test_totient_examples(self):
        assert totient(1) == 1
        assert totient(15) == 8
        assert totient(35) == 24

    def test_totient_detects_primes(self):
        # the independence certificate reads primality as phi(n) = n - 1
        for n in range(2, 500):
            prime = all(n % d for d in range(2, n))
            assert (totient(n) == n - 1) == prime, n

    @staticmethod
    def indices_within(n):
        # the (d, phi) a caller reads, stopping at the first phi above n
        phis, ds = laurent._cyclotomic_indices(n)
        return sorted((d, phi) for phi, d in takewhile(lambda e: e[0] <= n, zip(phis, ds)))

    def test_candidate_indices_match_brute_force(self, monkeypatch):
        # A d with r distinct primes has phi(d) >= d * prod(1 - 1/p) and
        # phi(d) >= prod(p - 1) over the first r primes; the second is 480
        # for r = 5, so phi(d) <= 400 needs r <= 4 and d <= 400 * 210 / 48.
        phis = {d: oracles.brute_totient(d) for d in range(1, 1751)}
        monkeypatch.setattr(laurent, "_index_table", (0, array("q"), array("q")))
        # rising n rebuilds the table each time; falling n reads the one for 400
        for n in [*range(401), *range(400, -1, -1)]:
            expected = [(d, phi) for d, phi in phis.items() if phi <= n]
            assert self.indices_within(n) == expected, n
        assert laurent._index_table[0] == 400

    def test_candidate_indices_at_the_dense_limit_within_budget(self, monkeypatch):
        monkeypatch.setattr(laurent, "_index_table", (0, array("q"), array("q")))
        with oracles.budget(5.0, "the cyclotomic indices at the dense limit"):
            phis, ds = laurent._cyclotomic_indices(MAX_DENSE_BREADTH)
        assert len(ds) == 194_429
        assert max(ds) == 510_510
        pairs = list(zip(phis, ds))
        assert all(a < b for a, b in zip(pairs, pairs[1:]))
        rng = random.Random(4040)
        for phi, d in rng.sample(pairs, 200):
            assert phi == totient(d) <= MAX_DENSE_BREADTH
        # one table of two 8-byte arrays serves every smaller degree
        assert phis.itemsize == ds.itemsize == 8
        smaller = laurent._cyclotomic_indices(324)
        assert smaller[0] is phis and smaller[1] is ds

    def test_product_of_cyclotomics_is_tn_minus_1(self):
        for n in (6, 10, 12):
            prod = ONE
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == LaurentPolynomial({0: -1, n: 1})


class TestIntegerCore:
    def test_exact_div_refuses_non_divisors(self):
        assert laurent._dexact_div([-1, 0, 1], [1, 1]) == [-1, 1]
        assert laurent._dexact_div([1, 0, 1], [1, 1]) is None  # nonzero remainder
        assert laurent._dexact_div([1, 1], [2, 2]) is None  # quotient 1/2 over Q
        assert laurent._dexact_div([1, 1], [1, 0, 1]) is None  # divisor of larger degree
        assert laurent._dexact_div([6, 10, 4], [2, 2]) == [3, 2]

    def test_gcd_is_primitive_with_positive_lead(self):
        a = laurent._dproduct([([-1, 0, 1], 1), ([3, 2], 1)])  # (t^2 - 1)(2t + 3)
        b = laurent._dproduct([([-5, 5], 1), ([1, 0, 1], 1)])  # 5(t - 1)(t^2 + 1)
        assert laurent._dgcd(a, b) == [-1, 1]
        assert laurent._dgcd([-2, 0, -2], [4, 0, 4]) == [1, 0, 1]
        assert laurent._dgcd([3, 1], [5]) == [1]

    def test_cyclotomic_matches_moebius_oracle(self):
        for n in range(1, 301):
            assert cyclotomic(n).coeffs == oracles.cyclotomic_oracle(n), n

    def test_cyclotomic_matches_prime_by_prime_oracle(self):
        for n in list(range(1, 301)) + [d for d in range(1, 2311) if 2310 % d == 0]:
            assert cyclotomic(n).coeffs == oracles.cyclotomic_prime_by_prime(n), n

    def test_cyclotomic_values_without_polynomials(self):
        for n in range(1, 301):
            for x in (2, 3):
                assert laurent._cyclotomic_at(n, x) == cyclotomic(n).evaluate(x), (n, x)

    def test_cyclotomic_values_are_held_up_to_a_fixed_bound(self):
        # t^5000 - 1 reads 3,896 values, more than the cache holds
        laurent._cyclotomic_at.cache_clear()
        assert len(factor(parse_laurent("t^5000 - 1")).factors) == 20
        info = laurent._cyclotomic_at.cache_info()
        assert info.maxsize == laurent.CYCLOTOMIC_VALUE_CACHE
        assert info.misses > info.currsize == laurent.CYCLOTOMIC_VALUE_CACHE

    def test_t2000_minus_1_splits_into_its_cyclotomics(self):
        fac = factor(parse_laurent("t^2000 - 1"))
        divisors = [d for d in range(1, 2001) if 2000 % d == 0]
        assert len(divisors) == 20
        assert len(fac.factors) == 20
        assert dict(fac.factors) == {cyclotomic(d): 1 for d in divisors}
        assert fac.unit == ONE

    def test_torus_knot_with_pq_at_the_dense_limit(self):
        # (t^pq - 1)(t - 1) is then one degree past the limit
        assert 32 * 3125 == MAX_DENSE_BREADTH
        f = torus_alexander(32, 3125)
        assert f.breadth == 31 * 3124
        assert f.evaluate(1) == 1 and f.is_palindromic()

    def test_gsp_bound_of_large_torus_knot_within_budget(self):
        start = time.monotonic()
        assert gsp_lower_bound(torus_alexander(31, 37)) == 540
        assert time.monotonic() - start < 5.0


def dense_phi(d: int) -> list:
    """Phi_d from the prime-by-prime oracle, as a coefficient list."""
    phi = oracles.cyclotomic_prime_by_prime(d)
    return [phi.get(i, 0) for i in range(max(phi) + 1)]


def random_dense(rng: random.Random, length: int) -> list:
    """Random coefficient list of this length with a nonzero top entry."""
    return [rng.randint(-4, 4) for _ in range(length - 1)] + [rng.choice([-3, -1, 1, 2])]


class TestBinomialKernels:
    """Division by Phi_d through its factors t^e - 1, against dense long
    division by the oracle's Phi_d."""

    def test_times_binomial_matches_convolution(self):
        rng = random.Random(6060)
        for _ in range(200):
            a = random_dense(rng, rng.randint(1, 30))
            e = rng.randint(1, 40)
            expected = oracles.convolve(dict(enumerate(a)), {0: -1, e: 1})
            assert laurent._poly(laurent._dtimes_binomial(a, e)).coeffs == expected

    @pytest.mark.parametrize("e", [1, 2, 3, 5, 8, 12])
    def test_binomial_division_edge_cases(self, e):
        rng = random.Random(e)
        binomial = [-1] + [0] * (e - 1) + [1]
        branches = set()
        # quotient lengths putting len(a) = m + e on both sides of e * e
        for m in sorted({1, 2, e - 1, e, e + 1, e * e - e - 1, e * e - e, e * e - e + 1, 3 * e * e}):
            if m < 1:
                continue
            q = random_dense(rng, m)
            a = laurent._dtimes_binomial(q, e)
            branches.add(e * e < len(a))
            assert laurent._ddiv_binomial(a, e) == q == laurent._dexact_div(a, binomial)
            # a remainder that sits only in the lowest block
            for j in {0, e // 2, e - 1}:
                r = a[:]
                r[j] += rng.choice([-2, -1, 1, 3])
                assert laurent._ddiv_binomial(r, e) is None
                assert laurent._dexact_div(r, binomial) is None
        assert branches == ({True} if e == 1 else {True, False})
        for n in range(1, e + 1):  # len(a) <= e: only zero is a multiple
            assert laurent._ddiv_binomial(random_dense(rng, n), e) is None
        assert laurent._ddiv_binomial([], e) == []

    def test_cyclotomic_division_matches_dense_division(self):
        rng = random.Random(6161)
        for d in range(1, 61):
            phi = dense_phi(d)
            for _ in range(6):
                a = random_dense(rng, rng.randint(1, 80))
                for F in (a, laurent._dproduct([(a, 1), (phi, 1)])):
                    assert laurent._ddiv_cyclotomics(F, [(d, 1)]) == laurent._dexact_div(F, phi), d

    def test_known_multiplicities_of_cyclotomic_products(self):
        rng = random.Random(6262)
        phis = {d: dense_phi(d) for d in range(1, 61)}
        for _ in range(25):
            mults = {d: rng.randint(1, 3) for d in rng.sample(range(1, 61), 4)}
            F = laurent._dproduct([(phis[d], m) for d, m in mults.items()])
            for d, phi in phis.items():
                G, m = F, 0
                while (q := laurent._ddiv_cyclotomics(G, [(d, 1)])) is not None:
                    assert q == laurent._dexact_div(G, phi)
                    G, m = q, m + 1
                assert laurent._dexact_div(G, phi) is None
                assert m == mults.get(d, 0), (mults, d)

    def test_t30030_minus_1_strips_within_budget(self):
        divisors = [d for d in range(1, 30031) if 30030 % d == 0]
        assert len(divisors) == 64
        F = [-1] + [0] * 30029 + [1]
        with oracles.budget(10.0, "stripping the cyclotomic factors of t^30030 - 1"):
            for d in divisors:
                F = laurent._ddiv_cyclotomics(F, [(d, 1)])
                assert F is not None, d
                assert laurent._ddiv_cyclotomics(F, [(d, 1)]) is None, d
        assert F == [1]

    def test_cyclotomic_products_use_no_dense_division(self, monkeypatch):
        rng = random.Random(6363)
        inputs = [parse_laurent("t^2000 - 1"), torus_alexander(5, 7) * torus_alexander(2, 9)]
        for _ in range(40):
            f = ONE
            for d in rng.sample(range(1, 61), 4):
                f = f * laurent._poly(dense_phi(d)) ** rng.randint(1, 3)
            inputs.append(f.shift(rng.randint(-3, 3)))
        divisors = []
        dense_div = laurent._dexact_div

        def recording_div(a, b):
            divisors.append(b)
            return dense_div(a, b)

        monkeypatch.setattr(laurent, "_dexact_div", recording_div)
        for f in inputs:
            assert factor(f).expand() == f
        for n in range(1, 301):
            laurent._cyclotomic.__wrapped__(n)
        assert divisors == []

    def test_net_product_division_matches_dense_division(self):
        # the binomials of different Phi_d cancel: Phi_2 Phi_3 Phi_6 = (t^6 - 1) / (t - 1)
        rng = random.Random(6464)
        phis = {d: dense_phi(d) for d in range(1, 61)}
        for _ in range(60):
            pairs = [(d, rng.randint(1, 3)) for d in rng.sample(range(1, 61), rng.randint(1, 5))]
            divisor = laurent._dproduct([(phis[d], m) for d, m in pairs])
            a = random_dense(rng, rng.randint(1, 40))
            for F in (a, laurent._dproduct([(a, 1), (divisor, 1)])):
                assert laurent._ddiv_cyclotomics(F, pairs) == laurent._dexact_div(F, divisor), pairs
        assert laurent._ddiv_cyclotomics(phis[6], []) == phis[6]

    def test_repeated_division_is_screened_first(self, monkeypatch):
        # J_8's polynomial is the square of six cyclotomics: the screen on
        # F(2) and F(3) finds all six twice, which takes the whole degree,
        # so the only product of cyclotomics is the self-check, the unit 1
        # times the net binomials (t^72 - 1)^2 (t - 1)^2 / ((t^8 - 1)^2
        # (t^9 - 1)^2); it reproduces the input, and nothing is divided out
        delta = knots.alexander(knots.family("J", 8))
        calls = []
        divide = laurent._ddiv_cyclotomics
        monkeypatch.setattr(laurent, "_ddiv_cyclotomics", lambda a, pairs: calls.append(list(pairs)) or divide(a, pairs))
        fac = factor(delta)
        indices = (6, 12, 18, 24, 36, 72)
        assert fac.factors == tuple((cyclotomic(d), 2) for d in indices)
        assert calls == [[(d, -2) for d in indices]]

    def test_phi_1_is_divided_out_exactly(self):
        # 2^6 divides 3^2000 - 1, which a screen of Phi_1(3) = 2 would read
        # as Phi_1^6; Phi_1 leaves by synthetic division by t - 1 instead
        F = [-1] + [0] * 1999 + [1]
        assert all(d > 1 for d, _ in laurent._cyclotomic_screen(F, divide=False)[1])
        rng = random.Random(6565)
        for k in range(5):
            for _ in range(20):
                g = oracles.random_factor_product(rng)
                if g.evaluate(1) != 0:
                    f = g * cyclotomic(1) ** k
                    assert factor(f).multiplicity(cyclotomic(1)) == k

    @pytest.mark.parametrize(
        "parts, expected, claims_degree",
        [
            # F(2) = 135 and F(3) = 256 pass Phi_2(2) = 3 and Phi_2(3) = 4
            # three times, which takes the degree
            ([("t + 13", 1), ("1 + t", 2)], [("t + 13", 1), ("1 + t", 2)], True),
            # F(2) = 0, and Phi_2(3) = 4 divides F(3) = -4
            ([("t - 2", 1), ("t - 7", 1)], [("t - 2", 1), ("t - 7", 1)], False),
            # F(2) = F(3) = 0: every index but the exact Phi_1 passes the
            # screen, and Phi_2 four times takes the degree
            ([("t - 2", 1), ("t - 3", 1), ("t^2 + 1", 1)], [("t - 2", 1), ("t - 3", 1), ("t^2 + 1", 1)], True),
            # 2^5 divides 3^1000 - 1: after Phi_1 and Phi_2, Phi_4(3) = 10 takes 2^2
            ([("t^1000 - 1", 1)], [(d, 1) for d in range(1, 1001) if 1000 % d == 0], False),
        ],
    )
    def test_false_screen_candidates_fall_back_to_single_divisions(self, monkeypatch, parts, expected, claims_degree):
        f = ONE
        for text, m in parts:
            f = f * parse_laurent(text) ** m
        calls = []  # (pairs, quotient) of each product of cyclotomics, ("check", result) of each check
        divide = laurent._ddiv_cyclotomics
        checked = laurent._checked

        def recording(a, pairs):
            calls.append((list(pairs), divide(a, pairs)))
            return calls[-1][1]

        monkeypatch.setattr(laurent, "_ddiv_cyclotomics", recording)
        monkeypatch.setattr(laurent, "_checked", lambda *args: calls.append(("check", checked(*args))) or calls[-1][1])
        fac = factor(f)
        # a screen that claims the whole degree is checked first, and the
        # check fails; then one product divides by every candidate at once,
        # it fails, and divisions by a single Phi_d follow
        divisions = [i for i, (pairs, _) in enumerate(calls) if pairs != "check" and pairs and pairs[0][1] > 0]
        first = divisions[0]
        assert [r for pairs, r in calls[:first] if pairs == "check"] == ([None] if claims_degree else [])
        assert calls[first][1] is None, "the net product divided exactly"
        assert any(len(calls[i][0]) == 1 and calls[i][0][0][1] == 1 for i in divisions[1:])
        assert dict(fac.factors) == {
            cyclotomic(p) if isinstance(p, int) else parse_laurent(p): m for p, m in expected
        }
        assert len(fac.factors) == len(expected) and fac.expand() == f


class TestDenseProduct:
    @pytest.mark.parametrize("j", [1, 2, 3, 4, 8, 9, 16])
    def test_constants_at_the_byte_width_boundary(self, j):
        # 2^(8j-1) - 1 is the largest bound of width j; 2^(8j-1) needs j + 1
        for c in (2 ** (8 * j - 1) - 1, 2 ** (8 * j - 1)):
            for signed in (c, -c):
                assert laurent._dproduct([([signed], 1)]) == [signed]
                assert laurent._dproduct([([signed], 1), ([1], 3)]) == [signed]
                assert laurent._dproduct([([signed], 1), ([-1], 3), ([5, -7], 0)]) == [-signed]
                assert laurent._dproduct([([signed], 2)]) == [c * c]

    @pytest.mark.parametrize("k", [1, 64, 257, 1000])
    def test_binomial_powers(self, k):
        assert laurent._dproduct([([1, 1], k)]) == [math.comb(k, i) for i in range(k + 1)]
        assert laurent._dproduct([([1, -1], k)]) == [
            (-1) ** i * math.comb(k, i) for i in range(k + 1)
        ]

    def test_empty_and_zeroth_powers(self):
        assert laurent._dproduct([]) == [1]
        assert laurent._dproduct([([3, 1], 0)]) == [1]
        assert laurent._dproduct([([3, 1], 0), ([1, 1], 2)]) == [1, 2, 1]
        assert laurent._dproduct([([0], 1), ([1, 1], 2)]) == []

    @staticmethod
    def matches_sparse_product(parts) -> bool:
        expected = {0: 1}
        for a, m in parts:
            for _ in range(m):
                expected = oracles.convolve(expected, dict(enumerate(a)))
        return laurent._poly(laurent._dproduct(parts)).coeffs == expected

    def test_random_parts_match_sparse_product(self):
        rng = random.Random(8080)
        big = 10**30
        for _ in range(300):
            parts = []
            for _ in range(rng.randint(0, 4)):
                width = rng.randint(1, 6)
                a = [rng.randint(-big, big) if rng.random() < 0.8 else 0 for _ in range(width)]
                parts.append((a, rng.randint(0, 3)))
            assert self.matches_sparse_product(parts)

    @staticmethod
    def with_norm(rng, norm: int, length: int) -> list:
        """A random list of the given length whose absolute values sum to norm."""
        cuts = sorted(rng.randint(0, norm) for _ in range(length - 1))
        return [rng.choice((1, -1)) * (hi - lo) for lo, hi in zip([0] + cuts, cuts + [norm])]

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 16])
    def test_random_lists_at_each_width_edge(self, monkeypatch, w):
        """The bound B = prod ||a||_1^m lands just below 2^(8w-1), where the
        width is w, and at it, where a machine width rounds up to the next
        one and a wider one grows by a byte; every product matches the
        product of `oracles.convolve`, packed through the widths it names."""
        rng = random.Random(5150 + w)
        pack, widths = laurent._kpack, set()
        monkeypatch.setattr(laurent, "_kpack", lambda a, width: widths.add(width) or pack(a, width))
        edge = 2 ** (8 * w - 1)
        for bound in (edge - 1, edge):
            for _ in range(40):
                # split the bound as x * y^m (2^(8w-1) - 1 by a small odd
                # divisor, when it has one), then add a zeroth power and a unit list
                m = rng.choice([1, 1, 2, 3]) if bound == edge else 1
                if bound == edge:
                    y = 2 ** rng.randint(0, (8 * w - 1) // (2 * m))
                else:
                    y = next((d for d in range(3, 1000, 2) if bound % d == 0), 1)
                x = bound // y**m
                parts = [(self.with_norm(rng, x, rng.randint(1, 6)), 1)]
                if y > 1:
                    parts.append((self.with_norm(rng, y, rng.randint(1, 4)), m))
                if rng.random() < 0.5:
                    parts.append((self.with_norm(rng, rng.randint(1, 2**70), rng.randint(1, 5)), 0))
                if rng.random() < 0.5:
                    parts.append(([rng.choice((1, -1))], rng.randint(1, 3)))
                rng.shuffle(parts)
                assert self.matches_sparse_product(parts), parts
        assert widths == {w, {1: 2, 2: 4, 4: 8}.get(w, w + 1)}

    def test_one_entry_operand_scales_and_shifts(self):
        # an int, a +-constant or c t^k on either side gives the Kronecker product
        f = parse_laurent("t^-2 - 3 + 5t^4")
        for c in (3, -1, 0, ONE, -ONE, LaurentPolynomial.monomial(-7, 3), LaurentPolynomial.monomial(2, -5)):
            g = laurent._coerce(c)
            expected = laurent._poly(laurent._dproduct([(f._c, 1), (g._c, 1)]), f._lo + g._lo)
            assert f * c == c * f == expected

    def test_failed_witness_check_is_2(self, capsys, monkeypatch):
        # T(2,3) # T(2,3) has Delta = Phi_6^2 and witness w = Phi_6; the
        # expression factors by its indices, the same polynomial as text by
        # factor.  Once either has checked its answer, one product of the
        # witness route is corrupted: w itself, from the binomials of Phi_6,
        # or w * w-bar, the one Kronecker product of two parts
        divide, product = laurent._ddiv_cyclotomics, laurent._dproduct
        bumped = lambda out: [out[0] + 1] + out[1:]
        corruptions = {
            "_ddiv_cyclotomics": lambda a, pairs: bumped(divide(a, pairs)) if pairs == [(6, -1)] else divide(a, pairs),
            "_dproduct": lambda parts: bumped(product(parts)) if len(parts) == 2 else product(parts),
        }
        routes = [("T(2,3) # T(2,3)", knots, "alexander_factorization"), ("t^-2 - 2t^-1 + 3 - 2t + t^2", laurent, "factor")]
        for text, module, factorizer in routes:
            assert run(["fox-milnor", text]) == 0
            real_factor = getattr(module, factorizer)
            for name, corrupt in corruptions.items():
                armed = []

                def factor_then_arm(f):
                    out = real_factor(f)
                    armed.append(True)
                    return out

                real = getattr(laurent, name)
                with monkeypatch.context() as patch:
                    patch.setattr(module, factorizer, factor_then_arm)
                    patch.setattr(laurent, name, lambda *args: (corrupt if armed else real)(*args))
                    capsys.readouterr()
                    assert run(["fox-milnor", text]) == 2, (text, name)
                assert "self-check failed: the Fox-Milnor witness" in capsys.readouterr().err


class TestSelfChecks:
    """factor checks that its answer expands back to the input.  fox_milnor
    builds its witness w as `expand()` of the halved factors and checks that
    w(t) w(1/t) is +-t^k f, one Kronecker product.  `expand()` multiplies the
    cyclotomic factors back in through the net Moebius binomials and the
    others by Kronecker substitution."""

    # -3 t^-3 Phi_1 Phi_6^2 (t - 2)^2 (2t^2 + t + 5)
    MIXED = (
        LaurentPolynomial.monomial(-3, -3)
        * cyclotomic(1)
        * cyclotomic(6) ** 2
        * parse_laurent("t - 2") ** 2
        * parse_laurent("2t^2 + t + 5")
    )

    @staticmethod
    def replace(factors, old, new):
        return tuple((new if p == old else p, m) for p, m in factors)

    @pytest.mark.parametrize(
        "mutate",
        [
            # a dropped Phi_d
            lambda fs, sign: (tuple((p, m) for p, m in fs if p != cyclotomic(6)), sign),
            lambda fs, sign: (tuple((p, m) for p, m in fs if p != cyclotomic(1)), sign),
            # a wrong multiplicity
            lambda fs, sign: (tuple((p, m + (p == cyclotomic(6))) for p, m in fs), sign),
            lambda fs, sign: (tuple((p, m - (p == parse_laurent("t - 2"))) for p, m in fs), sign),
            # a wrong non-cyclotomic factor
            lambda fs, sign: (TestSelfChecks.replace(fs, parse_laurent("t - 2"), parse_laurent("t - 3")), sign),
            lambda fs, sign: (TestSelfChecks.replace(fs, ONE * 3, ONE * 5), sign),
            # a wrong sign
            lambda fs, sign: (fs, -sign),
        ],
        ids=["drop-phi6", "drop-phi1", "phi6-mult", "linear-mult", "linear", "constant", "sign"],
    )
    def test_mutated_factors_fail_the_check(self, monkeypatch, mutate):
        fac = factor(self.MIXED)
        assert {p.d for p, _ in fac.factors if isinstance(p, laurent.Cyclotomic)} == {1, 6}
        assert fac.sign == -1 and fac.exponent == -3
        assert fac.expand() == self.MIXED
        factors, sign = mutate(fac.factors, fac.sign)
        assert (factors, sign) != (fac.factors, fac.sign)
        assert laurent.Factorization(sign, fac.exponent, factors).expand() != self.MIXED

        # factor's own check, handed the mutated answer; a function, not a
        # subclass, so no test-made record type outlives the test
        real = laurent.Factorization

        def mutated(sign, exponent, factors):
            factors, sign = mutate(factors, sign)
            return real(sign, exponent, factors)

        monkeypatch.setattr(laurent, "Factorization", mutated)
        with pytest.raises(InternalCheckError, match="must reproduce the input"):
            factor(self.MIXED)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda sign, exponent, fs: (sign, exponent, fs[:-1]),
            lambda sign, exponent, fs: (sign, exponent, fs[:-1] + ((fs[-1][0], fs[-1][1] + 1),)),
            lambda sign, exponent, fs: (-sign, exponent, fs),
            lambda sign, exponent, fs: (sign, exponent - 1, fs),
        ],
        ids=["drop", "mult", "sign", "shift"],
    )
    def test_mutated_cyclotomic_answer_fails_the_check(self, monkeypatch, mutate):
        # Delta of T(5,7) is Phi_35 alone: the screen's candidates claim the
        # whole degree, so the check of their answer runs first; mutated, it
        # fails there and again after the divisions, where it raises
        f = torus_alexander(5, 7)
        assert factor(f).factors == ((cyclotomic(35), 1),)
        real = laurent.Factorization
        monkeypatch.setattr(laurent, "Factorization", lambda *fields: real(*mutate(*fields)))
        with pytest.raises(InternalCheckError, match="must reproduce the input"):
            factor(f)

    @pytest.mark.parametrize(
        "f, wrong",
        [
            (torus_alexander(5, 7), [(7, 4)]),
            (torus_alexander(5, 7) * torus_alexander(2, 3), [(6, 1), (7, 4)]),
            (torus_alexander(5, 7) * torus_alexander(2, 3), [(2, 2), (35, 1)]),
        ],
        ids=["phi7", "phi6-phi7", "phi2-phi35"],
    )
    def test_wrong_candidates_claiming_the_degree_are_not_returned(self, monkeypatch, f, wrong):
        # a screen that names the wrong indices with the whole degree between
        # them: the check refuses that answer, and the divisions find the
        # right one
        expected = factor(f)
        assert sum(m * laurent.totient(d) for d, m in wrong) == f.breadth
        screen = laurent._cyclotomic_screen
        monkeypatch.setattr(laurent, "_cyclotomic_screen", lambda F, divide: screen(F, divide) if divide else (F, wrong))
        assert factor(f) == expected

    def test_check_is_the_same_through_either_route(self):
        # the same factors as plain polynomials all go through the Kronecker
        # product, and expand to the same polynomial
        rng = random.Random(7070)
        for _ in range(100):
            f = oracles.random_factor_product(rng)
            for d in rng.sample(range(1, 31), 2):
                f = f * cyclotomic(d) ** rng.randint(0, 2)
            fac = factor(f)
            assert all(p == cyclotomic(p.d) for p, _ in fac.factors if isinstance(p, laurent.Cyclotomic))
            plain = tuple((laurent._poly(p._c), m) for p, m in fac.factors)
            assert not any(isinstance(p, laurent.Cyclotomic) for p, _ in plain)
            assert fac.expand() == laurent.Factorization(fac.sign, fac.exponent, plain).expand() == f

    def test_factor_t30030_minus_1_within_budget(self):
        divisors = [d for d in range(1, 30031) if 30030 % d == 0]
        with oracles.budget(6.0, "factoring t^30030 - 1"):
            fac = factor(parse_laurent("t^30030 - 1"))
        assert dict(fac.factors) == {laurent._cyclotomic(d): 1 for d in divisors}

    def test_expand_t30030_minus_1_within_budget(self):
        # its 64 cyclotomic factors multiply back through the binomials, where
        # one Kronecker product of all of them took seconds
        f = parse_laurent("t^30030 - 1")
        fac = factor(f)
        with oracles.budget(0.5, "expanding the factorization of t^30030 - 1"):
            assert fac.expand() == f

    def test_families_take_no_kronecker_product_of_two_parts(self, monkeypatch):
        # every factor of J and J' is cyclotomic: factor, its check and the
        # bound multiply by binomials, and _dproduct sees at most the sign;
        # fox_milnor forms one product of two parts, w * w-bar
        deltas = [knots.alexander(knots.family(name, n))
                  for name, n in [("J", 8), ("J", 9), ("J", 10), ("Jprime", 9), ("Jprime", 10)]]
        lengths = []
        product = laurent._dproduct
        monkeypatch.setattr(laurent, "_dproduct", lambda parts: lengths.append(len(parts)) or product(parts))
        for delta in deltas:
            lengths.clear()
            assert gsp_lower_bound(delta) == 0
            factor(delta)
            assert lengths and max(lengths) <= 1
            lengths.clear()
            assert fox_milnor(delta).passes
            assert max(lengths) == 2 and lengths.count(2) == 1

    def test_moebius_exponents_are_held_up_to_a_fixed_bound(self):
        laurent._moebius_exponents.cache_clear()
        laurent._cyclotomic_at.cache_clear()
        assert len(factor(parse_laurent("t^5000 - 1")).factors) == 20
        info = laurent._moebius_exponents.cache_info()
        assert info.maxsize == laurent.MOEBIUS_EXPONENT_CACHE
        assert info.misses > info.currsize == laurent.MOEBIUS_EXPONENT_CACHE


class TestFactor:
    def test_trefoil_is_cyclotomic_6(self):
        fac = factor(torus_alexander(2, 3))
        assert fac.factors == ((cyclotomic(6), 1),)

    def test_torus_3_5_is_cyclotomic_15(self):
        fac = factor(torus_alexander(3, 5))
        assert fac.factors == ((cyclotomic(15), 1),)

    def test_square_of_irreducible(self):
        fac = factor(TREFOIL * TREFOIL)
        assert fac.factors == ((cyclotomic(6), 2),)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            factor(LaurentPolynomial())

    def test_content_and_unit(self):
        fac = factor(parse_laurent("-6t^2 + 6t^4"))  # -6 t^2 (1 - t^2)
        assert fac.expand() == parse_laurent("-6t^2 + 6t^4")
        constants = [p for p, _ in fac.factors if p.breadth == 0]
        assert sorted(c.leading_coeff for c in constants) == [2, 3]

    def test_torus_alexander_factors_into_predicted_cyclotomics(self):
        # Delta of T(p,q) = product of Phi_d over d | pq, d not dividing p or q
        for p, q in oracles.coprime_pairs(35):
            fac = factor(torus_alexander(p, q))
            expected = {
                cyclotomic(d)
                for d in range(1, p * q + 1)
                if p * q % d == 0 and p % d != 0 and q % d != 0
            }
            assert {f for f, _ in fac.factors} == expected
            assert all(m == 1 for _, m in fac.factors)
            assert fac.multiplicity(cyclotomic(p * q)) == 1

    def test_roundtrip_on_random_products(self):
        rng = random.Random(2024)
        for _ in range(1000):
            f = oracles.random_factor_product(rng)
            fac = factor(f)
            assert fac.expand() == f
            for p, _ in fac.factors:
                if p.breadth > 0:
                    assert p == p.canonical()
                else:
                    assert p.leading_coeff > 1  # prime integer factor

    def test_cyclotomic_index_beyond_three_times_breadth(self):
        # phi(210) = 48, so 210 lies above 3 * breadth = 144
        phi = cyclotomic(210)
        assert factor(phi).factors == ((phi, 1),)
        linear = parse_laurent("3 + 2t")
        assert factor(phi * linear).factors == ((linear, 1), (phi, 1))

    def test_cli_factors_cyclotomic_210(self, capsys):
        phi = cyclotomic(210)
        assert run(["factor", format_laurent(phi)]) == 0
        rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        assert [value for key, value in rows if key == "factor"] == [f"({format_laurent(phi)})^1"]

    def test_splitter_returns_an_integer_root(self):
        quadratic = parse_laurent("7 + t + t^2")
        assert factor(quadratic).factors == ((quadratic, 1),)
        assert factor(parse_laurent("t - 2") * quadratic).factors == (
            (parse_laurent("-2 + t"), 1),
            (quadratic, 1),
        )

    def test_splitter_finds_a_repeated_non_integer_root(self):
        quadratic = parse_laurent("7 + t + t^2")
        linear = parse_laurent("1 + 3t")
        assert factor(linear * quadratic).factors == ((linear, 1), (quadratic, 1))
        assert factor(linear**2 * quadratic).factors == ((linear, 2), (quadratic, 1))

    @pytest.mark.parametrize(
        "text",
        [
            "1 + 2t^3 + 5t^7 - 3t^11 + 7t^13",
            "t^12 + 3t^7 - t^5 + 2",
            "t^60 + t + 1",
            "t^4 - t + 21621600",
            "t^4 + 3t + 100000000000000000039",
        ],
    )
    def test_sparse_and_large_constant_irreducibles(self, text):
        f = parse_laurent(text)
        with oracles.budget(2.0, f"factoring {text}"):
            assert factor(f).factors == ((f, 1),)

    def test_linear_factor_beside_a_quartic_with_many_divisors(self):
        linear = parse_laurent("-7 + t")
        quartic = parse_laurent("21621600 - t + t^4")
        with oracles.budget(2.0, "factoring (t - 7)(t^4 - t + 21621600)"):
            assert factor(linear * quartic).factors == ((linear, 1), (quartic, 1))

    def test_trinomial_with_a_cyclotomic_factor(self):
        f = parse_laurent("t^20 + t + 1")
        cofactor = oracles.exact_quotient(f, cyclotomic(3))
        assert cofactor.breadth == 18
        with oracles.budget(2.0, "factoring t^20 + t + 1"):
            assert factor(f).factors == ((cyclotomic(3), 1), (cofactor, 1))

    def test_cli_factors_a_sparse_irreducible(self, capsys):
        with oracles.budget(2.0, "knotobs factor t^12 + 3t^7 - t^5 + 2"):
            assert run(["factor", "t^12 + 3t^7 - t^5 + 2"]) == 0
        rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        assert [value for key, value in rows if key == "factor"] == [
            f"({format_laurent(parse_laurent('2 - t^5 + 3t^7 + t^12'))})^1"
        ]

    def test_swinnerton_dyer_is_irreducible(self):
        # S_4 splits into 8 quadratics modulo every prime, so every subset
        # of up to 4 of them is tried and none divides
        s4 = oracles.swinnerton_dyer([2, 3, 5, 7])
        assert s4.coeffs == {
            0: 46225, 2: -5596840, 4: 13950764, 6: -7453176, 8: 1513334,
            10: -141912, 12: 6476, 14: -136, 16: 1,
        }
        with oracles.budget(2.0, "factoring S_4"):
            assert factor(s4).factors == ((s4, 1),)

    def test_products_of_known_irreducibles(self):
        rng = random.Random(1313)
        s4 = oracles.swinnerton_dyer([2, 3, 5, 7])
        for _ in range(60):
            pool = [oracles.random_eisenstein(rng) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                pool[-1] = s4
            expected = {}
            f = ONE
            for p in pool:
                m = rng.randint(1, 2)
                expected[p] = expected.get(p, 0) + m
                f = f * p**m
            assert dict(factor(f).factors) == expected

    def test_recombination_beyond_the_limit_is_refused_at_once(self, monkeypatch):
        # S_5 splits into 16 quadratics mod 19, its first good prime, so
        # recombination may try the subsets of up to 8 of them
        s5 = oracles.swinnerton_dyer([2, 3, 5, 7, 11])
        subsets = sum(math.comb(16, s) for s in range(1, 9))
        monkeypatch.setattr(laurent, "MAX_RECOMBINATIONS", subsets)
        assert factor(s5).factors == ((s5, 1),)
        monkeypatch.setattr(laurent, "MAX_RECOMBINATIONS", subsets - 1)
        with oracles.budget(2.0, "refusing the recombination of S_5"):
            with pytest.raises(FactorizationComplexityError, match=f"{subsets} subsets"):
                factor(s5)
            assert run(["factor", format_laurent(s5)]) == 1

    def test_many_linear_factors_leave_no_recombination(self):
        # 22 factors mod 23 would pass the recombination limit, but each is
        # a true factor and leaves in the pass over single factors
        linears = [parse_laurent(f"t - {a}") for a in range(2, 24)]
        f = ONE
        for p in linears:
            f = f * p
        with oracles.budget(2.0, "factoring (t - 2) ... (t - 23)"):
            assert dict(factor(f).factors) == dict.fromkeys(linears, 1)

    def test_large_prime_content_is_refused_at_once(self, capsys):
        # 10^14 - 27 is prime and at most the bound squared: it answers
        big = parse_laurent("99999999999973 + 99999999999973t")
        with oracles.budget(3.0, "factoring content 99999999999973"):
            assert dict(factor(big).factors) == {
                LaurentPolynomial.monomial(99999999999973, 0): 1,
                parse_laurent("1 + t"): 1,
            }
        # 10^20 + 39 is a prime above the bound squared
        huge = "100000000000000000039 + 100000000000000000039t"
        with oracles.budget(3.0, "refusing content 100000000000000000039"):
            with pytest.raises(ValidationError, match="content"):
                factor(parse_laurent(huge))
        with oracles.budget(3.0, "knotobs factor with content 100000000000000000039"):
            assert run(["factor", huge]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_quadratic_whose_constant_has_many_divisors_is_irreducible(self):
        # 21621600 = 2^5 3^3 5^2 7 11 13 has 576 divisors: a search over the
        # divisors of the coefficients or values would be large
        quadratic = parse_laurent("21621600 - t + t^2")
        with oracles.budget(2.0, "factoring t^2 - t + 21621600"):
            assert factor(quadratic).factors == ((quadratic, 1),)

    def test_linear_factor_beside_a_constant_with_many_divisors(self):
        linear = parse_laurent("-2 + 3t")
        cubic = parse_laurent("21621600 - t + t^3")
        with oracles.budget(2.0, "factoring (3t - 2)(t^3 - t + 21621600)"):
            assert factor(linear * cubic).factors == ((linear, 1), (cubic, 1))

    def test_cyclotomic_factor_above_the_dense_limit(self, monkeypatch):
        # factor builds a Phi_d that divides its input without the index check
        phi = cyclotomic(105)
        monkeypatch.setattr(errors, "MAX_DENSE_BREADTH", 100)
        assert phi.breadth == 48
        assert factor(phi).factors == ((phi, 1),)
        with pytest.raises(ValidationError):
            cyclotomic(105)

    def test_cyclotomic_builder_past_the_index_limit(self):
        # phi(120120) = 23040 fits the dense limit though the index does not
        with pytest.raises(ValidationError):
            cyclotomic(120120)
        assert laurent._cyclotomic(120120) == oracles.substitute_power(cyclotomic(30030), 4)

    def test_exact_div(self):
        # the quotient oracle the witness and cofactor tests divide by
        assert oracles.exact_quotient(TREFOIL * TREFOIL, TREFOIL) == TREFOIL
        with pytest.raises(ArithmeticError):
            oracles.exact_quotient(TREFOIL, parse_laurent("1 + t"))


class TestFoxMilnor:
    def test_slice_sum_passes_with_witness(self):
        res = fox_milnor(TREFOIL * TREFOIL)
        assert res.passes
        assert res.witness == cyclotomic(6)

    def test_trefoil_fails_odd_multiplicity(self):
        res = fox_milnor(TREFOIL)
        assert not res.passes
        assert res.witness is None
        assert any("odd multiplicity" in v for v in res.violations)

    def test_stevedore_style_polynomial(self):
        res = fox_milnor(parse_laurent("2*t^-1 + -5*t^0 + 2*t^1"))
        assert res.passes
        assert res.witness == parse_laurent("-1 + 2t")

    def test_normalization_required(self):
        # f(1) is the sum of the coefficients, whatever the least exponent
        for text, value in [("1 + t", 2), ("t^-2 - t^3", 0), ("-2t^-1 - 1", -3)]:
            with pytest.raises(NormalizationError) as exc:
                fox_milnor(parse_laurent(text))
            assert str(exc.value) == f"normalization required: f(1) = {value}, expected +-1"

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            fox_milnor(LaurentPolynomial())

    def test_passes_on_f_times_reciprocal_random(self):
        rng = random.Random(555)
        for _ in range(200):
            f = oracles.random_normalized_poly(rng)
            res = fox_milnor(f * f.reciprocal())
            assert res.passes
            w = res.witness
            ratio = oracles.exact_quotient(f * f.reciprocal(), w * w.reciprocal())
            assert ratio.breadth == 0 and abs(ratio.leading_coeff) == 1

    def test_witness_with_cyclotomic_and_other_parts(self):
        # Phi_d(1) = 1 unless d is 1 or a prime power, so f stays normalized
        composite = [6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 26, 28, 30]
        rng = random.Random(7171)
        for _ in range(100):
            g = oracles.random_normalized_poly(rng, max_breadth=6)
            f = g * g.reciprocal()
            for d in rng.sample(composite, 2):
                f = f * cyclotomic(d) ** (2 * rng.randint(0, 2))
            res = fox_milnor(f)
            assert res.passes
            product = res.witness * res.witness.reciprocal()
            assert product.canonical() == f.canonical()

    def test_asymmetric_pair_multiplicity_fails(self):
        f = parse_laurent("-1 + 2t") ** 2 * parse_laurent("-2 + t")
        assert f.evaluate(1) in (1, -1)
        res = fox_milnor(f)
        assert not res.passes
        assert any("reciprocal partner" in v for v in res.violations)


class TestGspLowerBound:
    def test_torus_3_5(self):
        assert gsp_lower_bound(torus_alexander(3, 5)) == 4

    def test_even_multiplicity_gives_zero(self):
        assert gsp_lower_bound(TREFOIL * TREFOIL) == 0

    def test_trefoil(self):
        assert gsp_lower_bound(torus_alexander(2, 3)) == 1

    def test_reciprocal_pair_factors_do_not_obstruct(self):
        # slice polynomial of norm form: bound must stay 0
        assert gsp_lower_bound(parse_laurent("2*t^-1 + -5*t^0 + 2*t^1")) == 0

    def test_slice_summands_do_not_raise_the_bound(self):
        rng = random.Random(99)
        for _ in range(60):
            f = torus_alexander(*rng.choice(oracles.SMALL_TORUS))
            g = oracles.random_normalized_poly(rng, max_breadth=6)
            assert gsp_lower_bound(f * g * g.reciprocal()) == gsp_lower_bound(f)


class TestTextFormat:
    def test_canonical_format(self):
        assert format_laurent(TREFOIL) == "1*t^-1 + -1*t^0 + 1*t^1"

    def test_parse_whitespace_and_bare_forms(self):
        assert parse_laurent(" 1*t^-1+-1*t^0+1*t^1 ") == TREFOIL
        assert parse_laurent("t^-1 - 1 + t") == TREFOIL
        assert parse_laurent("5") == LaurentPolynomial.monomial(5, 0)
        assert parse_laurent("-3t^2") == LaurentPolynomial.monomial(-3, 2)

    def test_roundtrip_random(self):
        rng = random.Random(31)
        for _ in range(300):
            f = oracles.random_laurent(rng)
            assert parse_laurent(format_laurent(f)) == f

    def test_parse_garbage_rejected(self):
        for bad in ("", "t^", "x + 1", "1**t", "t^1.5"):
            with pytest.raises(ParseError):
                parse_laurent(bad)


class TestReciprocal:
    def test_partner_of_partner(self):
        rng = random.Random(17)
        for _ in range(100):
            f = oracles.random_laurent(rng).canonical()
            if f.is_zero:
                continue
            assert reciprocal_partner(reciprocal_partner(f)) == f

    def test_self_reciprocal_cyclotomics(self):
        for n in (1, 2, 3, 6, 12, 15):
            c = cyclotomic(n)
            assert reciprocal_partner(c) == c
