"""Signature jump functions, the Seifert-matrix oracle, and their agreement."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from knotobs.errors import (
    AmbiguousSignatureError,
    JumpEvaluationError,
    UnsupportedExpressionError,
    ValidationError,
)
from knotobs.knots import (
    UNKNOT,
    cable,
    family,
    mirror,
    parse_knot,
    sum_of,
    torus,
    wh,
)
from knotobs.jumps import MAX_JUMPS
from knotobs.signature import (
    EMPTY_JUMPS,
    JumpFunction,
    SeifertMatrix,
    closes_to_knot,
    expression_jumps,
    numeric_signature,
    seifert_from_braid,
    signature_at,
    torus_braid_word,
    torus_independence_certificate,
    torus_jumps,
    _pfaffian_is_unit,
)


class TestJumpFunction:
    def test_validation(self):
        with pytest.raises(ValidationError):
            JumpFunction({Fraction(1, 6): -2})  # missing conjugate partner
        with pytest.raises(ValidationError, match="antisymmetry fails at 1/6: -2 vs -2"):
            JumpFunction({Fraction(1, 6): -2, Fraction(5, 6): -2})  # partner of the same sign
        with pytest.raises(ValidationError):
            JumpFunction({Fraction(1, 6): -1, Fraction(5, 6): 1})  # odd jumps
        with pytest.raises(ValidationError):
            JumpFunction({Fraction(3, 2): 2})  # outside (0,1)

    def test_total_jump_vanishes(self):
        for p, q in oracles.SMALL_TORUS:
            assert sum(torus_jumps(p, q).jumps.values()) == 0

    def test_one_form_per_function(self):
        # the common denominator is reduced, so equal functions have equal
        # hashes however they were built
        trefoil = torus_jumps(2, 3)
        cancelled = expression_jumps(parse_knot("T(2,3) # -T(2,3)"))
        assert cancelled == EMPTY_JUMPS and hash(cancelled) == hash(EMPTY_JUMPS)
        assert trefoil + (-trefoil) == EMPTY_JUMPS
        reduced = expression_jumps(parse_knot("T(2,3) # T(3,4) # -T(3,4)"))
        assert reduced == trefoil and hash(reduced) == hash(trefoil)
        for p, q in oracles.SMALL_TORUS:
            built = JumpFunction(oracles.litherland_jumps(p, q))
            assert built == torus_jumps(p, q) and hash(built) == hash(torus_jumps(p, q))
        assert trefoil.scale(0) == EMPTY_JUMPS

    def test_step_at_outside_unit_interval(self):
        for x in (Fraction(3, 2), 0, 1, Fraction(-1, 6)):
            with pytest.raises(ValidationError, match=f"evaluation point {x} outside"):
                signature_at(torus(2, 3), x)

    def test_step_function_even(self):
        pts = sorted(torus_jumps(3, 5).support)
        for a, b in zip(pts, pts[1:]):
            mid = (a + b) / 2
            assert signature_at(torus(3, 5), mid) % 2 == 0


class TestTorusJumps:
    def test_trefoil(self):
        assert torus_jumps(2, 3).jumps == {Fraction(1, 6): -2, Fraction(5, 6): 2}

    def test_3_4_from_hand_enumeration(self):
        # S = {7,10,11,13,14,17}/12; below 1 -> +2, above 1 shifts down -> -2
        expected = {
            Fraction(1, 12): -2,
            Fraction(2, 12): -2,
            Fraction(5, 12): -2,
            Fraction(7, 12): 2,
            Fraction(10, 12): 2,
            Fraction(11, 12): 2,
        }
        assert torus_jumps(3, 4).jumps == expected

    def test_3_5_has_primitive_jump_points(self):
        jf = torus_jumps(3, 5)
        assert Fraction(1, 15) in jf.jumps and Fraction(14, 15) in jf.jumps

    def test_count_and_shape(self):
        for p, q in oracles.coprime_pairs(35):
            jf = torus_jumps(p, q)
            assert len(jf.jumps) == (p - 1) * (q - 1)
            for x, j in jf.jumps.items():
                assert abs(j) == 2
                d = x.denominator
                assert (p * q) % d == 0 and p % d != 0 and q % d != 0
                k = x.numerator * (p * q // d)  # numerator over denominator pq
                assert k % p != 0 and k % q != 0

    def test_jump_support_lies_on_alexander_roots(self):
        # jump points must be arguments of unit-circle roots: k/(pq) reduced
        # fractions whose denominator divides pq but not p or q
        from knotobs.laurent import cyclotomic, torus_alexander

        for p, q in oracles.coprime_pairs(35):
            delta = torus_alexander(p, q)
            for x in torus_jumps(p, q).support:
                d = x.denominator
                # e^{2 pi i x} is a primitive d-th root; it is an Alexander
                # root iff Phi_d divides Delta
                oracles.exact_quotient(delta, cyclotomic(d))

    def test_matches_litherland_oracle(self):
        for p, q in oracles.coprime_pairs(300):
            assert torus_jumps(p, q).jumps == oracles.litherland_jumps(p, q), (p, q)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            torus_jumps(2, 4)
        with pytest.raises(ValidationError):
            torus_jumps(1, 5)
        with pytest.raises(ValidationError, match="dense polynomial limit"):
            torus_jumps(1009, 1013)


class TestExpressionJumps:
    def test_J2_cancels_exactly(self):
        assert expression_jumps(family("J", 2)) == EMPTY_JUMPS

    def test_whitehead_trivial(self):
        assert expression_jumps(wh(torus(2, 3))) == EMPTY_JUMPS

    def test_additivity_doubles(self):
        jf = expression_jumps(sum_of(torus(2, 3), torus(2, 3)))
        assert jf.jumps == {Fraction(1, 6): -4, Fraction(5, 6): 4}

    def test_homomorphism_random(self):
        rng = random.Random(303)
        for _ in range(300):
            k1 = oracles.random_expression(rng, depth=2, signature_safe=True)
            k2 = oracles.random_expression(rng, depth=2, signature_safe=True)
            assert expression_jumps(sum_of(k1, k2)) == expression_jumps(k1) + expression_jumps(k2)
            assert expression_jumps(mirror(k1)) == -expression_jumps(k1)

    def test_signed_sums_match_litherland_oracle(self):
        rng = random.Random(909)
        pairs = oracles.coprime_pairs(60)
        for _ in range(100):
            terms = [(*rng.choice(pairs), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))]
            knot = sum_of(*(torus(p, q) if s > 0 else mirror(torus(p, q)) for p, q, s in terms))
            assert expression_jumps(knot).jumps == oracles.signed_litherland_jumps(terms), terms

    def test_cable_of_nontrivial_companion_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            expression_jumps(cable(torus(2, 3), 2, 5))

    def test_cable_jumps_build_no_polynomial(self, monkeypatch):
        from knotobs import laurent

        def refuse(p, q):
            raise AssertionError(f"built the Alexander polynomial of T({p},{q})")

        monkeypatch.setattr(laurent, "torus_alexander", refuse)
        jf = expression_jumps(parse_knot("Cable(Wh(T(2,3));313,317)"))
        assert jf == torus_jumps(313, 317)
        with pytest.raises(UnsupportedExpressionError, match="winding -3 <= -2"):
            expression_jumps(parse_knot("Cable(Wh(T(2,3));2,-3)"))

    def test_L_family_silent(self):
        for n in range(2, 6):
            assert expression_jumps(family("L", n)) == EMPTY_JUMPS


class TestTopOfDenseRange:
    """T(313,317) has pq = 99221, just under laurent.MAX_DENSE_BREADTH."""

    def test_torus_jumps_within_budget(self):
        with oracles.budget(5.0, "torus_jumps(313, 317)"):
            jf = torus_jumps(313, 317)
        assert len(jf.support) == 312 * 316
        assert signature_at(torus(313, 317), Fraction(1, 2)) % 2 == 0

    def test_signed_sum_within_budget(self):
        with oracles.budget(5.0, "expression_jumps(T(313,317) # -T(311,317))"):
            jf = expression_jumps(parse_knot("T(313,317) # -T(311,317)"))
        # every jump of T(p,q) sits at a reduced fraction with denominator pq,
        # so the two summands share no jump point and nothing cancels
        jumps = jf.jumps
        assert len(jumps) == 312 * 316 + 310 * 316
        assert sum(jumps.values()) == 0

    def test_sum_past_jump_limit_refused_at_once(self):
        # 312*316 + 310*316 + 306*316 jumps pass MAX_JUMPS before any merge
        with oracles.budget(2.0, "three top-range summands"):
            with pytest.raises(ValidationError, match=f"limit {MAX_JUMPS}"):
                expression_jumps(parse_knot("T(313,317) # T(311,317) # T(307,317)"))


class TestSignatureAt:
    def test_trefoil(self):
        assert signature_at(torus(2, 3), Fraction(1, 2)) == -2

    def test_2_5(self):
        assert signature_at(torus(2, 5), Fraction(1, 2)) == -4

    def test_unknot(self):
        for x in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10)):
            assert signature_at(UNKNOT, x) == 0

    def test_jump_point_reports_both_limits(self):
        with pytest.raises(JumpEvaluationError) as exc:
            signature_at(torus(2, 3), Fraction(1, 6))
        assert exc.value.left == 0 and exc.value.right == -2

    @staticmethod
    def assert_counts_match(knot, jumps: dict, points=()):
        """signature_at of knot against the oracle's jumps summed below x:
        both limits at each jump, the value at each of `points` that is no
        jump, and the value at each midpoint between consecutive points."""
        cuts = sorted({Fraction(0), Fraction(1), *jumps, *points})
        left = 0
        for a, b in zip(cuts, cuts[1:]):
            if a:
                j = jumps.get(a, 0)
                if j:
                    with pytest.raises(JumpEvaluationError) as exc:
                        signature_at(knot, a)
                    assert (exc.value.point, exc.value.left, exc.value.right) == (a, left, left + j)
                else:
                    assert signature_at(knot, a) == left, a
                left += j
            assert signature_at(knot, (a + b) / 2) == left, (a + b) / 2
        assert left == 0

    def test_counting_matches_oracle_on_torus_knots(self):
        # a cable of Wh(T(2,3)) with p > q has the pattern T(p,q) = T(q,p)
        core = wh(torus(2, 3))
        for p in range(2, 14):
            for q in range(p + 1, 30):
                if math.gcd(p, q) == 1:
                    jumps = oracles.litherland_jumps(p, q)
                    self.assert_counts_match(torus(p, q), jumps)
                    self.assert_counts_match(cable(core, q, p), jumps)

    def test_counting_matches_oracle_on_signed_sums(self):
        # summand jumps that cancel in the sum are evaluated as points
        rng = random.Random(2828)
        pairs = oracles.coprime_pairs(60)
        core = wh(torus(2, 3))
        for _ in range(200):
            terms, summands = [], []
            for _ in range(rng.randint(1, 4)):
                p, q = rng.choice(pairs)
                sign = rng.choice((1, -1))
                kind = rng.choice(("torus", "cable", "cable-reversed"))
                terms.append((p, q, sign))
                knot = torus(p, q) if kind == "torus" else cable(core, *((p, q) if kind == "cable" else (q, p)))
                summands.append(knot if sign > 0 else mirror(knot))
            if rng.random() < 0.3:
                summands.append(rng.choice((core, cable(core, 3, 1), mirror(core))))
            points = {x for p, q, _ in terms for x in oracles.litherland_jumps(p, q)}
            self.assert_counts_match(sum_of(*summands), oracles.signed_litherland_jumps(terms), points)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # the first summand in normalized order that is refused decides
            ("T(313,317) # T(311,317) # T(307,317) # Cable(T(2,3);2,5)", UnsupportedExpressionError,
             "cable signatures are only supported over companions with trivial Alexander polynomial"),
            ("-T(313,317) # -T(311,317) # -T(307,317) # Cable(T(2,3);2,5)", ValidationError,
             f"#-sum jump count exceeds the limit {MAX_JUMPS}"),
            ("T(313,317) # T(311,317) # T(307,317) # Cable(Wh(T(2,3));2,-3)", UnsupportedExpressionError,
             "cable meridian winding -3 <= -2 has no verified convention"),
            ("-T(313,317) # -T(311,317) # -T(307,317) # Cable(Wh(T(2,3));2,-3)", ValidationError,
             f"#-sum jump count exceeds the limit {MAX_JUMPS}"),
            ("T(2,3) # T(317,331)", ValidationError,
             "torus knot product pq 104927 exceeds the dense polynomial limit 100000"),
        ],
    )
    def test_refusals_keep_their_order_and_messages(self, text, error, message):
        # the expression is refused before the point is read, as by expression_jumps
        knot = parse_knot(text)
        for route in (expression_jumps, lambda k: signature_at(k, 2), lambda k: signature_at(k, "x")):
            with pytest.raises(error) as exc:
                route(knot)
            assert type(exc.value) is error and str(exc.value) == message

    def test_top_of_torus_range_within_budget(self):
        # counting takes O(min(p, q)) steps a term where listing the 196,552
        # jumps took O(pq); 1/3 is no jump point of either summand
        knot = parse_knot("T(313,317) # -T(311,317)")
        points = [Fraction(1, 3), *(Fraction(k, 97) for k in range(1, 97))]
        with oracles.budget(1.0, "signature_at(T(313,317) # -T(311,317)) at 97 points"):
            values = [signature_at(knot, x) for x in points]
        assert values[0] == signature_at(torus(313, 317), Fraction(1, 3)) - signature_at(torus(311, 317), Fraction(1, 3))
        assert all(v % 2 == 0 for v in values)


class TestSeifertMatrix:
    def test_trefoil_matrix(self):
        V = seifert_from_braid([1, 1, 1])
        assert V.entries == ((-1, 1), (0, -1))
        assert V.genus == 1
        vvt = [[-2, 1], [1, -2]]
        assert [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(V.entries, [list(c) for c in zip(*V.entries)])] == vvt
        assert numeric_signature(V, Fraction(1, 2)) == -2

    def test_cinquefoil(self):
        V = seifert_from_braid([1, 1, 1, 1, 1])
        assert numeric_signature(V, Fraction(1, 2)) == -4

    def test_unknot_empty_matrix(self):
        V = seifert_from_braid([])
        assert V.size == 0
        assert numeric_signature(V, Fraction(1, 3)) == 0

    def test_closure_must_be_knot(self):
        assert not closes_to_knot([1, -1], 2)  # two-component unlink
        with pytest.raises(ValidationError, match="link, not a knot"):
            seifert_from_braid([1, -1])
        with pytest.raises(ValidationError, match="link, not a knot"):
            seifert_from_braid([1, 1, 3, 3, 3])  # no letter 2: a split link

    def test_letters_must_be_nonzero(self):
        with pytest.raises(ValidationError, match="nonzero"):
            seifert_from_braid([1, 0, 1, 1])

    def test_alexander_from_matrix_matches_quotient_formula(self):
        # det(V - tV^T) reproduces the Alexander polynomial up to units
        from knotobs.laurent import LaurentPolynomial, torus_alexander

        for p, q in [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5)]:
            V = seifert_from_braid(torus_braid_word(p, q))
            m = V.size
            poly = {}
            # interpolate det(V - tV^T) through m+1 points
            pts = list(range(2, m + 4))
            from fractions import Fraction as F

            def det_at(t):
                M = [
                    [F(V.entries[i][j] - t * V.entries[j][i]) for j in range(m)]
                    for i in range(m)
                ]
                # fraction Gaussian elimination
                det = F(1)
                for c in range(m):
                    piv = next((r for r in range(c, m) if M[r][c]), None)
                    if piv is None:
                        return F(0)
                    if piv != c:
                        M[c], M[piv] = M[piv], M[c]
                        det = -det
                    det *= M[c][c]
                    for r in range(c + 1, m):
                        f = M[r][c] / M[c][c]
                        for cc in range(c, m):
                            M[r][cc] -= f * M[c][cc]
                return det

            vals = [det_at(t) for t in pts[: m + 1]]
            coeffs = [F(0)] * (m + 1)
            for i, xi in enumerate(pts[: m + 1]):
                basis = [F(1)]
                denom = 1
                for j, xj in enumerate(pts[: m + 1]):
                    if i == j:
                        continue
                    new = [F(0)] * (len(basis) + 1)
                    for k, b in enumerate(basis):
                        new[k] += b * (-xj)
                        new[k + 1] += b
                    basis = new
                    denom *= xi - xj
                for k, b in enumerate(basis):
                    coeffs[k] += b * vals[i] / denom
            assert all(c.denominator == 1 for c in coeffs)
            got = LaurentPolynomial({e: int(c) for e, c in enumerate(coeffs) if c})
            assert got.canonical() == torus_alexander(p, q).canonical()

    def test_braid_letters_validated(self):
        with pytest.raises(ValidationError):
            seifert_from_braid([0, 1])


class TestIntegerDeterminant:
    """Bareiss elimination against Gaussian elimination over Fractions."""

    @staticmethod
    def cases(rng):
        for _ in range(300):
            n = rng.randint(1, 9)
            density = rng.choice([0.2, 0.5, 0.9])
            M = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            yield M
            if n > 1:
                # a zero pivot that a row swap mends, at the first or a later step
                k = rng.randrange(n - 1)
                Z = [row[:] for row in M]
                Z[k][k] = 0
                Z[rng.randrange(k + 1, n)][k] = rng.choice([-2, 1, 3])
                yield Z
                # singular: a repeated row, and a zero column
                yield M[:-1] + [M[0][:]]
                yield [row[:k] + [0] + row[k + 1 :] for row in M]

    def test_matches_fraction_elimination(self):
        rng = random.Random(2424)
        zero_pivots = singular = 0
        for M in self.cases(rng):
            before = [row[:] for row in M]
            expected = oracles.fraction_det(M)
            assert oracles.int_det(M) == expected, M
            assert M == before
            zero_pivots += M[0][0] == 0 and any(row[0] for row in M)
            singular += expected == 0
        assert zero_pivots > 100 and singular > 300


class TestPfaffianCheck:
    """The unimodularity check |Pf(V - V^T)| = 1, read from V, against
    |det(V - V^T)| = 1 by Bareiss."""

    @staticmethod
    def skew(V: list) -> list:
        n = len(V)
        return [[V[i][j] - V[j][i] for j in range(n)] for i in range(n)]

    @staticmethod
    def upper(n: int, entries: dict) -> list:
        """The n x n matrix with these entries above the diagonal: V - V^T
        has them at (i, j) and their negatives at (j, i)."""
        V = [[0] * n for _ in range(n)]
        for (i, j), x in entries.items():
            V[i][j] = x
        return V

    def test_matches_bareiss_on_random_skew_matrices(self):
        rng = random.Random(2525)
        seen = {True: 0, False: 0}
        for _ in range(3000):
            n = rng.randint(0, 12)
            density = rng.choice([0.15, 0.3, 0.6, 1.0])
            V = [[rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            before = [row[:] for row in V]
            unit = _pfaffian_is_unit(V)
            assert unit == (abs(oracles.int_det(self.skew(V))) == 1), V
            assert V == before
            seen[unit] += 1
        assert seen[True] > 300 and seen[False] > 1000

    def test_no_unit_entry(self):
        # Pf = a12 a34 - a13 a24 + a14 a23 = 4 - 9 + 6 = 1, with no entry +-1
        V = self.upper(4, {(0, 1): 2, (0, 2): 3, (0, 3): 2, (1, 2): 3, (1, 3): 3, (2, 3): 2})
        assert not any(x in (1, -1) for row in self.skew(V) for x in row)
        assert oracles.int_det(self.skew(V)) == 1 and _pfaffian_is_unit(V)
        # a12 = 4 makes Pf = 8 - 9 + 6 = 5
        five = self.upper(4, {(0, 1): 4, (0, 2): 3, (0, 3): 2, (1, 2): 3, (1, 3): 3, (2, 3): 2})
        assert oracles.int_det(self.skew(five)) == 25 and not _pfaffian_is_unit(five)

    def test_singular(self):
        # Pf = 1 * 1 - 1 * 1 + 0 = 0 with unit pivots everywhere; a zero row
        V = self.upper(4, {(0, 1): 1, (2, 3): 1, (0, 2): 1, (1, 3): 1})
        assert oracles.int_det(self.skew(V)) == 0 and not _pfaffian_is_unit(V)
        Z = self.upper(4, {(0, 1): 1, (0, 2): -1, (1, 2): 1})
        assert oracles.int_det(self.skew(Z)) == 0 and not _pfaffian_is_unit(Z)
        # a symmetric V has V - V^T = 0
        assert _pfaffian_is_unit([]) and not _pfaffian_is_unit([[5]])
        assert not _pfaffian_is_unit([[1, 2], [2, 1]])

    def test_torus_9_10_build(self):
        V = seifert_from_braid(torus_braid_word(9, 10)).entries
        assert len(V) == 72
        assert abs(oracles.int_det(self.skew(V))) == 1 and _pfaffian_is_unit(V)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((0, 1),), "Seifert matrix must be square"),
            (((0,),), "Seifert matrix of a knot has even size"),
            (((0, 0), (0, 0)), "V - V^T must be unimodular"),
            (((1, 2), (2, 1)), "V - V^T must be unimodular"),
            (((0, 3), (1, 0)), "V - V^T must be unimodular"),
        ],
    )
    def test_refusal_messages(self, entries, message):
        with pytest.raises(ValidationError) as exc:
            SeifertMatrix(entries)
        assert str(exc.value) == message


class TestOracleAgreement:
    @pytest.mark.parametrize("p,q", oracles.coprime_pairs(35))
    def test_jumps_match_seifert_signature(self, p, q):
        rng = random.Random(p * 100 + q)
        V = seifert_from_braid(torus_braid_word(p, q))
        support = set(torus_jumps(p, q).support)
        checked = 0
        while checked < 25:
            x = Fraction(rng.randint(1, 9999), 10000)
            if x in support:
                continue
            assert signature_at(torus(p, q), x) == numeric_signature(V, x)
            checked += 1

    def test_agreement_near_jump_points(self):
        # just left and right of every jump of a 24-crossing example
        V = seifert_from_braid(torus_braid_word(5, 7))
        eps = Fraction(1, 10**6)
        for x in torus_jumps(5, 7).support:
            for probe in (x - eps, x + eps):
                assert signature_at(torus(5, 7), probe) == numeric_signature(V, probe)

    def test_jump_point_raises(self):
        # the form is singular at the T(3,4) jump 1/12: an eigenvalue is zero,
        # so no sign can be certified
        V = seifert_from_braid(torus_braid_word(3, 4))
        with pytest.raises(AmbiguousSignatureError):
            numeric_signature(V, Fraction(1, 12))


class TestIndependenceCertificate:
    def test_valid_example(self):
        cert = torus_independence_certificate([(5, 7), (11, 13)], 4)
        assert cert.valid
        names = {c.name for c in cert.checks}
        assert "distinct_products" in names
        assert any(n.startswith("primitive_jump") for n in names)

    def test_repeated_product_fails_distinctness(self):
        cert = torus_independence_certificate([(5, 7), (5, 7)], 2)
        assert not cert.valid
        failed = [c.name for c in cert.checks if not c.passed]
        assert failed == ["distinct_products"]

    def test_boundary_degree_fails(self):
        cert = torus_independence_certificate([(3, 5)], 4)
        assert not cert.valid
        assert [c.name for c in cert.checks if not c.passed] == ["degree_bound[3,5]"]

    def test_non_prime_parameters_fail_degree_check(self):
        cert = torus_independence_certificate([(4, 9)], 1)
        assert not cert.valid

    def test_top_of_torus_range_within_budget(self):
        # the primitive jump is read at 1/pq by the point rule, not from a
        # list of each knot's (p-1)(q-1) jumps
        pairs = [(313, 317), (311, 317), (307, 317)]
        with oracles.budget(1.0, "20 certificates at the top of the torus range"):
            certs = [torus_independence_certificate(pairs, 2) for _ in range(20)]
        witnesses = [c.witness for c in certs[0].checks if c.name.startswith("primitive_jump")]
        assert certs[0].valid and witnesses == [f"jump -2 at 1/{p * q}" for p, q in pairs]

    def test_serialization(self):
        cert = torus_independence_certificate([(5, 7)], 2)
        doc = cert.as_dict()
        assert doc["valid"] is True
        assert doc["generators"] == [[5, 7]]
        assert all({"name", "passed", "witness"} <= set(c) for c in doc["checks"])
