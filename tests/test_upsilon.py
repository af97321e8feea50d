"""Piecewise linear Upsilon calculus: torus knots, germs, obstructions."""

import random
from fractions import Fraction

import pytest

import oracles
from knotobs import laurent, upsilon
from knotobs.errors import (
    InsufficientDataError,
    UnsupportedExpressionError,
    ValidationError,
)
from knotobs.knots import mirror, parse_knot, torus, wh
from knotobs.upsilon import (
    PiecewiseLinearFunction,
    jprime_germ,
    obstruct_Gn,
    oss_hom,
    summand_certificate_upsilon,
    upsilon_of_expression,
    upsilon_torus,
)

F = Fraction


def random_pl_pool(rng, count):
    """Random integer combinations of torus Upsilon functions."""
    out = []
    for _ in range(count):
        f = PiecewiseLinearFunction({})
        for _ in range(rng.randint(1, 3)):
            g = upsilon_torus(*rng.choice(oracles.SMALL_TORUS))
            f = f + g.scale(rng.randint(-3, 3))
        out.append(f)
    return out


class TestPiecewiseLinear:
    def test_domain_enforced(self):
        # slope jumps live on [0,2); U' = 0 before 0 and nothing follows 2
        for t in (F(-1, 3), F(2), F(3)):
            with pytest.raises(ValidationError):
                PiecewiseLinearFunction({t: 1})

    def test_add_negate_cancel(self):
        u = upsilon_torus(2, 3)
        assert u + (-u) == PiecewiseLinearFunction({})

    def test_scale_example(self):
        doubled = upsilon_torus(2, 3).scale(2)
        assert doubled.breakpoints() == ((0, 0), (1, -2), (2, 0))
        assert doubled.value(F(1, 2)) == -1

    def test_canonical_form_one_graph_one_form(self):
        # the hull of T(2,5) and the sum of two trefoils reach one graph
        summed = upsilon_of_expression(parse_knot("T(2,3) # T(2,3)"))
        assert upsilon_torus(2, 5) == summed
        assert hash(upsilon_torus(2, 5)) == hash(summed)

    def test_breakpoints_agree_with_value(self):
        for f in random_pl_pool(random.Random(14), 30):
            points = f.breakpoints()
            assert points[0] == (0, 0) and points[-1][0] == 2
            assert [t for t, _ in points[1:-1]] == list(f.singularities())
            assert all(f.value(t) == v for t, v in points)

    def test_add_commutative_associative_random(self):
        rng = random.Random(11)
        fs = random_pl_pool(rng, 60)
        for i in range(0, 60, 3):
            a, b, c = fs[i], fs[i + 1], fs[i + 2]
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)

    def test_evaluation_against_breakpoint_interpolation(self):
        u = upsilon_torus(3, 4)
        assert u.value(F(1, 3)) == -1
        assert u.value(1) == -2
        assert u.value(F(5, 3)) == -1


class TestDeltaPrime:
    def test_trefoil_at_1(self):
        assert upsilon_torus(2, 3).delta_prime(1) == 2

    def test_interior_of_linear_piece(self):
        assert upsilon_torus(2, 3).delta_prime(F(1, 2)) == 0

    def test_additive_random(self):
        rng = random.Random(12)
        fs = random_pl_pool(rng, 40)
        points = [F(1, 3), F(2, 3), F(1), F(4, 3), F(7, 5)]
        for i in range(0, 40, 2):
            a, b = fs[i], fs[i + 1]
            for t in points:
                assert (a + b).delta_prime(t) == a.delta_prime(t) + b.delta_prime(t)


class TestStaircase:
    """The staircase route, kept in the oracles as the reference for
    upsilon_torus."""

    def test_trefoil(self):
        s = oracles.staircase_from_alexander(laurent.torus_alexander(2, 3))
        assert s.corners == ((0, 1), (1, 0))

    def test_T34(self):
        s = oracles.staircase_from_alexander(laurent.torus_alexander(3, 4))
        assert s.corners == ((0, 3), (1, 1), (3, 0))

    def test_T27(self):
        s = oracles.staircase_from_alexander(laurent.torus_alexander(2, 7))
        assert s.corners == ((0, 3), (1, 2), (2, 1), (3, 0))

    def test_rejects_non_alternating(self):
        with pytest.raises(ValueError):
            oracles.staircase_from_alexander(laurent.parse_laurent("t^-1 - 3 + t"))
        with pytest.raises(ValueError):
            oracles.staircase_from_alexander(laurent.torus_alexander(2, 3) ** 2)

    def test_corner_invariants(self):
        for p, q in oracles.coprime_pairs(63):
            s = oracles.staircase_from_alexander(laurent.torus_alexander(p, q))
            g = (p - 1) * (q - 1) // 2
            assert s.genus == g
            assert s.corners[0] == (0, g) and s.corners[-1] == (g, 0)
            assert {(j, i) for i, j in s.corners} == set(s.corners)
            assert all(abs(i - j) <= g for i, j in s.corners)

    def test_invalid_corner_data_rejected(self):
        with pytest.raises(ValidationError):
            oracles.Staircase(((0, 2), (1, 0)))  # asymmetric


class TestUpsilonTorus:
    def test_trefoil_exact(self):
        assert upsilon_torus(2, 3).breakpoints() == ((0, 0), (1, -1), (2, 0))

    def test_T34_exact(self):
        assert upsilon_torus(3, 4).breakpoints() == ((0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0))

    def test_T34_first_singularity(self):
        assert upsilon_torus(3, 4).singularities()[0] == F(2, 3)

    def test_T27_first_singularity(self):
        assert upsilon_torus(2, 7).singularities() == (F(1),)

    def test_slope_at_zero_is_minus_genus(self):
        for p, q in oracles.coprime_pairs(63):
            u = upsilon_torus(p, q)
            assert u.slope_right(0) == -F((p - 1) * (q - 1), 2)

    def test_reflection_symmetry(self):
        for p, q in oracles.coprime_pairs(63):
            u = upsilon_torus(p, q)
            assert u.reflected() == u

    def test_singularities_respect_genus_bound(self):
        for p, q in oracles.coprime_pairs(63):
            u = upsilon_torus(p, q)
            g = (p - 1) * (q - 1) // 2
            for t in u.singularities():
                assert oracles.min_genus_from_singularity(t.numerator, t.denominator) <= g

    def test_oss_hom_integral_at_singularities(self):
        for p, q in oracles.coprime_pairs(63):
            u = upsilon_torus(p, q)
            for t in u.singularities():
                v = oss_hom(u, t.numerator, t.denominator)
                assert v.denominator == 1

    def test_matches_semigroup_oracle(self):
        # the oracle lines never exceed U at its breakpoints, and each segment
        # of U lies on one oracle line at both ends, so U is their max
        for p, q in oracles.coprime_pairs(300) + [(23, 29), (31, 37)]:
            u = upsilon_torus(p, q)
            lines = oracles.torus_upsilon_lines(p, q)
            tight = []
            for t, v in u.breakpoints():
                n, d = t.numerator, t.denominator  # compare d * line(t) with d * v
                values = [a * d + b * n for a, b in lines]
                vd = v * d
                assert max(values) <= vd, (p, q, t)
                tight.append({m for m, w in enumerate(values) if w == vd})
            assert all(left & right for left, right in zip(tight, tight[1:])), (p, q)

    def test_matches_staircase_route(self):
        extra = [(23, 29), (31, 37), (313, 317), (2, 49999)]
        for p, q in oracles.coprime_pairs(2000) + extra:
            assert upsilon_torus(p, q) == oracles.staircase_upsilon(p, q), (p, q)
            assert upsilon_torus(q, p) == upsilon_torus(p, q), (p, q)

    def test_closed_form_of_T_a_a_plus_1(self):
        # on [2i/a, 2(i+1)/a], U(t) = -i(i+1) - a(a-1-2i) t/2, so the
        # breakpoints are (2i/a, -i(a-i)) for i = 0..a
        for a in range(2, 41):
            u = upsilon_torus(a, a + 1)
            assert u.breakpoints() == tuple((F(2 * i, a), -i * (a - i)) for i in range(a + 1)), a
            for i in range(a):
                t = F(2 * i + 1, a)
                assert u.value(t) == -i * (i + 1) - F(a * (a - 1 - 2 * i), 2) * t, (a, i)

    def test_top_of_dense_range_within_budget(self):
        with oracles.budget(5.0, "upsilon_torus(313, 317)"):
            u = upsilon_torus(313, 317)
        assert u.slope_right(0) == -F(312 * 316, 2)
        assert u.reflected() == u

    def test_expression_level(self):
        u = upsilon_of_expression(parse_knot("T(2,3) # T(2,3)"))
        assert u == upsilon_torus(2, 3).scale(2)
        assert upsilon_of_expression(mirror(torus(2, 3))) == -upsilon_torus(2, 3)
        with pytest.raises(UnsupportedExpressionError):
            upsilon_of_expression(wh(torus(2, 3)))


class TestGerms:
    def test_examples(self):
        g2 = jprime_germ(2)
        assert g2.first_singularity == F(2, 3) and g2.jump_value == 3
        g5 = jprime_germ(5)
        assert g5.first_singularity == F(2, 9) and g5.jump_value == 9

    def test_range_error(self):
        with pytest.raises(ValidationError):
            jprime_germ(1)

    def test_query_beyond_range_refused(self):
        with pytest.raises(InsufficientDataError):
            jprime_germ(4).delta_prime(F(1, 1))


class TestOssHom:
    def test_germ_at_own_singularity_is_one(self):
        for n in range(2, 9):
            assert oss_hom(jprime_germ(n), 2, 2 * n - 1) == 1

    def test_germ_below_singularity_is_zero(self):
        for n in range(3, 8):
            assert oss_hom(jprime_germ(n), 1, n) == 0  # 1/n < 2/(2n-1)

    def test_trefoil_at_one(self):
        assert oss_hom(upsilon_torus(2, 3), 1, 1) == 1

    def test_requires_reduced_fraction(self):
        with pytest.raises(ValidationError):
            oss_hom(upsilon_torus(2, 3), 2, 4)

    def test_germ_beyond_range_raises(self):
        with pytest.raises(InsufficientDataError):
            oss_hom(jprime_germ(5), 1, 2)  # 1/2 > 2/9

    def test_additive_over_pl_add(self):
        rng = random.Random(13)
        fs = random_pl_pool(rng, 40)
        args = [(1, 1), (2, 3), (1, 3), (4, 3), (3, 2)]
        for i in range(0, 40, 2):
            a, b = fs[i], fs[i + 1]
            for p, q in args:
                assert oss_hom(a + b, p, q) == oss_hom(a, p, q) + oss_hom(b, p, q)


class TestMinGenus:
    def test_examples(self):
        assert oracles.min_genus_from_singularity(2, 3) == 2
        assert oracles.min_genus_from_singularity(1, 3) == 3
        assert oracles.min_genus_from_singularity(1, 1) == 1


class TestObstruction:
    def test_germ_obstructs_small_window(self):
        for k in range(2, 7):
            for n in range(k, 9):
                verdict = obstruct_Gn(jprime_germ(n), k - 1)
                assert verdict.status == "obstructed"
                assert verdict.witness == F(2, 2 * n - 1)

    def test_germ_zero_before_its_singularity_is_not_obstructed(self):
        # J'_2 is zero on (0, 2/3), which covers (0, 1/n) for n >= 2
        verdict = obstruct_Gn(jprime_germ(2), 2)
        assert verdict.status == "not_obstructed" and verdict.witness is None
        assert verdict.detail == "certified zero on (0, 2/3) covers (0, 1/2)"

    def test_trefoil_not_obstructed_at_level_1(self):
        assert obstruct_Gn(upsilon_torus(2, 3), 1).status == "not_obstructed"

    def test_first_singularity_is_the_witness(self):
        verdict = obstruct_Gn(upsilon_torus(3, 4), 1)  # singularities 2/3, 4/3
        assert verdict.status == "obstructed" and verdict.witness == F(2, 3)
        assert verdict.detail == "derivative jump 3 at 2/3 < 1/1"

    def test_zero_function(self):
        assert obstruct_Gn(PiecewiseLinearFunction({}), 5).status == "not_obstructed"

    def test_boundary_is_strict(self):
        # singularity exactly at 1/n does not obstruct membership at level n
        u = upsilon_torus(2, 3)  # singularity at 1
        assert obstruct_Gn(u, 1).status == "not_obstructed"


class TestSummandCertificate:
    def test_k2_max6(self):
        cert = summand_certificate_upsilon(2, 6)
        assert cert.valid
        assert len(cert.matrix) == 5
        for a, row in enumerate(cert.matrix):
            assert row[a] == 1
            assert all(v == 0 for v in row[:a])
            assert all(v is None for v in row[a + 1 :])

    def test_single_generator(self):
        cert = summand_certificate_upsilon(3, 3)
        assert cert.valid
        assert cert.matrix == ((F(1),),)

    def test_range_error(self):
        with pytest.raises(ValidationError):
            summand_certificate_upsilon(2, 1)
        with pytest.raises(ValidationError):
            summand_certificate_upsilon(1, 5)

    def test_range_limit_is_the_matrix_side(self, monkeypatch):
        monkeypatch.setattr(upsilon, "MAX_CERTIFY_RANGE", 4)
        assert len(summand_certificate_upsilon(2, 5).matrix) == 4
        with pytest.raises(ValidationError):
            summand_certificate_upsilon(2, 6)

    def test_provenance_recorded(self):
        cert = summand_certificate_upsilon(2, 4)
        assert any("published" in p for p in cert.provenance)
