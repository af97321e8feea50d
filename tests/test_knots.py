"""Knot expression AST, Alexander polynomials, genus, families, bounds."""

import random
import time
from fractions import Fraction

import pytest

import oracles
from knotobs import cli, knots, laurent
from knotobs.errors import (
    InternalCheckError,
    KnotObsError,
    ParseError,
    UnsupportedExpressionError,
    ValidationError,
)
from knotobs.knots import (
    MAX_NESTING,
    UNKNOT,
    Cable,
    Mirror,
    Sum,
    TorusKnot,
    Unknot,
    alexander,
    alexander_factorization,
    cable,
    family,
    format_knot,
    genus,
    gsp_bound_of_knot,
    mirror,
    normalize,
    parse_knot,
    signed_summands,
    sum_of,
    torus,
    wh,
)
from knotobs.signature import expression_jumps, signature_at
from knotobs.upsilon import upsilon_of_expression


class TestAst:
    def test_torus_validation(self):
        with pytest.raises(ValidationError):
            TorusKnot(2, 4)
        with pytest.raises(ValidationError):
            TorusKnot(1, 3)

    def test_cable_validation(self):
        with pytest.raises(ValidationError):
            Cable(UNKNOT, 0, 1)
        with pytest.raises(ValidationError):
            Cable(UNKNOT, 2, 4)

    def test_sum_flattening_and_ordering(self):
        a = sum_of(torus(2, 3), sum_of(torus(2, 5), UNKNOT))
        b = sum_of(torus(2, 5), torus(2, 3))
        assert a == b
        assert isinstance(a, Sum) and len(a.summands) == 2

    def test_mirror_involution_and_distribution(self):
        k = sum_of(torus(2, 3), wh(torus(2, 5)))
        assert mirror(mirror(k)) == k
        m = mirror(k)
        assert isinstance(m, Sum)
        assert all(isinstance(s, Mirror) for s in m.summands)

    def test_unit_cable_collapses(self):
        assert cable(torus(2, 3), 1, 1) == torus(2, 3)
        assert parse_knot("Cable(T(2,3);1,5)") == torus(2, 3)

    def test_cable_of_the_unknot_is_a_torus_knot(self):
        assert parse_knot("Cable(U;2,3)") == parse_knot("Cable(U;3,2)") == torus(2, 3)
        assert parse_knot("Cable(U;2,-3)") == mirror(torus(2, 3))
        assert parse_knot("Cable(U;5,1)") == parse_knot("Cable(U;5,-1)") == UNKNOT
        assert parse_knot("Cable(Cable(U;2,3);2,5)") == cable(torus(2, 3), 2, 5)
        assert parse_knot("Cable(Cable(U;3,1);2,-1) # Cable(U;2,-3)") == mirror(torus(2, 3))

    @pytest.mark.parametrize("p", [0, -1, -2])
    def test_cable_winding_below_one_refused_on_every_path(self, p):
        for make in (
            lambda: Cable(torus(2, 3), p, 3),
            lambda: cable(torus(2, 3), p, 3),
            lambda: parse_knot(f"Cable(T(2,3);{p},3)"),
        ):
            with pytest.raises(ValidationError, match="cable longitude winding p must be >= 1"):
                make()

    def test_unknot_identity(self):
        assert sum_of(UNKNOT, torus(2, 3), UNKNOT) == torus(2, 3)
        assert mirror(UNKNOT) == UNKNOT


class TestGrammar:
    def test_examples(self):
        assert parse_knot("U") == UNKNOT
        assert parse_knot("T(2,3)") == torus(2, 3)
        assert parse_knot("-T(2,3)") == mirror(torus(2, 3))
        assert parse_knot("Wh(T(2,3))") == wh(torus(2, 3))
        assert parse_knot("Cable(Wh(T(2,3));2,3)") == cable(wh(torus(2, 3)), 2, 3)
        assert parse_knot("T(2,3) # -T(2,5)") == sum_of(torus(2, 3), mirror(torus(2, 5)))

    def test_roundtrip_random(self):
        rng = random.Random(4242)
        for _ in range(500):
            k = oracles.random_expression(rng)
            assert parse_knot(format_knot(k)) == k
        # a tree as built, with mirrored sums among its parts: parse_knot
        # normalizes what it reads
        assert format_knot(Mirror(Sum((torus(2, 3), torus(2, 5))))) == "-(T(2,3) # T(2,5))"
        for _ in range(500):
            tree = oracles.random_tree(rng)
            assert parse_knot(format_knot(tree)) == normalize(tree)

    def test_rejects_garbage(self):
        for bad in ("", "T(2;3)", "K(2,3)", "T(2,3) #", "Wh()", "T(2,3", "--"):
            with pytest.raises(ParseError):
                parse_knot(bad)

    def test_deep_nesting_refused(self):
        for text in ("(" * 3000 + "T(2,3)" + ")" * 3000, "Wh(" * 400 + "T(2,3)" + ")" * 400):
            with pytest.raises(ParseError, match="nesting"):
                parse_knot(text)

    def test_nesting_limit_boundary(self):
        n = MAX_NESTING
        assert parse_knot("(" * n + "T(2,3)" + ")" * n) == torus(2, 3)
        with pytest.raises(ParseError):
            parse_knot("(" * (n + 1) + "T(2,3)" + ")" * (n + 1))
        deep = "Cable(" * n + "T(2,3)" + ";2,1)" * n
        assert genus(parse_knot(deep)).seifert_genus == 2**n

    def test_long_minus_run_keeps_parity(self):
        assert parse_knot("-" * 3000 + "T(2,3)") == torus(2, 3)
        assert parse_knot("-" * 3001 + "T(2,3)") == mirror(torus(2, 3))

    def test_long_sum_of_mirrors(self):
        assert genus(parse_knot(" # ".join(["-T(2,3)"] * 3000))).seifert_genus == 3000

    def test_integer_beyond_string_limit_is_parse_error(self):
        with pytest.raises(ParseError, match="too long"):
            parse_knot("T(2," + "1" * 5000 + ")")


class TestAlexander:
    def test_trefoil(self):
        assert alexander(torus(2, 3)) == laurent.parse_laurent("t^-1 - 1 + t")

    def test_whitehead_double_trivial(self):
        assert alexander(wh(torus(2, 3))) == laurent.ONE

    def test_family_J_is_square(self):
        for n in range(2, 7):
            assert alexander(family("J", n)) == laurent.torus_alexander(n, n + 1) ** 2

    def test_family_Jprime_is_square(self):
        for n in range(2, 6):
            assert alexander(family("Jprime", n)) == laurent.torus_alexander(n, 2 * n - 1) ** 2

    def test_family_L_trivial(self):
        for n in range(2, 7):
            assert alexander(family("L", n)) == laurent.ONE

    def test_cable_formula(self):
        k = cable(torus(2, 3), 2, 5)
        expected = laurent.torus_alexander(2, 3).substitute_power(2) * laurent.torus_alexander(2, 5)
        assert alexander(k) == expected

    def test_unit_pattern_cables(self):
        k = cable(torus(2, 3), 3, 1)
        assert alexander(k) == laurent.torus_alexander(2, 3).substitute_power(3)

    def test_negative_cable_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            alexander(Cable(torus(2, 3), 2, -3))

    def test_products_beyond_dense_limit_refused(self):
        start = time.monotonic()
        with pytest.raises(ValidationError, match="dense polynomial limit"):
            alexander(parse_knot("Cable(" * 30 + "T(2,3)" + ";2,3)" * 30))
        with pytest.raises(ValidationError, match="dense polynomial limit"):
            alexander(sum_of(torus(300, 331), mirror(torus(300, 331))))
        assert time.monotonic() - start < 5.0

    def test_mirror_and_sum_laws_random(self):
        rng = random.Random(77)
        for _ in range(500):
            k1 = oracles.random_expression(rng, depth=2)
            k2 = oracles.random_expression(rng, depth=2)
            assert alexander(mirror(k1)) == alexander(k1)
            assert alexander(sum_of(k1, k2)) == alexander(k1) * alexander(k2)

    def test_symmetric_normalization(self):
        rng = random.Random(78)
        for _ in range(100):
            d = alexander(oracles.random_expression(rng, depth=2))
            assert d.is_palindromic()
            assert d.evaluate(1) in (1, -1)


class TestAlexanderFactorization:
    def test_indices_match_factor_on_random_expressions(self):
        # torus knots, Whitehead doubles, cables over cables and over
        # doubles, mirrors, sums and the unknot
        rng = random.Random(8181)
        kinds = set()
        for _ in range(300):
            k = oracles.random_expression(rng, depth=2)
            kinds.update(type(s).__name__ for s, _ in signed_summands(k))
            fac = alexander_factorization(k)
            assert all(isinstance(p, laurent.Cyclotomic) for p, _ in fac.factors)
            assert fac == laurent.factor(alexander(k)), format_knot(k)
        assert kinds == {"TorusKnot", "Cable", "WhiteheadDouble"}

    @pytest.mark.parametrize(
        "text",
        [
            "T(2,3)",
            "Cable(Cable(T(2,3);2,5);3,7) # -Wh(T(2,5))",
            # p = 6 and 12 share the prime 2 with the index 10 of T(2,5), not 3
            "Cable(T(3,4);6,1)",
            "Cable(Cable(T(2,5);6,1);9,2)",
            "Cable(T(2,5);12,5) # -Cable(Wh(T(2,3));4,3)",
        ],
    )
    def test_indices_match_factor(self, text):
        k = parse_knot(text)
        assert alexander_factorization(k) == laurent.factor(alexander(k))

    @pytest.mark.parametrize(
        "k",
        [
            Cable(wh(torus(2, 3)), 2, -3),
            Cable(torus(2, 3), 3, -5),
            parse_knot("Cable(" * 30 + "T(2,3)" + ";2,3)" * 30),
            sum_of(torus(300, 331), mirror(torus(300, 331))),
        ],
        ids=["meridian-winding", "negative-pattern", "nested-cables", "beyond-dense-limit"],
    )
    def test_refusals_are_alexanders(self, k):
        def outcome(f):
            try:
                return f(k)
            except KnotObsError as exc:
                return type(exc), str(exc)

        refusal = outcome(alexander)
        assert isinstance(refusal, tuple) and outcome(alexander_factorization) == refusal

    def test_wrong_indices_fail_the_check(self, monkeypatch):
        # a divisor dropped from a torus knot's pattern: its multiset no
        # longer expands to Delta, so the answer is refused
        divisors = knots._divisors
        monkeypatch.setattr(knots, "_divisors", lambda n: divisors(n)[:-1] if n == 7 else divisors(n))
        for text in ("T(5,7)", "T(2,3) # Cable(Wh(T(2,3));2,7)"):
            with pytest.raises(InternalCheckError, match="the cyclotomic indices must reproduce Delta"):
                alexander_factorization(parse_knot(text))

    def test_three_torus_sum_within_budget(self, capsys):
        # breadth 54,750: through the full screen over every index these two
        # commands took 46.3 s and 38.7 s cold on a shared 2-core host
        text = "T(150,151) # T(149,151) # -T(101,103)"
        with oracles.budget(1.0, "gsp-bound of the three-torus sum"):
            assert cli.run(["gsp-bound", text]) == 0
        assert "gsp lower bound        11100\n" in capsys.readouterr().out
        with oracles.budget(1.0, "fox-milnor of the three-torus sum"):
            assert cli.run(["fox-milnor", text]) == 0
        out = capsys.readouterr().out
        assert "fox-milnor             fails\n" in out and "violation" in out


class TestGenus:
    def test_torus_examples(self):
        assert genus(torus(3, 5)).seifert_genus == 4
        assert genus(torus(2, 3)).seifert_genus == 1

    def test_unknot(self):
        report = genus(UNKNOT)
        assert report.seifert_genus == 0 and report.summand_max_genus == 0

    def test_whitehead(self):
        assert genus(wh(torus(3, 7))).seifert_genus == 1

    def test_family_L(self):
        for n in range(2, 8):
            report = genus(family("L", n))
            assert report.seifert_genus == 2 * n - 1
            assert report.summand_max_genus == n
            assert report.slice_genus_hint == 1
            assert report.slice_genus_source

    def test_family_L_typed_as_text(self):
        for n in range(2, 8):
            typed = genus(parse_knot(format_knot(family("L", n))))
            assert typed == genus(family("L", n))

    def test_slice_genus_hint_only_for_L(self):
        for e in (
            family("J", 4),
            family("Jprime", 3),
            parse_knot("Cable(Wh(T(2,3));3,1)"),
            parse_knot("Cable(Wh(T(2,3));4,1) # -Cable(Wh(T(2,3));2,1)"),
            parse_knot("Cable(Wh(T(2,3));3,1) # -Cable(Wh(T(2,3));2,1) # T(2,3)"),
        ):
            report = genus(e)
            assert report.slice_genus_hint is None and report.slice_genus_source is None

    def test_cable_needs_positive_q(self):
        with pytest.raises(UnsupportedExpressionError):
            genus(Cable(torus(2, 3), 2, -1))

    def test_breadth_bounded_by_twice_genus(self):
        rng = random.Random(909)
        for _ in range(300):
            k = oracles.random_expression(rng)
            d = alexander(k)
            if d.is_zero:
                continue
            assert d.breadth <= 2 * genus(k).seifert_genus


class TestFamilies:
    def test_J_2_shape(self):
        assert family("J", 2) == parse_knot("Cable(Wh(T(2,3));2,3) # -T(2,3)")

    def test_Jprime_3_shape(self):
        assert family("Jprime", 3) == parse_knot("Cable(Wh(T(2,3));3,5) # -T(3,5)")

    def test_L_2_collapses_inner_cable(self):
        assert family("L", 2) == parse_knot("Cable(Wh(T(2,3));2,1) # -Wh(T(2,3))")

    def test_range_error(self):
        with pytest.raises(ValidationError):
            family("J", 1)
        with pytest.raises(ValidationError):
            family("X", 3)

    def test_fox_milnor_consistent_with_topological_sliceness(self):
        for n in range(2, 7):
            assert laurent.fox_milnor(alexander(family("J", n))).passes


class TestGspBounds:
    def test_torus_3_5_equality(self):
        assert gsp_bound_of_knot(torus(3, 5)) == (Fraction(4), Fraction(4))

    def test_slice_sum(self):
        k = sum_of(torus(2, 3), mirror(torus(2, 3)))
        assert gsp_bound_of_knot(k) == (Fraction(0), Fraction(1))

    def test_unknot(self):
        assert gsp_bound_of_knot(UNKNOT) == (Fraction(0), Fraction(0))

    def test_lower_le_upper_on_families(self):
        for name in ("J", "Jprime", "L"):
            for n in range(2, 13):
                lower, upper = gsp_bound_of_knot(family(name, n))
                assert lower <= upper

    def test_prime_torus_equality(self):
        for p, q in oracles.prime_pairs(35):
            lower, upper = gsp_bound_of_knot(torus(p, q))
            assert lower == upper == Fraction((p - 1) * (q - 1), 2)


def test_unnormalized_trees_answer_as_their_normal_form():
    """Every invariant reads an expression through signed_summands, which
    normalizes it once, so a tree as built answers or refuses as its normal
    form does; normalize returns a normal expression as it is."""
    # 1/6, 5/12 and 7/10 are jump points of some small torus knots
    points = [Fraction(1, 6), Fraction(5, 12), Fraction(1, 2), Fraction(7, 10)]
    invariants = {
        "alexander": alexander,
        "genus": genus,
        "gsp_bound_of_knot": gsp_bound_of_knot,
        "upsilon_of_expression": upsilon_of_expression,
        "expression_jumps": expression_jumps,
        **{f"signature_at {x}": lambda k, x=x: signature_at(k, x) for x in points},
    }

    def outcome(f, k):
        try:
            return f(k)
        except KnotObsError as exc:
            return type(exc), str(exc)

    rng = random.Random(3131)
    for _ in range(150):
        tree = oracles.random_tree(rng)
        normal = normalize(tree)
        parts = signed_summands(tree)
        assert all(sign in (1, -1) and not isinstance(s, (Sum, Mirror, Unknot)) for s, sign in parts)
        assert sum_of(*(s if sign > 0 else mirror(s) for s, sign in parts)) == normal
        for name, f in invariants.items():
            assert outcome(f, tree) == outcome(f, normal), (name, tree)
    for _ in range(500):
        k = oracles.random_expression(rng)
        assert normalize(k) is k
