"""Ordered-group engine: lex model, quotient order, epsilon obstructions."""

import random
import time
from importlib import resources
from types import SimpleNamespace

import pytest

import oracles
from knotobs import ordered
from knotobs.errors import (
    InsufficientDataError,
    RuleNotApplicableError,
    ValidationError,
)
from knotobs.ordered import (
    EpsilonClass,
    LexElement,
    a2_upper_bound,
    archimedean,
    chain_independence,
    compare_aplus,
    epsilon_obstruction,
    lex_compare,
    load_registry,
    property_A_check,
    quotient_compare,
    registry_record,
    run_property_suites,
    subgroup_certificate_epsilon,
    subgroup_membership,
    summand_certificate_epsilon,
)

L = LexElement.of


class TestLexCompare:
    def test_leading_index_dominates(self):
        assert lex_compare(L(1, 0), L(0, 5)) == ">"

    def test_reflexive(self):
        assert lex_compare(L(2, -1), L(2, -1)) == "="

    def test_negative(self):
        assert lex_compare(L(0, -1), L(0, 0)) == "<"

    def test_trailing_zeros_trimmed(self):
        assert L(1, 0, 0) == L(1)


class TestArchimedean:
    def test_equivalent_same_leading_index(self):
        assert archimedean(L(1, 5), L(3, 0)).relation == "equivalent"

    def test_domination(self):
        assert archimedean(L(0, 1), L(1, 0)).relation == "much_less"
        assert archimedean(L(1, 0), L(0, 1)).relation == "much_greater"

    def test_self_equivalent(self):
        a = L(0, 3, -2)
        assert archimedean(a, a).relation == "equivalent"

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            archimedean(L(0), L(1))

    def test_defining_inequalities(self):
        # equivalent really means mutual multiple bounds in the lex order
        a, b = L(1, 5), L(3, 0)
        n = 4
        assert lex_compare(b.abs(), a.abs().scale(n)) == "<"
        assert lex_compare(a.abs(), b.abs().scale(n)) == "<"
        # dominated means no multiple ever exceeds
        small, big = L(0, 1), L(1, 0)
        for k in (1, 10, 1000):
            assert lex_compare(small.abs().scale(k), big.abs()) == "<"


class TestQuotient:
    X = L(1, 0)

    def test_membership(self):
        assert subgroup_membership(L(0, 7), self.X)
        assert subgroup_membership(L(0), self.X)
        assert not subgroup_membership(L(2, 9), self.X)

    def test_membership_needs_positive_modulus(self):
        with pytest.raises(ValidationError):
            subgroup_membership(L(0, 1), L(-1))

    def test_equal_in_quotient(self):
        assert quotient_compare(L(1, 3), L(1, 9), self.X) == "="

    def test_strict_in_quotient(self):
        assert quotient_compare(L(1, 0), L(2, 0), self.X) == "<"
        assert quotient_compare(L(2, 0), L(1, 0), self.X) == ">"

    def test_property_suites_zero_failures(self):
        for result in run_property_suites(cases=250, seed=99):
            assert result.cases == 250 and result.failures == 0, result

    def test_property_suites_catch_an_off_by_one_domination_rule(self, monkeypatch):
        # treats every element equivalent to x as dominated by it
        def mutant(a, x):
            return a.is_zero or a.leading_index >= x.leading_index

        monkeypatch.setattr(ordered, "subgroup_membership", mutant)
        results = run_property_suites(cases=200, seed=2025)
        assert any(result.failures for result in results), results

    @pytest.mark.parametrize("cases", [0, -5])
    def test_property_suites_refuse_degenerate_sizes(self, cases):
        # no cases passes vacuously
        start = time.monotonic()
        with pytest.raises(ValidationError):
            run_property_suites(cases=cases)
        assert time.monotonic() - start < 1.0


class TestPropertyA:
    def test_unit_leading_coefficient_holds(self):
        assert property_A_check(L(1, -4, 2)).holds
        assert property_A_check(L(-1, 3)).holds

    def test_non_unit_fails_with_counterexample(self):
        report = property_A_check(L(2, 0))
        assert not report.holds
        assert report.counterexample == L(1)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            property_A_check(L(0))

    def test_characterization_matches_brute_force(self):
        """Exhaustive decomposition search at rank <= 3, |coeff| <= 4."""
        table = oracles.property_A_table()
        assert len(table) == 9**3 - 1 and set(table.values()) == {True, False}
        for coords, holds in table.items():
            assert property_A_check(LexElement(coords)).holds == holds


class TestChainIndependence:
    def test_standard_basis_chain(self):
        verdict = chain_independence([L(0, 0, 1), L(0, 1), L(1)])
        assert verdict.verified

    def test_equivalent_elements_fail_precondition(self):
        verdict = chain_independence([L(1, 0), L(2, 0)])
        assert not verdict.chain_ok and not verdict.verified

    def test_nonpositive_element_fails(self):
        verdict = chain_independence([L(0, -1), L(1)])
        assert not verdict.verified

    def test_random_positive_chains(self):
        rng = random.Random(21)
        for _ in range(20):
            chain = [
                LexElement(tuple([0] * lead + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(3)]))
                for lead in (4, 2, 0)
            ]
            assert chain_independence(chain).verified


class TestEpsilonClass:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            EpsilonClass(label="bad", epsilon_sign=0, a1=1)
        with pytest.raises(ValidationError):
            EpsilonClass(label="bad", epsilon_sign=1, a2=3)
        with pytest.raises(ValidationError):
            EpsilonClass(label="bad", epsilon_sign=1, a1=1, property_A=True)

    def test_compare_rules(self):
        two = EpsilonClass(label="a", epsilon_sign=1, a1=2, a2=5)
        one = EpsilonClass(label="b", epsilon_sign=1, a1=1, a2=3)
        assert compare_aplus(two, one).relation == "much_less"
        assert compare_aplus(one, two).relation == "much_greater"
        high = EpsilonClass(label="c", epsilon_sign=1, a1=1, a2=5)
        assert compare_aplus(high, one).relation == "much_greater"
        assert compare_aplus(one, high).relation == "much_less"

    def test_unknown_when_no_rule_applies(self):
        a = EpsilonClass(label="a", epsilon_sign=1, a1=1, a2=4)
        b = EpsilonClass(label="b", epsilon_sign=1, a1=1, a2=4)
        assert compare_aplus(a, b).relation == "unknown"

    def test_antisymmetry_random(self):
        rng = random.Random(5)
        flip = {"much_less": "much_greater", "much_greater": "much_less", "unknown": "unknown"}
        for _ in range(300):
            a = EpsilonClass(label="a", epsilon_sign=1, a1=rng.randint(1, 4), a2=rng.randint(1, 9))
            b = EpsilonClass(label="b", epsilon_sign=1, a1=rng.randint(1, 4), a2=rng.randint(1, 9))
            assert compare_aplus(b, a).relation == flip[compare_aplus(a, b).relation]

    def test_missing_data_refused(self):
        no_a1 = EpsilonClass(label="x", epsilon_sign=1)
        with pytest.raises(InsufficientDataError):
            compare_aplus(no_a1, no_a1)


class TestA2Bound:
    def test_values(self):
        assert a2_upper_bound(1) == 1
        assert a2_upper_bound(3) == 5

    def test_L_family_respects_bound_for_its_summand_genus(self):
        # a-plus(L_n) = (1, n) with summand genus n: n <= 2n - 1
        for n in range(2, 13):
            rec = registry_record(f"L_{n}")
            assert rec.a2 <= a2_upper_bound(n)


class TestEpsilonObstruction:
    def test_J_k_obstructs_floor_half(self):
        for k in range(2, 9):
            outcome = epsilon_obstruction(registry_record(f"J_{k}"), k // 2)
            assert outcome.obstructs

    def test_boundary_inconclusive(self):
        for n in range(1, 6):
            rec = EpsilonClass(label="b", epsilon_sign=1, a1=1, a2=2 * n - 1)
            assert epsilon_obstruction(rec, n).status == "inconclusive"

    def test_L_threshold(self):
        for k in range(2, 6):
            for n in range(2, 13):
                outcome = epsilon_obstruction(registry_record(f"L_{n}"), k)
                assert outcome.obstructs == (n >= 2 * k)

    def test_a1_not_one_rejected(self):
        rec = EpsilonClass(label="x", epsilon_sign=1, a1=2, a2=9)
        with pytest.raises(RuleNotApplicableError):
            epsilon_obstruction(rec, 1)


class TestRegistry:
    def test_shipped_records(self):
        records = load_registry()
        for n in range(2, 17):
            j = records[f"J_{n}"]
            assert (j.a1, j.a2, j.property_A) == (1, n, True)
            assert j.property_A_source and j.source
            l = records[f"L_{n}"]
            assert (l.a1, l.a2, l.genus_bound) == (1, n, 1)
            jp = records[f"Jprime_{n}"]
            assert jp.a1 is None and jp.epsilon_sign is None

    @pytest.mark.parametrize(
        "old, new, label, keys",
        [
            ('"a2": 4,', '"a_2": 4,', "J_4", "'a_2'"),
            ('"label": "L_7",', '"label": "L_7", "genus": 1, "Source": "x",', "L_7", "'Source', 'genus'"),
        ],
    )
    def test_unknown_row_key_refused(self, monkeypatch, tmp_path, old, new, label, keys):
        """A row key that is neither an EpsilonClass field nor the metadata
        `family` or `index` fails the load, naming the row and the key."""
        shipped = resources.files("knotobs.data").joinpath("epsilon_registry.json").read_text()
        (tmp_path / "epsilon_registry.json").write_text(shipped.replace(old, new, 1))
        assert old in shipped
        monkeypatch.setattr(ordered, "_REGISTRY", None)
        monkeypatch.setattr(ordered, "resources", SimpleNamespace(files=lambda package: tmp_path))
        with pytest.raises(ValidationError) as exc:
            load_registry()
        assert str(exc.value) == f"registry row {label!r} has unknown keys {keys}"

    def test_jprime_records_refused_by_comparisons(self):
        with pytest.raises(InsufficientDataError):
            compare_aplus(registry_record("Jprime_2"), registry_record("J_2"))

    def test_missing_label(self):
        with pytest.raises(InsufficientDataError):
            registry_record("J_999")


class TestCertificates:
    def test_summand_k2_max8(self):
        cert = summand_certificate_epsilon(2, 8)
        assert cert.valid
        assert cert.kind == "summand"
        assert any("published" in p for p in cert.provenance)

    def test_summand_single_generator(self):
        assert summand_certificate_epsilon(5, 5).valid

    def test_summand_range_error(self):
        with pytest.raises(ValidationError):
            summand_certificate_epsilon(2, 1)
        with pytest.raises(ValidationError):
            summand_certificate_epsilon(1, 5)

    def test_subgroup_L(self):
        for k in (2, 3):
            cert = subgroup_certificate_epsilon(k, 12)
            assert cert.valid
            assert cert.kind == "subgroup"

    def test_subgroup_needs_2k_start(self):
        with pytest.raises(ValidationError):
            subgroup_certificate_epsilon(3, 5)

    def test_missing_record_fails_cleanly(self):
        with pytest.raises(InsufficientDataError):
            summand_certificate_epsilon(2, 64)

    @pytest.mark.parametrize(
        "certify, k, n_max, label, changes, failed",
        [
            (
                summand_certificate_epsilon, 2, 8, "J_4", {"a1": None, "a2": None},
                {"registry_provenance[J_4]", "dominates[J_3<<J_4]", "dominates[J_4<<J_5]", "survives_quotient[J_4]"},
            ),
            (
                summand_certificate_epsilon, 2, 8, "J_2", {"a1": 2},
                {"registry_provenance[J_2]", "filtration_obstruction[genus<=1]"},
            ),
            (summand_certificate_epsilon, 2, 8, "J_3", {"property_A": False}, {"property_A[J_3]"}),
            (
                summand_certificate_epsilon, 2, 8, "J_3", {"property_A": None, "property_A_source": None},
                {"property_A[J_3]"},
            ),
            (summand_certificate_epsilon, 2, 8, "J_5", {"source": None}, {"registry_provenance[J_5]"}),
            (subgroup_certificate_epsilon, 2, 12, "L_6", {"genus_bound": 2}, {"slice_genus_one[L_6]"}),
        ],
        ids=["J-no-aplus", "J-a1-2", "J-property-A-false", "J-property-A-unsourced", "J-unsourced", "L-genus-2"],
    )
    def test_mutated_record_fails_its_checks(self, monkeypatch, certify, k, n_max, label, changes, failed):
        """A registry record the rules cannot read, or whose data break the
        argument, gives an INVALID certificate naming the checks it feeds."""
        mutated = EpsilonClass(**{**registry_record(label).as_dict(), **changes})
        monkeypatch.setitem(load_registry(), label, mutated)
        cert = certify(k, n_max)
        assert not cert.valid
        assert failed <= {c.name for c in cert.checks if not c.passed}
        assert all(name in cert.conclusion for name in failed)

    def test_serialization(self):
        doc = summand_certificate_epsilon(2, 4).as_dict()
        assert doc["valid"] is True
        assert doc["kind"] == "summand"
        assert all({"name", "passed", "witness"} <= set(c) for c in doc["checks"])
