"""Acceptance suite: one test per shipped guarantee, each printing a PASS/FAIL
line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import random
import time
from fractions import Fraction

import oracles
from knotobs import laurent, ordered, signature, upsilon
from knotobs.cli import run
from knotobs.knots import mirror, sum_of, torus
from knotobs.ordered import LexElement
from knotobs.upsilon import PiecewiseLinearFunction


class Budget:
    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(
            f"ACCEPTANCE {self.number} ({self.label}): {status} "
            f"[{elapsed:.2f}s / budget {self.seconds:.0f}s]",
            flush=True,
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s"
            )


def cli_json(tmp_path, argv, name="out.json"):
    path = tmp_path / name
    code = run(argv + ["--json", str(path)])
    return code, json.loads(path.read_text())


def test_criterion_1_splitting_genus_bound(tmp_path, capsys):
    """gsp-bound equals (p-1)(q-1)/2 on both sides for prime torus knots."""
    pairs = oracles.prime_pairs(77)
    assert len(pairs) >= 10
    with capsys.disabled(), Budget(1, "splitting-genus bound on prime torus knots", 5):
        for p, q in pairs:
            code, doc = cli_json(tmp_path, ["gsp-bound", f"T({p},{q})"])
            assert code == 0
            expected = Fraction((p - 1) * (q - 1), 2)
            assert Fraction(doc["payload"]["lower"]) == expected, (p, q)
            assert Fraction(doc["payload"]["upper"]) == expected, (p, q)


def test_criterion_2_fox_milnor(capsys):
    """Norm-form products pass; prime torus Alexander polynomials fail."""
    with capsys.disabled(), Budget(2, "Fox-Milnor pass/fail discrimination", 10):
        rng = random.Random(20240)
        for _ in range(200):
            f = oracles.random_normalized_poly(rng, max_breadth=10)
            res = laurent.fox_milnor(f * f.reciprocal())
            assert res.passes and res.witness is not None
        for p, q in oracles.prime_pairs(77):
            assert not laurent.fox_milnor(laurent.torus_alexander(p, q)).passes, (p, q)


def test_criterion_3_signature_oracle_equivalence(capsys):
    """Integrated jump rule equals Seifert-matrix eigenvalue signatures,
    exactly, for every coprime pair with pq <= 35 at 100 random points."""
    with capsys.disabled(), Budget(3, "signature oracle equivalence", 60):
        rng = random.Random(35353)
        for p, q in oracles.coprime_pairs(35):
            V = signature.seifert_from_braid(signature.torus_braid_word(p, q))
            support = set(signature.expression_jumps(torus(p, q)).support)
            checked = 0
            while checked < 100:
                x = Fraction(rng.randint(1, 99999), 100000)
                if x in support:
                    continue
                value = signature.signature_at(torus(p, q), x)
                assert value == signature.numeric_signature(V, x), (p, q, x)
                checked += 1


def test_criterion_4_signature_certificate(tmp_path, capsys):
    """sig-certify validates the reference instance and names the violated
    check under each mutation."""
    with capsys.disabled(), Budget(4, "torus independence certificate", 1):
        good = ["sig-certify", "--pair", "5,7", "--pair", "11,13", "--pair", "17,19", "--k", "4"]
        code, doc = cli_json(tmp_path, good, "good.json")
        assert code == 0 and doc["payload"]["valid"] is True

        repeated = ["sig-certify", "--pair", "5,7", "--pair", "5,7", "--pair", "17,19", "--k", "4"]
        code, doc = cli_json(tmp_path, repeated, "repeat.json")
        assert code == 1 and doc["payload"]["valid"] is False
        failed = [c["name"] for c in doc["payload"]["checks"] if not c["passed"]]
        assert failed == ["distinct_products"]

        raised = ["sig-certify", "--pair", "5,7", "--pair", "11,13", "--pair", "17,19", "--k", "12"]
        code, doc = cli_json(tmp_path, raised, "raised.json")
        assert code == 1 and doc["payload"]["valid"] is False
        failed = [c["name"] for c in doc["payload"]["checks"] if not c["passed"]]
        assert failed == ["degree_bound[5,7]"]


def test_criterion_5_upsilon_model(capsys):
    """Exact trefoil Upsilon; slope, genus-bound and integrality invariants
    across all coprime pairs with pq <= 63."""
    with capsys.disabled(), Budget(5, "Upsilon torus model checks", 10):
        F = Fraction
        assert upsilon.upsilon_torus(2, 3).breakpoints() == ((0, 0), (1, -1), (2, 0))
        for p, q in oracles.coprime_pairs(63):
            u = upsilon.upsilon_torus(p, q)
            g = (p - 1) * (q - 1) // 2
            assert u.slope_right(0) == -F(g), (p, q)
            for t in u.singularities():
                assert oracles.min_genus_from_singularity(t.numerator, t.denominator) <= g
                assert upsilon.oss_hom(u, t.numerator, t.denominator).denominator == 1


def test_criterion_6_upsilon_certificate(tmp_path, capsys):
    """upsilon-certify: 9x9 triangular unit-diagonal matrix at k=2, and the
    k=5 window lies inside (0, 1/4)."""
    with capsys.disabled(), Budget(6, "Upsilon summand certificate", 1):
        code, doc = cli_json(tmp_path, ["upsilon-certify", "--k", "2", "--max", "10"], "u2.json")
        assert code == 0 and doc["payload"]["valid"] is True
        matrix = doc["payload"]["matrix"]
        assert len(matrix) == 9 and all(len(row) == 9 for row in matrix)
        for a in range(9):
            assert matrix[a][a] == "1"
            assert all(matrix[a][b] == "0" for b in range(a))
            assert all(matrix[a][b] is None for b in range(a + 1, 9))

        code, doc = cli_json(tmp_path, ["upsilon-certify", "--k", "5", "--max", "10"], "u5.json")
        assert code == 0 and doc["payload"]["valid"] is True
        for m in range(5, 11):
            assert Fraction(2, 2 * m - 1) < Fraction(1, 4)


def test_criterion_7_ordered_property_suite(capsys):
    """1000 randomized quotient-order cases per suite with zero failures, and
    the Property A characterization matches exhaustive search."""
    with capsys.disabled(), Budget(7, "ordered-group property suites", 30):
        results = ordered.run_property_suites(cases=1000, seed=2025)
        assert {r.name for r in results} == {
            "well_definedness",
            "trichotomy",
            "transitivity",
            "translation_invariance",
            "domination_descent",
            "property_A_descent",
        }
        for r in results:
            assert r.cases == 1000 and r.failures == 0, r

        for coords, holds in oracles.property_A_table().items():
            assert ordered.property_A_check(LexElement(coords)).holds == holds


def test_criterion_8_epsilon_certificates(tmp_path, capsys):
    """eps-certify validates from the registry; obstruction boundary is
    inconclusive; L records obstruct exactly at the 2k threshold."""
    with capsys.disabled(), Budget(8, "epsilon obstruction certificates", 1):
        code, doc = cli_json(tmp_path, ["eps-certify", "--k", "2", "--max", "8"])
        assert code == 0 and doc["payload"]["valid"] is True
        assert doc["provenance"]

        for n in range(1, 6):
            rec = ordered.EpsilonClass(label="boundary", epsilon_sign=1, a1=1, a2=2 * n - 1)
            assert ordered.epsilon_obstruction(rec, n).status == "inconclusive"

        for k in range(2, 6):
            for n in range(2, 13):
                outcome = ordered.epsilon_obstruction(ordered.registry_record(f"L_{n}"), k)
                assert outcome.obstructs == (n >= 2 * k), (k, n)


def test_criterion_9_homomorphism_laws(capsys):
    """Jump functions and PL functions form groups under the declared
    operations: 300 random exact addition/negation cases each."""
    with capsys.disabled(), Budget(9, "jump and PL homomorphism laws", 10):
        rng = random.Random(909090)
        probes = [Fraction(k, 17) for k in range(1, 17)]
        for _ in range(300):
            k1 = oracles.random_expression(rng, depth=2, signature_safe=True)
            k2 = oracles.random_expression(rng, depth=2, signature_safe=True)
            j1, j2 = signature.expression_jumps(k1), signature.expression_jumps(k2)
            assert signature.expression_jumps(sum_of(k1, k2)) == j1 + j2
            assert signature.expression_jumps(mirror(k1)) == -j1
            assert (j1 + (-j1)) == signature.EMPTY_JUMPS

        pl_pool = [upsilon.upsilon_torus(p, q) for p, q in oracles.SMALL_TORUS]
        for _ in range(300):
            a = pl_pool[rng.randrange(len(pl_pool))].scale(rng.randint(-3, 3))
            b = pl_pool[rng.randrange(len(pl_pool))].scale(rng.randint(-3, 3))
            s = a + b
            t = Fraction(rng.randint(1, 33), 17)
            assert s.value(t) == a.value(t) + b.value(t)
            assert (-a).value(t) == -a.value(t)
            assert (a + (-a)) == PiecewiseLinearFunction({})
