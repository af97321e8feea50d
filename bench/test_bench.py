"""Self-tests of the benchmark's own reference computations, on cases worked
out by hand.  They import nothing from knotobs.

    python3 -m pytest bench/test_bench.py
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate
import checks as C
import run
import workloads


def test_semigroup_upsilon_of_trefoil_and_t34():
    # T(2,3): g = 1, S = <2,3>; Upsilon(t) = -t on [0,1], t - 2 on [1,2]
    assert C.upsilon_semigroup(2, 3, Fraction(1, 2)) == Fraction(-1, 2)
    assert C.upsilon_semigroup(2, 3, 1) == -1
    assert C.upsilon_semigroup(2, 3, 2) == 0
    assert C.envelope_breakpoints(C.semigroup_lines(2, 3)) == [1]
    # T(3,4): g = 3, tau = 3; Upsilon(1) = -2 with kinks at 2/3 and 4/3
    assert C.upsilon_semigroup(3, 4, 1) == -2
    assert C.upsilon_semigroup(3, 4, Fraction(2, 3)) == -2
    assert C.envelope_breakpoints(C.semigroup_lines(3, 4)) == [Fraction(2, 3), Fraction(4, 3)]


def test_upsilon_check_accepts_sums_and_rejects_errors():
    trefoil = [("0", "0"), ("1", "-1"), ("2", "0")]
    assert C.check_upsilon(trefoil, [(2, 3, 1)]) == []
    assert C.check_upsilon([("0", "0"), ("1", "1"), ("2", "0")], [(2, 3, -1)]) == []
    # T(2,3) # T(2,3) doubles every value
    assert C.check_upsilon([("0", "0"), ("1", "-2"), ("2", "0")], [(2, 3, 1), (2, 3, 1)]) == []
    # a kink in the wrong place is caught between breakpoints
    assert C.check_upsilon([("0", "0"), ("1/2", "-1/2"), ("2", "0")], [(2, 3, 1)])
    assert C.check_upsilon([("0", "0"), ("2", "0")], [(2, 3, 1), (2, 3, -1)]) == []


def test_torus_delta_closed_form():
    assert C.torus_delta(2, 3) == {0: 1, 1: -1, 2: 1}
    assert C.torus_delta(3, 4) == {0: 1, 1: -1, 3: 1, 5: -1, 6: 1}
    assert C.torus_cyclotomic_indices(3, 4) == [6, 12]
    assert C.torus_gsp(3, 5) == (4, 4)
    # T(4,5): Phi_10 (breadth 4) and Phi_20 (breadth 8), genus 6
    assert C.torus_gsp(4, 5) == (4, 6)


def test_factor_comparison_with_sympy():
    # -6 t^-1 (t - 1)^2 (t^2 + 1) with content 6 = 2 * 3
    poly = C.mul({-1: -6}, C.mul(C.power({0: -1, 1: 1}, 2), {0: 1, 2: 1}))
    sign, primes, polys = C.sympy_factorization(poly)
    assert sign == -1
    assert primes == Counter({2: 1, 3: 1})
    assert polys == Counter({(-1, 1): 2, (1, 0, 1): 1})
    good = {
        "unit": "-1*t^-1",
        "factors": [
            {"factor": "2*t^0", "multiplicity": 1},
            {"factor": "3*t^0", "multiplicity": 1},
            {"factor": "-1*t^0 + 1*t^1", "multiplicity": 2},
            {"factor": "1*t^0 + 1*t^2", "multiplicity": 1},
        ],
    }
    assert C.check_factor_payload(poly, good) == []
    # a factorization that still multiplies back but is not irreducible
    coarse = {
        "unit": "-1*t^-1",
        "factors": [
            {"factor": "6*t^0", "multiplicity": 1},
            {"factor": "1*t^0 + -2*t^1 + 1*t^2", "multiplicity": 1},
            {"factor": "1*t^0 + 1*t^2", "multiplicity": 1},
        ],
    }
    problems = C.check_factor_payload(poly, coarse)
    assert problems and not any("multiply back" in p for p in problems)
    wrong_unit = dict(good, unit="1*t^-1")
    assert any("multiply back" in p for p in C.check_factor_payload(poly, wrong_unit))


def test_cyclotomic_expectation_for_torus_factors():
    assert C.torus_factor_counter(2, 3) == Counter({(1, -1, 1): 1})


def test_litherland_signature():
    # T(2,3): -2 between the roots e^{+-2 pi i/6}, 0 outside
    assert C.litherland_signature(2, 3, Fraction(1, 2)) == -2
    assert C.litherland_signature(2, 3, Fraction(1, 10)) == 0
    assert C.litherland_signature(3, 4, Fraction(1, 2)) == -6
    rows = [{"x": "1/6", "jump": -2}, {"x": "5/6", "jump": 2}]
    assert C.check_jump_rows(rows, [(2, 3, 1)]) == []
    assert C.check_jump_rows([{"x": "1/6", "jump": 2}, {"x": "5/6", "jump": -2}], [(2, 3, 1)])


def test_seifert_check_on_trefoil():
    V = [[-1, 1], [0, -1]]  # Seifert matrix of T(2,3)
    assert C.same_up_to_unit(C.sympy_seifert_det(V), C.torus_delta(2, 3))
    assert C.numpy_signature(V, Fraction(1, 2)) == -2
    assert C.check_seifert(V, 2, 3, ["1/2"], [-2]) == []
    assert C.check_seifert(V, 2, 3, ["1/2"], [0])


def test_tail_percentile_rule():
    xs = [float(i) for i in range(1, 41)]
    # nearest rank 30 of 40 leaves exactly ten samples above
    assert C.tail_percentile(xs, 75) == 30.0
    with pytest.raises(ValueError):
        C.tail_percentile(xs, 76)
    assert C.highest_tail_percentile(40) == 75
    assert C.highest_tail_percentile(100) == 90
    assert C.highest_tail_percentile(39) == 74


def test_workload_minimums_leave_a_tail():
    """Each workload's fewest successful timed operations supports its tail."""
    per_round = {
        "cli-readme": len(workloads.cli_readme(1)),
        "cli-obstruct-cold": len(workloads.cli_obstruct_cold(1)) - len(workloads.KRONECKER_FAILURES),
        "library-sweep-warm": len(workloads.library_sweep_warm(1)),
    }
    for name, ok_ops in per_round.items():
        n = ok_ops * run.MIN_ROUNDS[name]
        assert n >= run.MIN_TIMED_OPS
        assert C.highest_tail_percentile(n) >= run.TAIL_PCT[name]


def test_seeds_change_inputs_not_shape():
    a, b = workloads.cli_obstruct_cold(1), workloads.cli_obstruct_cold(2)
    assert a != b and len(a) == len(b)
    assert sorted(op["argv"][0] for op in a) == sorted(op["argv"][0] for op in b)
    assert workloads.cli_obstruct_cold(3) == workloads.cli_obstruct_cold(3)
    la, lb = workloads.library_sweep_warm(1), workloads.library_sweep_warm(2)
    assert sorted(op["kind"] for op in la) == sorted(op["kind"] for op in lb)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_calibration_factors_follow_the_nearby_reference_times():
    cal = calibrate.Calibrator()
    cal.events = [[0.001] * 20, [], [0.004] * 20]
    factors = cal.factors()
    assert factors[0] == pytest.approx(2.0) and factors[2] == pytest.approx(0.5)
    # an interval with no reference times of its own borrows its neighbours'
    assert factors[1] == pytest.approx(0.002 * 40 / (20 * 0.001 + 20 * 0.004))
    assert cal.overall() == pytest.approx(0.002 * 40 / 0.1)
