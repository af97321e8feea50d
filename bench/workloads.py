"""The operation lists of the three workloads, made from the seed alone.

A round is one pass over a workload's list; a run repeats whole rounds.  The
seed orders each list and draws the seeded inputs, while the cost of a round
stays the same from seed to seed: seeded inputs keep a fixed shape (the
degrees of a product's factors, the knots of a sum), so only coefficients,
signs, summand order and evaluation points vary.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from checks import family_expression, format_canonical, mul, torus_jump_points

# The README's CLI examples, exactly as written there.
README_EXAMPLES = [
    ["gsp-bound", "T(3,5)"],
    ["alexander", "T(2,3) # -T(2,3)", "--fox-milnor"],
    ["factor", "t^-1 - 1 + t"],
    ["genus", "Cable(Wh(T(2,3));3,1)"],
    ["family", "L", "4", "--json", "l4.json"],
    ["sig-jumps", "T(3,4)", "--at", "1/2", "--csv", "jumps.csv"],
    ["sig-certify", "--pair", "5,7", "--pair", "11,13", "--pair", "17,19", "--k", "4", "--json", "cert.json"],
    ["upsilon", "T(3,4)", "--csv", "u.csv", "--svg", "u.svg"],
    ["upsilon-obstruct", "--germ-index", "5", "--genus-level", "2"],
    ["upsilon-certify", "--k", "2", "--max", "10", "--json", "ucert.json"],
    ["eps-obstruct", "--label", "L_5", "--genus-level", "2"],
    ["eps-certify", "--k", "2", "--max", "8", "--json", "ecert.json"],
    ["eps-certify", "--k", "2", "--max", "12", "--family", "L"],
    ["ordered-demo", "--seed", "2025", "--cases", "1000"],
]

# Inputs that exhaust the Kronecker search budget of laurent._kronecker_split
# on every run (exit 2, FactorizationComplexityError); kept as failures, and
# checked like the seeded products once factoring them succeeds.
KRONECKER_FAILURES = {
    "1 + 2t^3 + 5t^7 - 3t^11 + 7t^13": {0: 1, 3: 2, 7: 5, 11: -3, 13: 7},
    "t^12 + 3t^7 - t^5 + 2": {0: 2, 5: -1, 7: 3, 12: 1},
}


def _shuffled(ops: list, rng: random.Random) -> list:
    ops = list(ops)
    rng.shuffle(ops)
    return ops


def cli_readme(seed: int) -> list[dict]:
    ops = [{"label": " ".join(argv), "argv": argv, "check": "readme"} for argv in README_EXAMPLES]
    return _shuffled(ops, random.Random(f"cli-readme/{seed}"))


def _random_product(rng: random.Random) -> dict:
    """content * Phi_d * linear * two quadratics * cubic * t^k: degree 10, with
    a fixed shape so that every seed sends the same work to each stage
    (content, cyclotomic screen, rational roots, Kronecker on the rest)."""

    def small(lo=1, hi=4):
        return rng.choice([-1, 1]) * rng.randint(lo, hi)

    phi = rng.choice([{0: -1, 1: 1}, {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 2: 1}, {0: 1, 1: -1, 2: 1}])
    b = rng.randint(2, 4)
    a = rng.choice([x for x in range(-5, 6) if x and math.gcd(x, b) == 1])
    linear = {0: -a, 1: b}
    parts = [{0: rng.choice([1, 2, 3, 4, 6, 10, 12]) * rng.choice([-1, 1])}, phi, linear]
    parts.append({0: small(), 1: small(0, 4), 2: rng.randint(1, 3)})
    parts.append({0: small(), 1: small(0, 4), 2: rng.randint(1, 3)})
    parts.append({0: small(), 1: small(0, 3), 2: small(0, 3), 3: rng.randint(1, 2)})
    poly = {rng.randint(-3, 3): 1}
    for part in parts:
        poly = mul(poly, {e: c for e, c in part.items() if c})
    return poly


def cli_obstruct_cold(seed: int) -> list[dict]:
    """20 operations that succeed plus the two Kronecker failures.  Their cold
    costs fall in bands: four heavy ones, three calls that factor the same
    polynomial (T(7,13)), and the rest near interpreter start, so the p75 tail
    lands inside the middle band whatever the seed."""
    rng = random.Random(f"cli-obstruct-cold/{seed}")
    ops = []

    def add(argv, truth):
        ops.append({"label": " ".join(argv[:2]), "argv": argv + ["--json", "out.json"], "check": "obstruct", "truth": truth})

    for command, p, q in [
        ("gsp-bound", 13, 17),
        ("gsp-bound", 11, 13),
        ("gsp-bound", 7, 13),
        ("factor", 7, 13),
        ("fox-milnor", 7, 13),
        ("gsp-bound", 5, 7),
    ]:
        add([command, f"T({p},{q})"], {"kind": "torus", "p": p, "q": q})
    add(["fox-milnor", "T(5,9) # -T(5,9)"], {"kind": "square", "p": 5, "q": 9})
    add(["alexander", "T(5,7) # -T(5,7)", "--fox-milnor"], {"kind": "square", "p": 5, "q": 7})
    for command, name, n in [
        ("factor", "Jprime", 8),
        ("fox-milnor", "J", 10),
        ("gsp-bound", "J", 6),
        ("alexander", "J", 6),
        ("gsp-bound", "Jprime", 5),
        ("fox-milnor", "L", 12),
        ("gsp-bound", "L", 9),
    ]:
        argv = [command, family_expression(name, n)] + (["--fox-milnor"] if command == "alexander" else [])
        add(argv, {"kind": "family", "name": name, "n": n})
    products = [(format_canonical(poly), poly) for poly in (_random_product(rng) for _ in range(5))]
    for text, poly in products + list(KRONECKER_FAILURES.items()):
        add(["factor", text], {"kind": "product", "poly": {str(e): c for e, c in poly.items()}})
    return _shuffled(ops, rng)


def _signed(rng: random.Random, pairs: list[tuple[int, int]]) -> list[list[int]]:
    """The torus knots T(p,q) in seeded order, each mirrored or not by the seed."""
    return [[p, q, rng.choice([1, -1])] for p, q in rng.sample(pairs, len(pairs))]


def expression(terms) -> str:
    """Knot-expression text of the sum of sign * T(p,q) over ``terms``."""
    return " # ".join(("" if s > 0 else "-") + f"T({p},{q})" for p, q, s in terms)


def _non_jump_points(terms, rng: random.Random, k: int) -> list[str]:
    """k seeded midpoints between consecutive jump points of the summands."""
    cuts = {Fraction(0), Fraction(1)}
    for p, q, _ in terms:
        cuts |= torus_jump_points(p, q)
    cuts = sorted(cuts)
    mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return [str(x) for x in sorted(rng.sample(mids, k))]


# Fixed sets of torus knots for the seeded sums; the seed picks signs and order.
SUM4 = [(5, 7), (4, 9), (3, 11), (2, 25)]
SUM5 = SUM4 + [(3, 13)]
SUM3 = [(3, 11), (4, 9), (5, 8)]


def library_sweep_warm(seed: int) -> list[dict]:
    """25 calls whose warm costs fall in bands: Upsilon of T(23,29); the three
    J'_10 polynomial calls (the p90 band); seven family and torus calls; five
    Upsilon sums of the same four knots (the median band); and ten cheap
    jump, Seifert and certificate calls."""
    rng = random.Random(f"library-sweep-warm/{seed}")
    ops = [{"kind": "upsilon", "terms": [[p, q, 1]]} for p, q in [(23, 29), (11, 13)]]
    for fn, name, n in [
        ("factor", "Jprime", 10),
        ("fox_milnor", "Jprime", 10),
        ("gsp_lower_bound", "Jprime", 10),
        ("factor", "J", 9),
        ("fox_milnor", "Jprime", 9),
        ("gsp_lower_bound", "J", 10),
        ("fox_milnor", "J", 8),
        ("factor", "J", 8),
    ]:
        ops.append({"kind": fn, "name": name, "n": n})
    ops += [{"kind": "upsilon", "terms": _signed(rng, SUM4)} for _ in range(5)]
    ops += [{"kind": "jumps", "terms": _signed(rng, pairs)} for pairs in (SUM5, SUM3)]
    for pairs in (SUM4, SUM3):
        terms = _signed(rng, pairs)
        ops.append({"kind": "signature_at", "terms": terms, "xs": _non_jump_points(terms, rng, 1)})
    for p, q in [(5, 7), (4, 9)]:
        ops.append({"kind": "seifert", "p": p, "q": q, "xs": _non_jump_points([[p, q, 1]], rng, 3)})
    ops.append({"kind": "sig_certificate", "pairs": [[5, 7], [11, 13]], "k": 4})
    ops.append({"kind": "upsilon_certificate", "k": 2, "max": 10})
    ops.append({"kind": "epsilon_summand", "k": 2, "max": 8})
    ops.append({"kind": "epsilon_subgroup", "k": 2, "max": 12})
    for op in ops:
        op["label"] = op_label(op)
    return _shuffled(ops, rng)


def op_label(op: dict) -> str:
    if "terms" in op:
        return f"{op['kind']} {expression(op['terms'])}"
    if "name" in op:
        return f"{op['kind']} {op['name']}_{op['n']}"
    if "p" in op:
        return f"{op['kind']} T({op['p']},{op['q']})"
    return f"{op['kind']} {op.get('pairs', '')} k={op['k']}" + (f" max={op['max']}" if "max" in op else "")


WORKLOADS = {
    "cli-readme": cli_readme,
    "cli-obstruct-cold": cli_obstruct_cold,
    "library-sweep-warm": library_sweep_warm,
}
