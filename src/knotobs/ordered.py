"""Totally ordered abelian group engine and epsilon-class obstructions.

Two layers:

* a concrete lexicographic model (finite-support integer sequences ordered by
  lowest index) with Archimedean equivalence, domination and the induced
  quotient order, exercised by randomized property suites whose inputs are
  built to meet each suite's precondition (leading indices drawn over the
  whole rank, every draw a case, no attempt cap); Property A and
  independence of domination chains are decided exactly from leading
  coefficients and leading indices;
* epsilon-class records carrying the published a-plus tuples (a1, a2),
  Property A flags and provenance, with the comparison rules and the
  obstruction: a record with a-plus = (1, b), b >= 2n dominates the image of
  every sum of genus <= n knots.

A record registry transcribed from published computations ships with the
package; every certificate lists the sources it consumed.
"""

from __future__ import annotations

import json
import random
from importlib import resources
from itertools import zip_longest

from .errors import (
    InsufficientDataError,
    RuleNotApplicableError,
    ValidationError,
)
from .reporting import Certificate, CertificateCheck, Record

# rank of the lex model the property suites draw from
DEFAULT_RANK = 8

RULE_LEX = "lexicographic model: earlier leading index dominates"
RULE_A1 = "a-plus rule: strictly larger a1 is dominated"
RULE_A2 = "a-plus rule: equal a1, strictly larger a2 dominates"


# ---------------------------------------------------------------------------
# lexicographic model
# ---------------------------------------------------------------------------


class LexElement(Record):
    """Finite-support integer sequence, ordered lexicographically by the
    lowest index."""

    __slots__ = ("coords",)

    @staticmethod
    def of(*coords: int) -> "LexElement":
        return LexElement(coords)

    def __init__(self, coords: tuple[int, ...]):
        # its own __init__, for speed: one ordered-demo run builds about
        # 43,000; trailing zeros are dropped, so equal sequences are equal
        end = len(coords)
        while end and not coords[end - 1]:
            end -= 1
        object.__setattr__(self, "coords", coords[:end])

    @property
    def is_zero(self) -> bool:
        return not self.coords

    @property
    def leading_index(self) -> int:
        if self.is_zero:
            raise ValidationError("zero element has no leading index")
        return next(i for i, c in enumerate(self.coords) if c)

    @property
    def leading_coeff(self) -> int:
        return self.coords[self.leading_index]

    def __add__(self, other: "LexElement") -> "LexElement":
        return LexElement(tuple(p + q for p, q in zip_longest(self.coords, other.coords, fillvalue=0)))

    def __neg__(self) -> "LexElement":
        return LexElement(tuple(-c for c in self.coords))

    def __sub__(self, other: "LexElement") -> "LexElement":
        return LexElement(tuple(p - q for p, q in zip_longest(self.coords, other.coords, fillvalue=0)))

    def scale(self, k: int) -> "LexElement":
        return LexElement(tuple(k * c for c in self.coords))

    @property
    def is_positive(self) -> bool:
        return (not self.is_zero) and self.leading_coeff > 0

    def abs(self) -> "LexElement":
        return self if self.is_zero or self.is_positive else -self

    def truncate(self, index: int) -> "LexElement":
        """Zero out all coordinates at indices > index (the quotient image
        when dividing by the subgroup dominated by a leading-index-`index`
        element)."""
        return LexElement(self.coords[: index + 1])


def lex_compare(a: LexElement, b: LexElement) -> str:
    """'<', '=' or '>' by the lowest differing index."""
    d = b - a
    if d.is_zero:
        return "="
    return "<" if d.leading_coeff > 0 else ">"


class DominationVerdict(Record):
    __slots__ = ("relation", "rule_used")  # relation: much_less | much_greater | equivalent | unknown


def archimedean(a: LexElement, b: LexElement) -> DominationVerdict:
    """Archimedean comparison in the lex model: elements are equivalent iff
    their leading indices agree; otherwise the later leading index is
    dominated."""
    if a.is_zero or b.is_zero:
        raise ValidationError("Archimedean comparison is undefined for zero")
    ia, ib = a.leading_index, b.leading_index
    if ia == ib:
        return DominationVerdict("equivalent", RULE_LEX)
    if ia > ib:
        return DominationVerdict("much_less", RULE_LEX)
    return DominationVerdict("much_greater", RULE_LEX)


def subgroup_membership(a: LexElement, x: LexElement) -> bool:
    """a lies in the subgroup of elements dominated by x (x > 0 required)."""
    if x.is_zero or not x.is_positive:
        raise ValidationError("subgroup is defined for positive x only")
    if a.is_zero:
        return True
    return a.leading_index > x.leading_index


def quotient_compare(a: LexElement, b: LexElement, x: LexElement) -> str:
    """Order of the quotient by the dominated subgroup: images agree iff
    b - a is dominated by x, otherwise the sign of b - a decides."""
    d = b - a
    if subgroup_membership(d, x):
        return "="
    return "<" if d.leading_coeff > 0 else ">"


class PropertyAReport(Record):
    __slots__ = ("holds", "counterexample", "detail")


def property_A_check(a: LexElement) -> PropertyAReport:
    """Property A in the lex model holds exactly for unit leading coefficient:
    then every equivalent b splits as b = k a + c with k = lc(b) lc(a), and c
    vanishes at the leading index, so it is dominated.  Otherwise the unit
    vector at the leading index has no such decomposition and is returned as
    the counterexample."""
    if a.is_zero:
        raise ValidationError("Property A is undefined for zero")
    if abs(a.leading_coeff) != 1:
        counter = LexElement(tuple(0 for _ in range(a.leading_index)) + (1,))
        return PropertyAReport(
            holds=False,
            counterexample=counter,
            detail=f"leading coefficient {a.leading_coeff} cannot divide 1",
        )
    return PropertyAReport(
        holds=True,
        counterexample=None,
        detail="unit leading coefficient; b = lc(b) lc(a) a + c with c dominated",
    )


class ChainVerdict(Record):
    __slots__ = ("chain_ok", "detail")

    @property
    def verified(self) -> bool:
        return self.chain_ok


def chain_independence(elements: list[LexElement]) -> ChainVerdict:
    """Verify 0 < a_1 << a_2 << ... pairwise.  Such a chain is independent:
    the leading indices differ, so in a nonzero integer combination the
    element of smallest leading index with a nonzero coefficient keeps that
    coordinate nonzero."""
    if not elements:
        raise ValidationError("need at least one element")
    for e in elements:
        if e.is_zero or not e.is_positive:
            return ChainVerdict(False, f"element {e} is not positive")
    for earlier, later in zip(elements, elements[1:]):
        verdict = archimedean(earlier, later)
        if verdict.relation != "much_less":
            return ChainVerdict(
                False, f"{earlier} is not dominated by {later} ({verdict.relation})"
            )
    return ChainVerdict(True, "chain verified; distinct leading indices")


# ---------------------------------------------------------------------------
# randomized property suites for the lex model
# ---------------------------------------------------------------------------


_COEFFS = range(-9, 10)


def _random_element(rng: random.Random) -> LexElement:
    """Coordinates uniform in -9..9 (possibly the zero element)."""
    return LexElement(tuple(rng.choices(_COEFFS, k=DEFAULT_RANK)))


def _random_led(rng: random.Random, lead: int, coeff: int) -> LexElement:
    """`coeff` at index `lead`, zeros before it, uniform coordinates after it."""
    return LexElement((0,) * lead + (coeff,) + tuple(rng.choices(_COEFFS, k=DEFAULT_RANK - lead - 1)))


def _random_positive(rng: random.Random, last: int) -> LexElement:
    """Positive element whose leading index is uniform in 0..last."""
    return _random_led(rng, rng.randint(0, last), rng.randint(1, 9))


class SuiteResult(Record):
    __slots__ = ("name", "cases", "failures", "detail")
    _defaults = {"detail": ""}

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.passed,
            "detail": self.detail,
        }


def run_property_suites(cases: int = 1000, seed: int = 2025) -> list[SuiteResult]:
    """Randomized checks of the quotient-order and Property A facts in the
    lex model of rank DEFAULT_RANK: well-definedness, trichotomy, transitivity,
    translation invariance, domination descent and Property A descent.

    Every draw is one case: each suite builds inputs that already meet its
    precondition, with leading indices drawn uniformly over the whole rank.
    A quotient relation a < b modulo x is built as b = a + d with d > 0 and
    lead(d) <= lead(x), and the suite checks that `quotient_compare` reports
    it; so a domination rule that is off by one index fails on the cases
    whose lead(d) equals lead(x)."""
    if cases < 1:
        raise ValidationError(f"cases must be >= 1, got {cases}")
    rng = random.Random(seed)
    results = []

    def suite(check):
        failures = sum(not check() for _ in range(cases))
        results.append(SuiteResult(name=check.__name__, cases=cases, failures=failures))

    def above(x: LexElement, a: LexElement) -> LexElement:
        """An element greater than a in the quotient by the x-dominated subgroup."""
        return a + _random_positive(rng, x.leading_index)

    @suite
    def well_definedness():
        x = _random_positive(rng, DEFAULT_RANK - 2)  # leaves room for a nonzero c
        a = _random_element(rng)
        b = above(x, a)
        c = _random_led(rng, x.leading_index, 0)  # zero through lead(x): dominated
        return all(quotient_compare(p, q, x) == "<" for p, q in ((a, b), (a + c, b), (a, b + c)))

    @suite
    def trichotomy():
        x = _random_positive(rng, DEFAULT_RANK - 1)
        a = _random_element(rng)
        b = a + _random_positive(rng, DEFAULT_RANK - 1).scale(rng.choice((-1, 0, 1)))
        r1, r2 = quotient_compare(a, b, x), quotient_compare(b, a, x)
        return (r1 == r2 == "=") or {r1, r2} == {"<", ">"}

    @suite
    def transitivity():
        x = _random_positive(rng, DEFAULT_RANK - 1)
        a = _random_element(rng)
        b = above(x, a)
        c = above(x, b)
        return all(quotient_compare(p, q, x) == "<" for p, q in ((a, b), (b, c), (a, c)))

    @suite
    def translation_invariance():
        x = _random_positive(rng, DEFAULT_RANK - 1)
        a = _random_element(rng)
        b = above(x, a)
        c = _random_element(rng)
        return quotient_compare(a, b, x) == quotient_compare(a + c, b + c, x) == "<"

    @suite
    def domination_descent():
        # 0 < a << b with b surviving the quotient
        x = _random_positive(rng, DEFAULT_RANK - 1)
        lx = x.leading_index
        b = _random_positive(rng, min(lx, DEFAULT_RANK - 2))
        a = _random_led(rng, rng.randint(b.leading_index + 1, DEFAULT_RANK - 1), rng.randint(1, 9))
        ta, tb = a.truncate(lx), b.truncate(lx)
        # an image of 0 is fine: 0 <= phi(b) trivially
        return tb.is_positive and (ta.is_zero or (ta.is_positive and archimedean(ta, tb).relation == "much_less"))

    @suite
    def property_A_descent():
        # unit leading coefficient, and an image of a that stays nonzero
        la = rng.randrange(DEFAULT_RANK)
        a = _random_led(rng, la, rng.choice((-1, 1)))
        x = _random_led(rng, rng.randint(la, DEFAULT_RANK - 1), rng.randint(1, 9))
        ta = a.truncate(x.leading_index)
        return not ta.is_zero and property_A_check(ta).holds

    return results


# ---------------------------------------------------------------------------
# epsilon classes
# ---------------------------------------------------------------------------


class EpsilonClass(Record):
    """Record of an epsilon-equivalence class: sign, leading a-plus entries,
    Property A flag with provenance, optional genus and tau bounds.

    a1 is only stored for epsilon = +1 (the tuple is undefined otherwise);
    every non-derived field carries its source.
    """

    __slots__ = (
        "label", "epsilon_sign", "a1", "a2", "property_A", "property_A_source",
        "genus_bound", "tau_bound", "source",
    )
    _defaults = dict.fromkeys(__slots__[1:])

    def _check(self):
        if self.epsilon_sign not in (None, -1, 0, 1):
            raise ValidationError("epsilon sign must be -1, 0, +1 or unknown")
        if self.a1 is not None and self.epsilon_sign != 1:
            raise ValidationError("a1 is only defined when epsilon = +1")
        if self.a2 is not None and self.a1 is None:
            raise ValidationError("a2 requires a1")
        if self.a1 is not None and self.a1 <= 0:
            raise ValidationError("a1 must be a positive integer")
        if self.a2 is not None and self.a2 <= 0:
            raise ValidationError("a2 must be a positive integer")
        if self.property_A is not None and not self.property_A_source:
            raise ValidationError("Property A flags must carry a provenance tag")


def compare_aplus(K: EpsilonClass, Kp: EpsilonClass) -> DominationVerdict:
    """Domination verdict for (K, K') from leading a-plus entries: larger a1
    means dominated; equal a1 and larger a2 means dominating; anything else is
    unknown."""
    for rec in (K, Kp):
        if rec.epsilon_sign != 1 or rec.a1 is None:
            raise InsufficientDataError(
                f"record {rec.label!r} has no a-plus data (epsilon must be +1 with a1)"
            )
    if K.a1 != Kp.a1:
        if K.a1 > Kp.a1:
            return DominationVerdict("much_less", RULE_A1)
        return DominationVerdict("much_greater", RULE_A1)
    if K.a2 is not None and Kp.a2 is not None and K.a2 != Kp.a2:
        if K.a2 > Kp.a2:
            return DominationVerdict("much_greater", RULE_A2)
        return DominationVerdict("much_less", RULE_A2)
    return DominationVerdict("unknown", "neither a-plus rule applies")


def a2_upper_bound(n: int) -> int:
    """Maximal a2 of a genus <= n knot with a1 = 1: combining
    |tau - a1 - a2| <= g with tau <= g gives a2 <= 2n - 1."""
    if n < 1:
        raise ValidationError("genus bound must be >= 1")
    return 2 * n - 1


class ObstructionOutcome(Record):
    __slots__ = ("status", "detail")  # status: obstructs | inconclusive

    @property
    def obstructs(self) -> bool:
        return self.status == "obstructs"


def epsilon_obstruction(J: EpsilonClass, n: int) -> ObstructionOutcome:
    """A record with a-plus = (1, b) and b >= 2n dominates every class coming
    from a sum of genus <= n knots (their a2 is capped at 2n - 1)."""
    if n < 1:
        raise ValidationError("genus level must be >= 1")
    if J.epsilon_sign != 1 or J.a1 is None:
        raise InsufficientDataError(f"record {J.label!r} has no a-plus data")
    if J.a1 != 1:
        raise RuleNotApplicableError(
            f"obstruction rule needs a1 = 1, record {J.label!r} has a1 = {J.a1}"
        )
    if J.a2 is None:
        raise InsufficientDataError(f"record {J.label!r} lacks a2")
    cap = a2_upper_bound(n)
    if J.a2 >= 2 * n:
        return ObstructionOutcome(
            "obstructs",
            f"a2 = {J.a2} >= 2n = {2 * n} > {cap} = max a2 at genus level {n}; "
            f"every such class is dominated by {J.label}",
        )
    return ObstructionOutcome(
        "inconclusive",
        f"a2 = {J.a2} < 2n = {2 * n}; the comparison rule does not separate",
    )


# ---------------------------------------------------------------------------
# published-record registry
# ---------------------------------------------------------------------------


_REGISTRY = None  # (records by label, chain source by family), read once

# keys a registry row may carry beside the EpsilonClass fields; nothing reads them
_REGISTRY_METADATA = ("family", "index")


def _registry_record(row: dict) -> EpsilonClass:
    """The record of one registry row, by the record's own field names; a
    field the row lacks is None, and a key that is neither a field nor
    metadata (a misspelled field, say) is refused."""
    unknown = sorted(row.keys() - {*EpsilonClass._fields, *_REGISTRY_METADATA})
    if unknown:
        raise ValidationError(
            f"registry row {row.get('label')!r} has unknown keys {', '.join(map(repr, unknown))}"
        )
    return EpsilonClass(*map(row.get, EpsilonClass._fields))


def load_registry() -> dict[str, EpsilonClass]:
    """Epsilon-class records shipped with the package, keyed by label."""
    global _REGISTRY
    if _REGISTRY is None:
        raw = json.loads(
            resources.files("knotobs.data").joinpath("epsilon_registry.json").read_text()
        )
        records = map(_registry_record, raw["records"])
        _REGISTRY = {rec.label: rec for rec in records}, raw.get("chain_sources", {})
    return _REGISTRY[0]


def registry_chain_source(family: str) -> str | None:
    load_registry()
    return _REGISTRY[1].get(family)


def registry_record(label: str) -> EpsilonClass:
    records = load_registry()
    if label not in records:
        raise InsufficientDataError(f"no published record for {label!r}")
    return records[label]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


class EpsilonCertificate(Certificate):
    __slots__ = ("family", "k", "n_max", "kind", "provenance")  # kind: summand | subgroup


def _family_records(family: str, start: int, n_max: int) -> list[EpsilonClass]:
    return [registry_record(f"{family}_{n}") for n in range(start, n_max + 1)]


def _rule_check(name: str, rule, *args) -> CertificateCheck:
    """Check `name` by `rule(*args)`, which returns (passed, witness).  A rule
    that refuses its records fails the check, with the refusal as witness."""
    try:
        passed, witness = rule(*args)
    except (InsufficientDataError, RuleNotApplicableError) as exc:
        passed, witness = False, str(exc)
    return CertificateCheck(name, passed, witness)


def _obstructs(rec: EpsilonClass, n: int) -> tuple[bool, str]:
    outcome = epsilon_obstruction(rec, n)
    return outcome.obstructs, outcome.detail


def _dominates(later: EpsilonClass, earlier: EpsilonClass, cite_rule: bool) -> tuple[bool, str]:
    verdict = compare_aplus(later, earlier)
    witness = f"{later.label} vs {earlier.label}: {verdict.relation}"
    if cite_rule:
        witness += f" ({verdict.rule_used})"
    return verdict.relation == "much_greater", witness


def _registry_check(rec: EpsilonClass) -> CertificateCheck:
    """The published a-plus = (1, a2) of a record, with its source."""
    return CertificateCheck(
        f"registry_provenance[{rec.label}]",
        rec.a1 == 1 and rec.a2 is not None and rec.source is not None,
        f"a-plus = (1, {rec.a2}), source: {rec.source}",
    )


def _chain_checks(records: list[EpsilonClass]) -> list[CertificateCheck]:
    checks = []
    for rec in records:
        checks.append(
            CertificateCheck(
                f"positive[{rec.label}]",
                rec.epsilon_sign == 1,
                f"epsilon sign {rec.epsilon_sign}",
            )
        )
    for earlier, later in zip(records, records[1:]):
        checks.append(_rule_check(f"dominates[{earlier.label}<<{later.label}]", _dominates, later, earlier, True))
    return checks


def _provenance(family: str, sources: list[str | None]) -> tuple[str, ...]:
    """The sources a certificate consumed and its family's chain source, sorted."""
    return tuple(sorted({source for source in (*sources, registry_chain_source(family)) if source}))


def summand_certificate_epsilon(k: int, n_max: int) -> EpsilonCertificate:
    """Certificate instantiating the J-family summand statement: published
    records a-plus(J_n) = (1, n) with Property A, the domination chain from
    index k, survival in the quotient by everything dominated by J_k, and the
    obstruction that genus <= floor(k/2) sums are dominated by J_k."""
    if k < 2:
        raise ValidationError("certificate needs k >= 2")
    if n_max < k:
        raise ValidationError(f"n_max must be >= k, got {n_max} < {k}")
    records = _family_records("J", k, n_max)
    checks: list[CertificateCheck] = []
    for rec in records:
        checks.append(_registry_check(rec))
        checks.append(
            CertificateCheck(
                f"property_A[{rec.label}]",
                rec.property_A is True and rec.property_A_source is not None,
                f"flag {rec.property_A}, source: {rec.property_A_source}",
            )
        )
    level = k // 2
    checks.append(_rule_check(f"filtration_obstruction[genus<={level}]", _obstructs, records[0], level))
    checks.extend(_chain_checks(records))
    for rec in records[1:]:
        checks.append(_rule_check(f"survives_quotient[{rec.label}]", _dominates, rec, records[0], False))
    conclusion = (
        f"J_{k} .. J_{n_max} map to part of a basis of a Z^inf direct summand "
        f"of the concordance group modulo knots of genus <= {level}"
    )
    return EpsilonCertificate(
        family="J",
        k=k,
        n_max=n_max,
        kind="summand",
        checks=tuple(checks),
        provenance=_provenance("J", [s for rec in records for s in (rec.source, rec.property_A_source)]),
        conclusion_if_valid=conclusion,
    )


def subgroup_certificate_epsilon(k: int, n_max: int) -> EpsilonCertificate:
    """Certificate for the slice-genus-one L family: records a-plus(L_n) =
    (1, n), the domination chain from index 2k, and the obstruction that
    genus <= k sums are dominated by L_{2k}; Property A is not claimed, so the
    conclusion is a free subgroup rather than a summand."""
    if k < 1:
        raise ValidationError("certificate needs k >= 1")
    start = 2 * k
    if n_max < start:
        raise ValidationError(f"n_max must be >= 2k = {start}, got {n_max}")
    records = _family_records("L", start, n_max)
    checks: list[CertificateCheck] = []
    for rec in records:
        checks.append(_registry_check(rec))
        checks.append(
            CertificateCheck(
                f"slice_genus_one[{rec.label}]",
                rec.genus_bound == 1,
                f"published slice genus bound {rec.genus_bound}",
            )
        )
    for rec in records:
        checks.append(_rule_check(f"filtration_obstruction[{rec.label},genus<={k}]", _obstructs, rec, k))
    checks.extend(_chain_checks(records))
    conclusion = (
        f"L_{start} .. L_{n_max} are linearly independent modulo knots of genus "
        f"<= {k}, with slice genus 1"
    )
    return EpsilonCertificate(
        family="L",
        k=k,
        n_max=n_max,
        kind="subgroup",
        checks=tuple(checks),
        provenance=_provenance("L", [rec.source for rec in records]),
        conclusion_if_valid=conclusion,
    )
