"""Semantics of the immutable record base shared by every result type."""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from knotobs import cli, knots, laurent, ordered, signature, upsilon
from knotobs.errors import ValidationError
from knotobs.reporting import Certificate, CertificateCheck, Record

T23 = knots.TorusKnot(2, 3)
CHECK = CertificateCheck("c", False, "w")
FAC = laurent.Factorization(1, 0, ((laurent.parse_laurent("t - 2"), 1),))
CHECK_REPR = "CertificateCheck(name='c', passed=False, witness='w')"
FAC_REPR = "Factorization(sign=1, exponent=0, factors=((LaurentPolynomial('-2*t^0 + 1*t^1'), 1),))"

# one example of every record type: how to build it, its repr as a frozen
# dataclass printed it, and the keys of its as_dict where it had one
EXAMPLES = [
    (lambda: CertificateCheck("c", False, "w"), CHECK_REPR, ["name", "passed", "witness"]),
    (
        lambda: Certificate((CHECK,), "ok"),
        f"Certificate(checks=({CHECK_REPR},), conclusion_if_valid='ok')",
        ["valid", "checks", "conclusion"],
    ),
    (lambda: knots.TorusKnot(2, 3), "TorusKnot(p=2, q=3)", None),
    (lambda: knots.Cable(T23, 2, 13), "Cable(companion=TorusKnot(p=2, q=3), p=2, q=13)", None),
    (lambda: knots.WhiteheadDouble(T23), "WhiteheadDouble(companion=TorusKnot(p=2, q=3))", None),
    (lambda: knots.Mirror(T23), "Mirror(inner=TorusKnot(p=2, q=3))", None),
    (
        lambda: knots.Sum((T23, knots.Mirror(T23))),
        "Sum(summands=(TorusKnot(p=2, q=3), Mirror(inner=TorusKnot(p=2, q=3))))",
        None,
    ),
    (lambda: knots.Unknot(), "Unknot()", None),
    (
        lambda: knots.GenusReport(3, 1, 1, "s"),
        "GenusReport(seifert_genus=3, summand_max_genus=1, slice_genus_hint=1, slice_genus_source='s')",
        ["seifert_genus", "summand_max_genus", "slice_genus_hint", "slice_genus_source"],
    ),
    (lambda: laurent.Factorization(1, 0, FAC.factors), FAC_REPR, ["unit", "factors"]),
    (
        lambda: laurent.FoxMilnorResult(False, None, ("v",), FAC),
        f"FoxMilnorResult(passes=False, witness=None, violations=('v',), factorization={FAC_REPR})",
        ["passes", "witness", "violations", "factorization"],
    ),
    (
        lambda: cli.Result(["a", ("b", 1)], {"x": 1}, "invalid", ("p",)),
        "Result(lines=['a', ('b', 1)], payload={'x': 1}, status='invalid', provenance=('p',), csv=None, svg=None)",
        None,
    ),
    (lambda: signature.SeifertMatrix(((0, 1), (0, 0))), "SeifertMatrix(entries=((0, 1), (0, 0)))", None),
    (
        lambda: signature.IndependenceCertificate((CHECK,), "ok", ((5, 7),), 4),
        f"IndependenceCertificate(checks=({CHECK_REPR},), conclusion_if_valid='ok', generators=((5, 7),), "
        "filtration_level=4)",
        ["generators", "filtration_level", "valid", "checks", "conclusion"],
    ),
    (lambda: upsilon.Staircase(((0, 1), (1, 0))), "Staircase(corners=((0, 1), (1, 0)))", None),
    (
        lambda: upsilon.JumpGerm(Fraction(1, 2), Fraction(3)),
        "JumpGerm(first_singularity=Fraction(1, 2), jump_value=Fraction(3, 1), source='user-supplied')",
        None,
    ),
    (
        lambda: upsilon.ObstructionVerdict("obstructed", Fraction(1, 3), "d"),
        "ObstructionVerdict(status='obstructed', witness=Fraction(1, 3), detail='d')",
        ["status", "witness", "detail"],
    ),
    (
        lambda: upsilon.UpsilonSummandCertificate((CHECK,), "ok", 2, 3, ((Fraction(1), None),), ("p",)),
        f"UpsilonSummandCertificate(checks=({CHECK_REPR},), conclusion_if_valid='ok', k=2, n_max=3, "
        "matrix=((Fraction(1, 1), None),), provenance=('p',))",
        ["k", "n_max", "rows", "matrix", "valid", "checks", "conclusion", "provenance"],
    ),
    (lambda: ordered.LexElement((1, 2, 0)), "LexElement(coords=(1, 2))", None),
    (
        lambda: ordered.DominationVerdict("equivalent", "r"),
        "DominationVerdict(relation='equivalent', rule_used='r')",
        None,
    ),
    (
        lambda: ordered.PropertyAReport(False, ordered.LexElement((1,)), "d"),
        "PropertyAReport(holds=False, counterexample=LexElement(coords=(1,)), detail='d')",
        None,
    ),
    (lambda: ordered.ChainVerdict(True, "d"), "ChainVerdict(chain_ok=True, detail='d')", None),
    (
        lambda: ordered.SuiteResult("s", 3, 0),
        "SuiteResult(name='s', cases=3, failures=0, detail='')",
        ["name", "cases", "failures", "passed", "detail"],
    ),
    (
        lambda: ordered.EpsilonClass("K", 1, 1, 2, True, "src"),
        "EpsilonClass(label='K', epsilon_sign=1, a1=1, a2=2, property_A=True, property_A_source='src', "
        "genus_bound=None, tau_bound=None, source=None)",
        ["label", "epsilon_sign", "a1", "a2", "property_A", "property_A_source", "genus_bound", "tau_bound", "source"],
    ),
    (
        lambda: ordered.ObstructionOutcome("obstructs", "d"),
        "ObstructionOutcome(status='obstructs', detail='d')",
        ["status", "detail"],
    ),
    (
        lambda: ordered.EpsilonCertificate((CHECK,), "ok", "J", 2, 3, "summand", ("p",)),
        f"EpsilonCertificate(checks=({CHECK_REPR},), conclusion_if_valid='ok', family='J', k=2, n_max=3, "
        "kind='summand', provenance=('p',))",
        ["family", "k", "n_max", "kind", "valid", "checks", "conclusion", "provenance"],
    ),
]
IDS = [make().__class__.__name__ for make, _, _ in EXAMPLES]


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


def test_every_record_type_has_an_example():
    assert sorted(t.__name__ for t in _record_types()) == sorted(IDS)


@pytest.mark.parametrize("make, shown, keys", EXAMPLES, ids=IDS)
class TestEveryRecord:
    def test_repr_is_the_dataclass_repr(self, make, shown, keys):
        assert repr(make()) == shown

    def test_equal_records_hash_equal(self, make, shown, keys):
        a, b = make(), make()
        assert a == b and not a != b
        assert a.__eq__(a._values()) is NotImplemented
        if isinstance(a, cli.Result):
            return  # its lines and payload are a list and a dict, as before
        assert hash(a) == hash(b) == hash(a._values())

    def test_assignment_and_del_raise(self, make, shown, keys):
        record = make()
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == shown

    def test_as_dict_keys(self, make, shown, keys):
        record = make()
        expected = keys if keys is not None else list(record._fields)
        assert list(record.as_dict()) == expected
        assert json.loads(json.dumps(record.as_dict())) == record.as_dict()

    def test_keyword_construction_and_copies(self, make, shown, keys):
        record = make()
        assert type(record)(**dict(zip(record._fields, record._values()))) == record
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "make",
    [
        lambda: laurent.parse_laurent("t - 2"),
        lambda: laurent.parse_laurent("3t^-4 - t^7"),
        lambda: laurent.ZERO,
        lambda: laurent.cyclotomic(12),
        lambda: signature.torus_jumps(2, 3),
        lambda: signature.EMPTY_JUMPS,
        lambda: upsilon.upsilon_from_staircase(upsilon.staircase_from_alexander(laurent.torus_alexander(3, 4))),
    ],
    ids=["linear", "laurent", "zero", "cyclotomic", "jumps", "no-jumps", "upsilon"],
)
def test_immutable_values_copy_and_pickle(make):
    # LaurentPolynomial and RationalJumps block __setattr__, so they rebuild
    # through __reduce__ rather than the default slot restore; a Cyclotomic
    # rebuilds from its index d
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert getattr(twin, "d", None) == getattr(value, "d", None)
        assert repr(twin) == repr(value)
        with pytest.raises(AttributeError, match="immutable"):
            twin._c = ()


def test_types_with_the_same_fields_differ():
    assert knots.Mirror(T23) != knots.WhiteheadDouble(T23)
    assert knots.Mirror(T23) != knots.Mirror(knots.TorusKnot(2, 5))
    assert knots.TorusKnot(2, 3) != (2, 3)


def test_inherited_fields_come_first():
    assert signature.IndependenceCertificate._fields == ("checks", "conclusion_if_valid", "generators", "filtration_level")


def test_defaults_and_keywords():
    assert CertificateCheck("x", True).witness is None
    assert CertificateCheck(name="x", passed=True) == CertificateCheck("x", True, None)
    assert knots.GenusReport(1, 1) == knots.GenusReport(1, 1, None, None)
    assert cli.Result([], {}).status == "ok"
    assert ordered.EpsilonClass("K").source is None
    germ = upsilon.JumpGerm(Fraction(1, 2), Fraction(3))
    assert germ.source == "user-supplied"
    assert germ == upsilon.JumpGerm(Fraction(1, 2), jump_value=Fraction(3), source="user-supplied")


@pytest.mark.parametrize(
    "args, kwargs",
    [((2,), {}), ((2, 3, 5), {}), ((2,), {"p": 3}), ((2, 3), {"r": 1}), ((), {"q": 3})],
)
def test_wrong_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        knots.TorusKnot(*args, **kwargs)


def test_lex_element_drops_trailing_zeros():
    assert ordered.LexElement((1, 0, 0)) == ordered.LexElement((1,))
    assert ordered.LexElement((0, 0)).is_zero


U = knots.UNKNOT


@pytest.mark.parametrize(
    "make",
    [
        lambda: knots.TorusKnot(2, 4),
        lambda: knots.TorusKnot(1, 3),
        lambda: knots.Cable(U, 0, 1),
        lambda: knots.Cable(T23, 2, 4),
        lambda: knots.GenusReport(1, 2),
        lambda: knots.GenusReport(3, 1, slice_genus_hint=4, slice_genus_source="s"),
        lambda: knots.GenusReport(3, 1, slice_genus_hint=1),
        lambda: signature.SeifertMatrix(((0, 1),)),
        lambda: signature.SeifertMatrix(((0,),)),
        lambda: signature.SeifertMatrix(((0, 0), (0, 0))),
        lambda: upsilon.Staircase(()),
        lambda: upsilon.Staircase(((0, 1), (1, 1))),
        lambda: upsilon.Staircase(((0, 2), (1, 1), (1, 1), (2, 0))),
        lambda: upsilon.Staircase(((0, 3), (1, 2), (3, 0))),
        lambda: upsilon.JumpGerm(Fraction(2), Fraction(1)),
        lambda: upsilon.JumpGerm(Fraction(1, 2), Fraction(0)),
        lambda: upsilon.JumpGerm(Fraction(0), Fraction(1)),
        lambda: ordered.EpsilonClass("K", epsilon_sign=2),
        lambda: ordered.EpsilonClass("K", epsilon_sign=-1, a1=1),
        lambda: ordered.EpsilonClass("K", epsilon_sign=1, a2=1),
        lambda: ordered.EpsilonClass("K", epsilon_sign=1, a1=0),
        lambda: ordered.EpsilonClass("K", epsilon_sign=1, a1=1, a2=0),
        lambda: ordered.EpsilonClass("K", property_A=True),
    ],
)
def test_former_post_init_checks_raise(make):
    with pytest.raises(ValidationError):
        make()
