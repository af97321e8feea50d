"""The committed answer corpus: for each input, a short hash of its canonical
answer, so that a change to any answer names the inputs that moved.

tests/answers.tsv holds the polynomial layer.

The answer of an input is its `factor` payload, its `fox_milnor` verdict,
witness and violations, and its `gsp_lower_bound`; a call that raises gives
the error's type and message instead.  An input is a knot expression,
resolved through its Alexander polynomial, or polynomial text.  The corpus
holds J, J' and L for n = 2..12, every coprime T(p,q) with p < 14 and
q < 30 and T(p,q) # T(p,q), the `factor` polynomial inputs of the
`cli-obstruct-cold` benchmark workload for seeds 1-59, 400 products
`oracles.random_factor_product(random.Random(2121))` in `format_laurent`
text, and the 58 distinct of 60 products
`oracles.random_slice_product(random.Random(2222))`, which all pass
Fox-Milnor, 53 with a non-cyclotomic factor in the witness; each input once.

tests/jump_answers.tsv holds the jump functions.  The answer of a knot
expression is its Upsilon breakpoints and its signature jumps, each as the
CLI's JSON payload writes them, or the error.  The corpus holds every
coprime T(p,q) with p < 14 and q < 30, and 20 sums
`oracles.random_torus_sum(random.Random(2223), pairs)` over those (p, q).

tests/certificate_answers.tsv holds the certificates.  An input is a call,
written as its function name and integer arguments, and its answer is the
result's `as_dict()` or the error.  The corpus holds
`summand_certificate_epsilon(k, n)` for 2 <= k <= n <= 17,
`subgroup_certificate_epsilon(k, n)` for 1 <= k <= 8 and 2k <= n <= 17,
`epsilon_obstruction(registry_record(label), g)` for every registry label
and g = 1..9, and `summand_certificate_upsilon(k, n)` for
2 <= k <= n <= 20.  n = 17 has no record, and the J' records carry no
a-plus data, so those inputs answer with the error.

After an intended answer change, rewrite the hashes with

    PYTHONPATH=src python tests/test_answers.py
"""

import hashlib
import json
from pathlib import Path

from knotobs import knots, laurent, ordered, signature, upsilon
from knotobs.errors import ParseError

ANSWERS = Path(__file__).parent / "answers.tsv"
JUMP_ANSWERS = Path(__file__).parent / "jump_answers.tsv"
CERTIFICATE_ANSWERS = Path(__file__).parent / "certificate_answers.tsv"


def polynomial(text: str) -> laurent.LaurentPolynomial:
    try:
        return knots.alexander(knots.parse_knot(text))
    except ParseError:
        return laurent.parse_laurent(text)


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def answer(text: str) -> dict:
    f = polynomial(text)

    def fox_milnor():
        fm = laurent.fox_milnor(f).as_dict()
        return {key: fm[key] for key in ("passes", "witness", "violations")}

    return {
        "factor": _outcome(lambda: laurent.factor(f).as_dict()),
        "fox_milnor": _outcome(fox_milnor),
        "gsp_lower_bound": _outcome(lambda: str(laurent.gsp_lower_bound(f))),
    }


def jump_answer(text: str) -> dict:
    expr = knots.parse_knot(text)

    def breakpoints():
        return [[str(t), str(v)] for t, v in upsilon.upsilon_of_expression(expr).breakpoints()]

    return {
        "upsilon": _outcome(breakpoints),
        "jumps": _outcome(lambda: signature.expression_jumps(expr).as_rows()),
    }


CERTIFIERS = {
    "summand_certificate_epsilon": ordered.summand_certificate_epsilon,
    "subgroup_certificate_epsilon": ordered.subgroup_certificate_epsilon,
    "epsilon_obstruction": lambda label, g: ordered.epsilon_obstruction(ordered.registry_record(label), g),
    "summand_certificate_upsilon": upsilon.summand_certificate_upsilon,
}


def certificate_answer(text: str) -> dict:
    """`text` is a call: the function name, then its arguments; an argument
    that is not an integer is a registry label."""
    name, *args = text.split()
    args = [int(a) if a.isdigit() else a for a in args]
    return _outcome(lambda: CERTIFIERS[name](*args).as_dict())


CORPORA = {ANSWERS: answer, JUMP_ANSWERS: jump_answer, CERTIFICATE_ANSWERS: certificate_answer}


def digest(text: str, path=ANSWERS) -> str:
    canonical = json.dumps(CORPORA[path](text), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def stored(path=ANSWERS) -> dict[str, str]:
    lines = path.read_text().splitlines()
    return dict(line.split("\t") for line in lines)


def test_answers_are_unchanged():
    moved = [text for text, h in stored().items() if digest(text) != h]
    assert not moved, f"{len(moved)} answers moved: {moved}"


def test_jump_answers_are_unchanged():
    moved = [text for text, h in stored(JUMP_ANSWERS).items() if digest(text, JUMP_ANSWERS) != h]
    assert not moved, f"{len(moved)} answers moved: {moved}"


def test_certificate_answers_are_unchanged():
    moved = [text for text, h in stored(CERTIFICATE_ANSWERS).items() if digest(text, CERTIFICATE_ANSWERS) != h]
    assert not moved, f"{len(moved)} answers moved: {moved}"


def test_corpus_size():
    assert len(stored()) > 900
    assert len(stored(JUMP_ANSWERS)) > 180
    assert len(stored(CERTIFICATE_ANSWERS)) > 800


if __name__ == "__main__":
    for path in CORPORA:
        path.write_text("".join(f"{text}\t{digest(text, path)}\n" for text in stored(path)))
