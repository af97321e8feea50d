"""The committed answer corpus of the polynomial layer: for each input in
tests/answers.tsv, a short hash of its canonical answer, so that a change to
any answer names the inputs that moved.

The answer of an input is its `factor` payload, its `fox_milnor` verdict,
witness and violations, and its `gsp_lower_bound`; a call that raises gives
the error's type and message instead.  An input is a knot expression,
resolved through its Alexander polynomial, or polynomial text.  The corpus
holds J, J' and L for n = 2..12, every coprime T(p,q) with p < 14 and
q < 30 and T(p,q) # T(p,q), the `factor` polynomial inputs of the
`cli-obstruct-cold` benchmark workload for seeds 1-59, and 400 products
`oracles.random_factor_product(random.Random(2121))` in `format_laurent`
text, each input once.

After an intended answer change, rewrite the hashes with

    PYTHONPATH=src python tests/test_answers.py
"""

import hashlib
import json
from pathlib import Path

from knotobs import knots, laurent
from knotobs.errors import ParseError

ANSWERS = Path(__file__).parent / "answers.tsv"


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


def digest(text: str) -> str:
    canonical = json.dumps(answer(text), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def stored() -> dict[str, str]:
    lines = ANSWERS.read_text().splitlines()
    return dict(line.split("\t") for line in lines)


def test_answers_are_unchanged():
    moved = [text for text, h in stored().items() if digest(text) != h]
    assert not moved, f"{len(moved)} answers moved: {moved}"


def test_corpus_size():
    assert len(stored()) > 900


if __name__ == "__main__":
    ANSWERS.write_text("".join(f"{text}\t{digest(text)}\n" for text in stored()))
