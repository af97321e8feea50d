"""Checks of each workload's outputs against the reference computations.

A verifier takes what one operation produced and returns a list of problems
(empty when the output is right).  Outputs are deterministic, so the caller
verifies each distinct output once and compares later ones to it.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checks as C


def centered(poly: dict) -> dict:
    """The symmetric normalization knotobs prints for Alexander polynomials."""
    low, high = min(poly), max(poly)
    return {e - (low + high) // 2: c for e, c in poly.items()}


def key_values(stdout: str) -> dict[str, list[str]]:
    """Lines printed as ``f"{key:<22} {value}"``, grouped by key."""
    out: dict[str, list[str]] = {}
    for line in stdout.splitlines():
        if len(line) > 23 and line[22] == " " and not line.startswith(" "):
            out.setdefault(line[:22].strip(), []).append(line[23:].strip())
    return out


def _one(kv: dict, key: str) -> str:
    values = kv.get(key)
    if not values or len(values) != 1:
        raise KeyError(f"expected one {key!r} line, got {values}")
    return values[0]


class Verifier:
    def __init__(self, src: Path):
        self.schemas = C.Schemas(src / "knotobs" / "schemas")
        self.registry = json.loads((src / "knotobs" / "data" / "epsilon_registry.json").read_text())

    # -- envelopes ----------------------------------------------------------

    def envelope(self, path: Path, command: str, payload_schema: str | None = None) -> tuple[dict, list[str]]:
        if not path.is_file():
            return {}, [f"{path.name} was not written"]
        doc = json.loads(path.read_text())
        problems = self.schemas.problems(doc, "command_result.schema.json")
        if doc.get("command") != command or doc.get("status") != "ok":
            problems.append(f"envelope command/status {doc.get('command')}/{doc.get('status')}")
        if payload_schema and not problems:
            problems += self.schemas.problems(doc["payload"], payload_schema)
        return doc.get("payload", {}), problems

    # -- cli-obstruct-cold --------------------------------------------------

    def obstruct(self, op: dict, stdout: str, workdir: Path) -> list[str]:
        command = op["argv"][0]
        payload, problems = self.envelope(workdir / "out.json", command)
        if problems:
            return problems
        truth = op["truth"]
        kind = truth["kind"]
        if kind == "product":
            poly = {int(e): c for e, c in truth["poly"].items()}
            return C.check_factor_payload(poly, payload)
        if kind == "torus":
            p, q = truth["p"], truth["q"]
            poly, expected = C.torus_delta(p, q), C.torus_factor_counter(p, q)
            gsp = C.torus_gsp(p, q)
            sympy_square = None
        elif kind == "square":
            p, q = truth["p"], truth["q"]
            poly = C.power(C.torus_delta(p, q), 2)
            expected = C.torus_factor_counter(p, q, 2)
            gsp = (Fraction(0), Fraction((p - 1) * (q - 1), 2))
            sympy_square = (p, q)
        else:
            name, n = truth["name"], truth["n"]
            pq = C.family_torus(name, n)
            poly = C.power(C.torus_delta(*pq), 2) if pq else {0: 1}
            expected = C.torus_factor_counter(*pq, 2) if pq else Counter()
            gsp = (Fraction(0), Fraction(C.family_gsp_upper(name, n)))
            sympy_square = pq
        poly = centered(poly)
        if command == "gsp-bound":
            got = (Fraction(payload["lower"]), Fraction(payload["upper"]))
            return [] if got == gsp else [f"gsp bounds {got}, expected {gsp}"]
        if command == "factor":
            problems = C.check_factor_payload(poly, payload, expected)
            factored = C.expand_factorization(payload)
        elif command == "fox-milnor":
            # a torus knot's cyclotomic factors each occur once, so it fails
            problems = C.check_fox_milnor(poly, payload, kind != "torus")
            factored = C.expand_factorization(payload["factorization"])
        elif command == "alexander":
            factored = C.parse_canonical(payload["alexander"])
            if factored != poly:
                problems.append("Alexander polynomial differs from the closed form")
            problems += C.check_fox_milnor(poly, payload["fox_milnor"], True)
        else:
            return [f"no check for {command}"]
        if sympy_square and not C.sympy_square_of_torus(factored, *sympy_square):
            problems.append(f"sympy: Delta is not the square of Delta_T{sympy_square}")
        return problems

    # -- cli-readme ---------------------------------------------------------

    def readme(self, op: dict, stdout: str, workdir: Path) -> list[str]:
        argv = op["argv"]
        kv = key_values(stdout)
        command = argv[0]
        if command == "gsp-bound":
            got = (Fraction(_one(kv, "gsp lower bound")), Fraction(_one(kv, "gsp upper bound")))
            return [] if got == C.torus_gsp(3, 5) else [f"gsp bounds {got}"]
        if command == "alexander":
            delta = C.power({-1: 1, 0: -1, 1: 1}, 2)
            problems = [] if C.parse_canonical(_one(kv, "alexander")) == delta else ["Alexander polynomial"]
            if _one(kv, "fox-milnor") != "passes":
                return problems + ["fox-milnor should pass"]
            w = C.parse_canonical(_one(kv, "witness"))
            if not C.same_up_to_unit(C.mul(w, C.reciprocal(w)), delta):
                problems.append("witness does not reproduce Delta")
            return problems
        if command == "factor":
            payload = {
                "unit": _one(kv, "unit"),
                "factors": [
                    {"factor": f.rsplit(")^", 1)[0][1:], "multiplicity": int(f.rsplit(")^", 1)[1])}
                    for f in kv.get("factor", [])
                ],
            }
            return C.check_factor_payload({-1: 1, 0: -1, 1: 1}, payload)
        if command == "genus":
            # g(K_{3,1}) = 3 g(Wh T(2,3)) + 0 = 3
            got = (int(_one(kv, "seifert genus")), int(_one(kv, "summand max genus")))
            return [] if got == (3, 3) else [f"genus {got}"]
        if command == "family":
            payload, problems = self.envelope(workdir / "l4.json", "family")
            if problems:
                return problems
            genus = payload["genus"]
            # L_4 = (Wh T(2,3))_{4,1} # -(Wh T(2,3))_{3,1}: genera 4 and 3, Delta = 1
            if (payload["alexander"], genus["seifert_genus"], genus["summand_max_genus"], genus["slice_genus_hint"]) != ("1*t^0", 7, 4, 1):
                return [f"family L 4 payload {payload}"]
            return []
        if command == "sig-jumps":
            rows = [dict(zip(("x", "jump"), line.split(","))) for line in (workdir / "jumps.csv").read_text().split()[1:]]
            problems = C.check_jump_rows(rows, [(3, 4, 1)])
            if int(_one(kv, "signature at 1/2")) != C.litherland_signature(3, 4, Fraction(1, 2)):
                problems.append("signature at 1/2")
            return problems
        if command == "sig-certify":
            payload, problems = self.envelope(workdir / "cert.json", "sig-certify", "signature_certificate.schema.json")
            return problems + self._signature_certificate(payload, [[5, 7], [11, 13], [17, 19]], 4)
        if command == "upsilon":
            rows = [line.split(",") for line in (workdir / "u.csv").read_text().split()[1:]]
            problems = C.check_upsilon(rows, [(3, 4, 1)])
            polyline = ET.parse(workdir / "u.svg").getroot().find("{http://www.w3.org/2000/svg}polyline")
            if polyline is None or len(polyline.get("points").split()) != len(rows):
                problems.append("SVG polyline does not carry one point per breakpoint")
            return problems
        if command == "upsilon-obstruct":
            # published germ of J'_n: first derivative jump 2n-1 at t = 2/(2n-1);
            # it obstructs genus level g when 2/(2n-1) < 1/g
            n, g = 5, 2
            expected = "obstructed" if Fraction(2, 2 * n - 1) < Fraction(1, g) else "not_obstructed"
            if _one(kv, "verdict") != expected or f"{2 * n - 1} at {Fraction(2, 2 * n - 1)}" not in _one(kv, "detail"):
                return [f"upsilon-obstruct verdict {kv.get('verdict')} {kv.get('detail')}"]
            return []
        if command == "upsilon-certify":
            payload, problems = self.envelope(workdir / "ucert.json", "upsilon-certify", "upsilon_certificate.schema.json")
            return problems or self._upsilon_certificate(payload)
        if command == "eps-obstruct":
            record = next(r for r in self.registry["records"] if r["label"] == "L_5")
            g = 2
            expected = "obstructs" if record["a1"] == 1 and record["a2"] >= 2 * g else None
            return [] if _one(kv, "verdict") == expected else [f"eps-obstruct verdict {kv.get('verdict')}"]
        if command == "eps-certify":
            if "--json" in argv:
                payload, problems = self.envelope(workdir / "ecert.json", "eps-certify", "epsilon_certificate.schema.json")
                return problems or self._epsilon_certificate(payload, "J", 2, 8)
            lines = [line for line in stdout.splitlines() if line.startswith("  ")]
            if _one(kv, "certificate") != "VALID" or not lines or any(line.split()[1] != "pass" for line in lines):
                return ["eps-certify L is not valid with every check passing"]
            return []
        if command == "ordered-demo":
            suites = [line.split() for line in stdout.splitlines() if line.startswith("  ")]
            if len(suites) != 6 or any(s[1:] != ["1000", "cases", "0", "failures"] for s in suites):
                return [f"ordered-demo suites {suites}"]
            return [] if _one(kv, "suites") == "ALL PASS" else ["ordered-demo summary"]
        return [f"no check for {command}"]

    # -- certificates -------------------------------------------------------

    def _signature_certificate(self, cert: dict, pairs, k: int) -> list[str]:
        problems = [] if cert.get("valid") is True else ["signature certificate is not valid"]
        products = [p * q for p, q in pairs]
        primes = all(C.totient(x) == x - 1 for pq in pairs for x in pq)
        if not (len(set(products)) == len(products) and primes and all(2 * k < (p - 1) * (q - 1) for p, q in pairs)):
            problems.append("hypotheses of the independence certificate do not hold")
        if cert.get("generators") != pairs:
            problems.append("certificate generators")
        return problems

    def _upsilon_certificate(self, cert: dict) -> list[str]:
        m = cert["matrix"]
        triangular = all(
            (m[i][j] == "1") if i == j else (m[i][j] is None if j > i else True)
            for i in range(len(m))
            for j in range(len(m[i]))
        )
        if not (cert["valid"] and triangular and len(m) == cert["n_max"] - cert["k"] + 1):
            return ["Upsilon certificate is not a valid unit lower-triangular matrix"]
        return []

    def _epsilon_certificate(self, cert: dict, family: str, start: int, n_max: int) -> list[str]:
        """Valid, with every check passing and every record start..n_max named;
        the published records themselves must form a chain a-plus = (1, a2)
        with a2 strictly increasing, which is what the certificate rests on."""
        labels = [f"{family}_{n}" for n in range(start, n_max + 1)]
        named = {c["name"].split("[", 1)[1].split("]")[0].split(",")[0] for c in cert["checks"] if "[" in c["name"]}
        records = {r["label"]: r for r in self.registry["records"]}
        a2 = [records[label]["a2"] for label in labels]
        chain = all(records[label]["a1"] == 1 for label in labels) and all(x < y for x, y in zip(a2, a2[1:]))
        if not (cert["valid"] and all(c["passed"] for c in cert["checks"]) and set(labels) <= named and chain):
            return [f"epsilon certificate for {family}_{start}..{n_max} is not valid over every record"]
        return []

    # -- library-sweep-warm -------------------------------------------------

    def library(self, op: dict, out) -> list[str]:
        kind = op["kind"]
        if kind == "upsilon":
            return C.check_upsilon(out, op["terms"])
        if kind == "jumps":
            return C.check_jump_rows(out, op["terms"])
        if kind == "signature_at":
            ref = [C.sum_signature(op["terms"], Fraction(x)) for x in op["xs"]]
            return [] if out == ref else [f"signature_at {out}, Litherland {ref}"]
        if kind == "seifert":
            return C.check_seifert(out["V"], op["p"], op["q"], op["xs"], out["values"])
        if kind in ("factor", "fox_milnor", "gsp_lower_bound"):
            pq = C.family_torus(op["name"], op["n"])
            poly = centered(C.power(C.torus_delta(*pq), 2)) if pq else {0: 1}
            given = C.parse_canonical(out["input"])
            problems = [] if given == poly else ["family Alexander polynomial differs from the closed form"]
            if pq and not C.sympy_square_of_torus(given, *pq):
                problems.append("sympy: family Delta is not a square of the torus Delta")
            if kind == "factor":
                expected = C.torus_factor_counter(*pq, 2) if pq else Counter()
                return problems + C.check_factor_payload(poly, out["result"], expected)
            if kind == "fox_milnor":
                return problems + C.check_fox_milnor(poly, out["result"], True)
            return problems + ([] if Fraction(out["result"]) == 0 else [f"gsp lower bound {out['result']}, expected 0"])
        if kind == "sig_certificate":
            return self.schemas.problems(out, "signature_certificate.schema.json") + self._signature_certificate(out, op["pairs"], op["k"])
        if kind == "upsilon_certificate":
            return self.schemas.problems(out, "upsilon_certificate.schema.json") or self._upsilon_certificate(out)
        if kind in ("epsilon_summand", "epsilon_subgroup"):
            family, start = ("J", op["k"]) if kind == "epsilon_summand" else ("L", 2 * op["k"])
            return self.schemas.problems(out, "epsilon_certificate.schema.json") or self._epsilon_certificate(out, family, start, op["max"])
        return [f"no check for {kind}"]
