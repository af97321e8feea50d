"""Command-line front end: every invariant and certificate, one subcommand each.

Exit codes: 0 for a clean result, 1 for invalid inputs / invalid certificates /
inconclusive verdicts, 2 for usage errors and unexpected failures.  Artifacts
are written on request via --json / --csv / --svg.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import artifacts, knots, laurent, ordered, signature, upsilon
from .errors import (
    InsufficientDataError,
    JumpEvaluationError,
    KnotObsError,
    ParseError,
    RuleNotApplicableError,
    ValidationError,
)

_EXIT = {"ok": 0, "invalid": 1, "inconclusive": 1, "error": 2}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse rational {text!r}") from exc


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        p, q = (int(part) for part in text.split(","))
        return p, q
    except ValueError as exc:
        raise ValidationError(f"expected a pair like 5,7, got {text!r}") from exc


def _poly_or_alexander(text: str) -> tuple[laurent.LaurentPolynomial, str]:
    """Inputs that look like knot expressions are resolved through their
    Alexander polynomial; anything else must parse as polynomial text."""
    try:
        expr = knots.parse_knot(text)
        return knots.alexander(expr), f"alexander({knots.format_knot(expr)})"
    except ParseError:
        return laurent.parse_laurent(text), text


def _kv(key: str, value) -> None:
    print(f"{key:<22} {value}")


def _print_checks(checks) -> None:
    width = max(len(c.name) for c in checks)
    for c in checks:
        mark = "pass" if c.passed else "FAIL"
        line = f"  {c.name:<{width}}  {mark}"
        if c.witness:
            line += f"  {c.witness}"
        print(line)


# ---------------------------------------------------------------------------
# subcommand handlers: return (status, payload, provenance, extras)
# ---------------------------------------------------------------------------


def _cmd_alexander(args):
    expr = knots.parse_knot(args.expression)
    delta = knots.alexander(expr)
    _kv("knot", knots.format_knot(expr))
    _kv("alexander", laurent.format_laurent(delta))
    _kv("breadth", delta.breadth if not delta.is_zero else 0)
    payload = {
        "expression": knots.format_knot(expr),
        "alexander": laurent.format_laurent(delta),
        "breadth": delta.breadth,
    }
    status = "ok"
    if args.fox_milnor:
        fm = laurent.fox_milnor(delta)
        _kv("fox-milnor", "passes" if fm.passes else "fails")
        if fm.witness is not None:
            _kv("witness", laurent.format_laurent(fm.witness))
        for v in fm.violations:
            _kv("violation", v)
        payload["fox_milnor"] = fm.as_dict()
    return status, payload, [], {}


def _cmd_genus(args):
    expr = knots.parse_knot(args.expression)
    report = knots.genus(expr)
    _kv("knot", knots.format_knot(expr))
    _kv("seifert genus", report.seifert_genus)
    _kv("summand max genus", report.summand_max_genus)
    if report.slice_genus_hint is not None:
        _kv("slice genus hint", f"{report.slice_genus_hint} ({report.slice_genus_source})")
    prov = [report.slice_genus_source] if report.slice_genus_source else []
    return "ok", {"expression": knots.format_knot(expr), **report.as_dict()}, prov, {}


def _cmd_gsp_bound(args):
    expr = knots.parse_knot(args.expression)
    lower, upper = knots.gsp_bound_of_knot(expr)
    _kv("knot", knots.format_knot(expr))
    _kv("gsp lower bound", lower)
    _kv("gsp upper bound", upper)
    payload = {
        "expression": knots.format_knot(expr),
        "lower": str(lower),
        "upper": str(upper),
    }
    return "ok", payload, [], {}


def _cmd_fox_milnor(args):
    poly, shown = _poly_or_alexander(args.input)
    fm = laurent.fox_milnor(poly)
    _kv("input", shown)
    _kv("polynomial", laurent.format_laurent(poly))
    _kv("fox-milnor", "passes" if fm.passes else "fails")
    if fm.witness is not None:
        _kv("witness", laurent.format_laurent(fm.witness))
    for v in fm.violations:
        _kv("violation", v)
    return "ok", {"input": shown, **fm.as_dict()}, [], {}


def _cmd_factor(args):
    poly, shown = _poly_or_alexander(args.input)
    fac = laurent.factor(poly)
    _kv("input", shown)
    _kv("unit", laurent.format_laurent(fac.unit))
    for p, m in fac.factors:
        _kv("factor", f"({laurent.format_laurent(p)})^{m}")
    return "ok", {"input": shown, **fac.as_dict()}, [], {}


def _cmd_sig_jumps(args):
    expr = knots.parse_knot(args.expression)
    jf = signature.expression_jumps(expr)
    _kv("knot", knots.format_knot(expr))
    if jf:
        for x, j in jf.jumps.items():
            _kv(f"jump at {x}", f"{j:+d}")
    else:
        _kv("jumps", "none (signature identically 0)")
    payload = {"expression": knots.format_knot(expr), "jumps": jf.as_rows()}
    extras = {"jump_rows": jf.as_rows()}
    if args.at is not None:
        x = _parse_fraction(args.at)
        value = jf.step_at(x)
        _kv(f"signature at {x}", value)
        payload["signature_at"] = {"x": str(x), "value": value}
    return "ok", payload, [], extras


def _cmd_sig_certify(args):
    pairs = [_parse_pair(p) for p in args.pair]
    cert = signature.torus_independence_certificate(pairs, args.k)
    _kv("generators", ", ".join(f"T({p},{q})" for p, q in pairs))
    _kv("filtration level", args.k)
    _print_checks(cert.checks)
    _kv("certificate", "VALID" if cert.valid else "INVALID")
    _kv("conclusion", cert.conclusion)
    return ("ok" if cert.valid else "invalid"), cert.as_dict(), [], {}


def _cmd_upsilon(args):
    expr = knots.parse_knot(args.expression)
    fn = upsilon.upsilon_of_expression(expr)
    _kv("knot", knots.format_knot(expr))
    for t, v in fn.breakpoints():
        _kv(f"  t = {t}", v)
    sing = [str(t) for t in fn.singularities()]
    _kv("singularities", ", ".join(sing) if sing else "none")
    payload = {
        "expression": knots.format_knot(expr),
        "breakpoints": [[str(t), str(v)] for t, v in fn.breakpoints()],
        "singularities": sing,
    }
    extras = {"pl": fn, "title": f"Upsilon of {knots.format_knot(expr)}"}
    return "ok", payload, [], extras


def _cmd_upsilon_obstruct(args):
    if (args.expression is None) == (args.germ_index is None):
        raise ValidationError("provide exactly one of EXPRESSION or --germ-index")
    prov = []
    if args.germ_index is not None:
        source = upsilon.jprime_germ(args.germ_index)
        shown = f"Jprime_{args.germ_index} (germ)"
        prov.append(source.source)
    else:
        expr = knots.parse_knot(args.expression)
        source = upsilon.upsilon_of_expression(expr)
        shown = knots.format_knot(expr)
    verdict = upsilon.obstruct_Gn(source, args.genus_level)
    _kv("source", shown)
    _kv("genus level", args.genus_level)
    _kv("verdict", verdict.status)
    _kv("detail", verdict.detail)
    status = "ok" if verdict.status in ("obstructed", "not_obstructed") else "inconclusive"
    return status, {"source": shown, "genus_level": args.genus_level, **verdict.as_dict()}, prov, {}


def _cmd_upsilon_certify(args):
    cert = upsilon.summand_certificate_upsilon(args.k, args.max)
    _kv("family", f"J'_{args.k} .. J'_{args.max}")
    print("matrix (rows m, cols n; '.' = beyond certified germ range):")
    for row in cert.matrix:
        print("  " + " ".join(f"{str(v) if v is not None else '.':>3}" for v in row))
    _print_checks(cert.checks)
    _kv("certificate", "VALID" if cert.valid else "INVALID")
    _kv("conclusion", cert.conclusion)
    return ("ok" if cert.valid else "invalid"), cert.as_dict(), list(cert.provenance), {}


def _cmd_ordered_demo(args):
    results = ordered.run_property_suites(rank=args.rank, cases=args.cases, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"  {r.name:<{width}}  {r.cases:>5} cases  {r.failures} failures")
    all_ok = all(r.passed for r in results)
    _kv("suites", "ALL PASS" if all_ok else "FAILURES")
    payload = {
        "rank": args.rank,
        "cases": args.cases,
        "seed": args.seed,
        "suites": [r.as_dict() for r in results],
    }
    return ("ok" if all_ok else "invalid"), payload, [], {}


def _cmd_eps_obstruct(args):
    if (args.label is None) == (args.a1 is None):
        raise ValidationError("provide exactly one of --label or --a1/--a2")
    if args.label is not None:
        rec = ordered.registry_record(args.label)
    else:
        if args.a2 is None:
            raise ValidationError("--a1 requires --a2")
        rec = ordered.EpsilonClass(
            label="user-supplied", epsilon_sign=1, a1=args.a1, a2=args.a2,
            source="user-supplied",
        )
    outcome = ordered.epsilon_obstruction(rec, args.genus_level)
    _kv("record", rec.label)
    _kv("a-plus", f"(1, {rec.a2})" if rec.a1 == 1 else f"({rec.a1}, {rec.a2})")
    _kv("genus level", args.genus_level)
    _kv("verdict", outcome.status)
    _kv("detail", outcome.detail)
    prov = [rec.source] if rec.source else []
    status = "ok" if outcome.obstructs else "inconclusive"
    payload = {"record": rec.as_dict(), "genus_level": args.genus_level, **outcome.as_dict()}
    return status, payload, prov, {}


def _cmd_eps_certify(args):
    if args.family == "J":
        cert = ordered.summand_certificate_epsilon(args.k, args.max)
    else:
        cert = ordered.subgroup_certificate_epsilon(args.k, args.max)
    _kv("family", args.family)
    _print_checks(cert.checks)
    _kv("certificate", "VALID" if cert.valid else "INVALID")
    _kv("conclusion", cert.conclusion)
    return ("ok" if cert.valid else "invalid"), cert.as_dict(), list(cert.provenance), {}


def _cmd_family(args):
    expr = knots.family(args.name, args.n)
    report = knots.genus(expr)
    delta = knots.alexander(expr)
    _kv("family member", f"{args.name}_{args.n}")
    _kv("expression", knots.format_knot(expr))
    _kv("alexander", laurent.format_laurent(delta))
    _kv("seifert genus", report.seifert_genus)
    _kv("summand max genus", report.summand_max_genus)
    if report.slice_genus_hint is not None:
        _kv("slice genus hint", f"{report.slice_genus_hint} ({report.slice_genus_source})")
    payload = {
        "family": args.name,
        "n": args.n,
        "expression": knots.format_knot(expr),
        "alexander": laurent.format_laurent(delta),
        "genus": report.as_dict(),
    }
    prov = [report.slice_genus_source] if report.slice_genus_source else []
    return "ok", payload, prov, {}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotobs",
        description="Exact knot concordance obstructions: polynomial bounds, "
        "signature certificates, Upsilon calculus, ordered-group obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", metavar="PATH", help="write the JSON result envelope")
        return p

    p = add("alexander", _cmd_alexander, "Alexander polynomial of a knot expression")
    p.add_argument("expression")
    p.add_argument("--fox-milnor", action="store_true", help="run the slice condition")

    p = add("genus", _cmd_genus, "Seifert genus report of a knot expression")
    p.add_argument("expression")

    p = add("gsp-bound", _cmd_gsp_bound, "splitting concordance genus bounds")
    p.add_argument("expression")

    p = add("fox-milnor", _cmd_fox_milnor, "Fox-Milnor slice condition of a polynomial or knot")
    p.add_argument("input")

    p = add("factor", _cmd_factor, "irreducible factorization of a polynomial or knot's Alexander polynomial")
    p.add_argument("input")

    p = add("sig-jumps", _cmd_sig_jumps, "Tristram-Levine signature jumps of an expression")
    p.add_argument("expression")
    p.add_argument("--at", metavar="X", help="also evaluate the signature at rational X")
    p.add_argument("--csv", metavar="PATH", help="write x,jump rows")

    p = add("sig-certify", _cmd_sig_certify, "independence certificate for torus knots modulo genus k")
    p.add_argument("--pair", action="append", required=True, metavar="P,Q",
                   help="torus knot parameters, repeatable")
    p.add_argument("--k", type=int, required=True, help="filtration level")

    p = add("upsilon", _cmd_upsilon, "Upsilon function of a torus-knot expression")
    p.add_argument("expression")
    p.add_argument("--csv", metavar="PATH", help="write t,value breakpoint rows")
    p.add_argument("--svg", metavar="PATH", help="write a polyline plot")

    p = add("upsilon-obstruct", _cmd_upsilon_obstruct, "derivative-jump obstruction against genus-level sums")
    p.add_argument("expression", nargs="?", help="torus-knot expression")
    p.add_argument("--germ-index", type=int, help="use the published J' germ of this index")
    p.add_argument("--genus-level", type=int, required=True)

    p = add("upsilon-certify", _cmd_upsilon_certify, "triangular summand certificate from the J' germs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max", type=int, required=True)

    p = add("ordered-demo", _cmd_ordered_demo, "randomized property suites for the ordered-group model")
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--rank", type=int, default=ordered.DEFAULT_RANK)

    p = add("eps-obstruct", _cmd_eps_obstruct, "epsilon-class domination obstruction")
    p.add_argument("--label", help="registry record, e.g. J_5 or L_4")
    p.add_argument("--a1", type=int)
    p.add_argument("--a2", type=int)
    p.add_argument("--genus-level", type=int, required=True)

    p = add("eps-certify", _cmd_eps_certify, "epsilon summand/subgroup certificate from the registry")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--family", choices=["J", "L"], default="J")

    p = add("family", _cmd_family, "construct a family member J/Jprime/L")
    p.add_argument("name", choices=["J", "Jprime", "L"])
    p.add_argument("n", type=int)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status, payload, provenance, extras = args.handler(args)
    except Exception as exc:  # every failure, package error or defect, gets an exit code
        status, payload = _failure(exc)
        provenance, extras = [], {}
    try:
        _write_artifacts(args, status, payload, provenance, extras)
    except Exception as exc:  # an unwritable artifact path is an internal failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return _EXIT[status]


def _failure(exc: Exception) -> tuple[str, dict]:
    """Report an exception raised by a handler on stderr; return the status
    and payload of its result envelope."""
    if isinstance(exc, (ValidationError, InsufficientDataError, RuleNotApplicableError,
                        JumpEvaluationError)):
        print(f"invalid: {exc}", file=sys.stderr)
        payload = {"message": str(exc)}
        if isinstance(exc, JumpEvaluationError):
            payload.update(left=exc.left, right=exc.right)
        return "invalid", payload
    message = str(exc) if isinstance(exc, KnotObsError) else f"{type(exc).__name__}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return "error", {"message": message}


def _write_artifacts(args, status, payload, provenance, extras) -> None:
    if getattr(args, "json", None):
        doc = artifacts.result_envelope(args.command, status, payload, provenance)
        artifacts.write_json(args.json, doc)
        print(f"wrote {args.json}")
    if getattr(args, "csv", None):
        if "pl" in extras:
            artifacts.write_breakpoint_csv(args.csv, extras["pl"].breakpoints())
            print(f"wrote {args.csv}")
        elif "jump_rows" in extras:
            artifacts.write_jump_csv(args.csv, extras["jump_rows"])
            print(f"wrote {args.csv}")
    if getattr(args, "svg", None) and "pl" in extras:
        artifacts.write_polyline_svg(args.svg, extras["pl"].breakpoints(), extras["title"])
        print(f"wrote {args.svg}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
