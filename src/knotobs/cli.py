"""Command-line front end: every invariant and certificate, one subcommand each.

Exit codes: 0 for a clean result, 1 for invalid inputs / invalid certificates /
inconclusive verdicts, 2 for usage errors and unexpected failures.  Artifacts
are written on request via --json / --csv / --svg.  A knot expression's
Delta and factors come from `knots.alexander` and
`knots.alexander_factorization`; only polynomial text reaches `laurent.factor`.
"""

from __future__ import annotations

import importlib
import re
import sys
from fractions import Fraction
from itertools import takewhile

from .errors import (
    InsufficientDataError,
    JumpEvaluationError,
    KnotObsError,
    ParseError,
    RuleNotApplicableError,
    ValidationError,
)
from .reporting import Record, plain

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


def _knot_or_text(text: str) -> tuple[str, knots.KnotExpression | None, laurent.LaurentPolynomial | None]:
    """(shown, expression, polynomial) of a `factor` or `fox-milnor` input:
    a knot expression and None, or None and parsed polynomial text."""
    from . import knots, laurent

    try:
        expr = knots.parse_knot(text)
    except ParseError:
        return text, None, laurent.parse_laurent(text)
    return f"alexander({knots.format_knot(expr)})", expr, None


class Result(Record):
    """One subcommand's result: the rows it prints, its envelope and the data
    of its --csv and --svg artifacts.  A row is a `(key, value)` pair or a
    string printed as it is.  `csv` is `(header, rows)` and `svg` is
    `(points, title)`."""

    __slots__ = ("lines", "payload", "status", "provenance", "csv", "svg")
    _defaults = {"status": "ok", "provenance": (), "csv": None, "svg": None}


def _print(lines) -> None:
    for line in lines:
        print(line if isinstance(line, str) else f"{line[0]:<22} {line[1]}")


def _certificate(cert, head: list, provenance=()) -> Result:
    """`head`, one row per check, then the verdict and the conclusion."""
    width = max(len(c.name) for c in cert.checks)
    checks = [
        f"  {c.name:<{width}}  {'pass' if c.passed else 'FAIL'}"
        + (f"  {c.witness}" if c.witness else "")
        for c in cert.checks
    ]
    verdict = [("certificate", "VALID" if cert.valid else "INVALID"), ("conclusion", cert.conclusion)]
    lines = [*head, *checks, *verdict]
    return Result(lines, cert.as_dict(), "ok" if cert.valid else "invalid", provenance)


def _fox_milnor_lines(fm: laurent.FoxMilnorResult) -> list:
    from . import laurent

    lines = [("fox-milnor", "passes" if fm.passes else "fails")]
    if fm.witness is not None:
        lines.append(("witness", laurent.format_laurent(fm.witness)))
    return lines + [("violation", v) for v in fm.violations]


def _genus_lines(report: knots.GenusReport) -> list:
    lines = [
        ("seifert genus", report.seifert_genus),
        ("summand max genus", report.summand_max_genus),
    ]
    if report.slice_genus_hint is not None:
        hint = f"{report.slice_genus_hint} ({report.slice_genus_source})"
        lines.append(("slice genus hint", hint))
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a Result and imports the layers it runs,
# which COMMANDS lists so that run() loads them before any parser is built
# ---------------------------------------------------------------------------


def _cmd_alexander(args):
    from . import knots, laurent

    expr = knots.parse_knot(args.expression)
    delta = knots.alexander(expr)
    shown, poly = knots.format_knot(expr), laurent.format_laurent(delta)
    lines = [("knot", shown), ("alexander", poly), ("breadth", delta.breadth)]
    payload = {"expression": shown, "alexander": poly, "breadth": delta.breadth}
    if args.fox_milnor:
        fm = laurent.fox_milnor_of_factorization(delta, knots.alexander_factorization(expr))
        lines += _fox_milnor_lines(fm)
        payload["fox_milnor"] = fm.as_dict()
    return Result(lines, payload)


def _cmd_genus(args):
    from . import knots

    expr = knots.parse_knot(args.expression)
    report = knots.genus(expr)
    shown = knots.format_knot(expr)
    prov = (report.slice_genus_source,) if report.slice_genus_source else ()
    payload = {"expression": shown, **report.as_dict()}
    return Result([("knot", shown), *_genus_lines(report)], payload, provenance=prov)


def _cmd_gsp_bound(args):
    from . import knots

    expr = knots.parse_knot(args.expression)
    lower, upper = knots.gsp_bound_of_knot(expr)
    shown = knots.format_knot(expr)
    lines = [("knot", shown), ("gsp lower bound", lower), ("gsp upper bound", upper)]
    return Result(lines, {"expression": shown, "lower": str(lower), "upper": str(upper)})


def _cmd_fox_milnor(args):
    from . import knots, laurent

    shown, expr, poly = _knot_or_text(args.input)
    if expr is not None:
        poly, fac = knots.alexander(expr), knots.alexander_factorization(expr)
    fm = laurent.fox_milnor(poly) if expr is None else laurent.fox_milnor_of_factorization(poly, fac)
    lines = [("input", shown), ("polynomial", laurent.format_laurent(poly)), *_fox_milnor_lines(fm)]
    return Result(lines, {"input": shown, **fm.as_dict()})


def _cmd_factor(args):
    from . import knots, laurent

    shown, expr, poly = _knot_or_text(args.input)
    fac = laurent.factor(poly) if expr is None else knots.alexander_factorization(expr)
    lines = [("input", shown), ("unit", laurent.format_laurent(fac.unit))]
    lines += [("factor", f"({laurent.format_laurent(p)})^{m}") for p, m in fac.factors]
    return Result(lines, {"input": shown, **fac.as_dict()})


def _cmd_sig_jumps(args):
    from . import knots, signature

    expr = knots.parse_knot(args.expression)
    jf = signature.expression_jumps(expr)
    shown = knots.format_knot(expr)
    # each location is formatted once, for the rows, the envelope and the CSV
    jumps = [(str(x), j) for x, j in jf._located()]
    lines = [("knot", shown)]
    if jumps:
        lines += [(f"jump at {x}", f"{j:+d}") for x, j in jumps]
    else:
        lines.append(("jumps", "none (signature identically 0)"))
    payload = {"expression": shown, "jumps": [{"x": x, "jump": j} for x, j in jumps]}
    if args.at is not None:
        x = _parse_fraction(args.at)
        value = signature.signature_at(expr, x)
        lines.append((f"signature at {x}", value))
        payload["signature_at"] = {"x": str(x), "value": value}
    return Result(lines, payload, csv=(("x", "jump"), jumps))


def _cmd_sig_certify(args):
    from . import signature

    pairs = [_parse_pair(p) for p in args.pair]
    cert = signature.torus_independence_certificate(pairs, args.k)
    head = [("generators", ", ".join(f"T({p},{q})" for p, q in pairs)), ("filtration level", args.k)]
    return _certificate(cert, head)


def _cmd_upsilon(args):
    from . import knots, upsilon

    expr = knots.parse_knot(args.expression)
    fn = upsilon.upsilon_of_expression(expr)
    shown = knots.format_knot(expr)
    points = fn.breakpoints()
    sing = plain(fn.singularities())
    lines = [("knot", shown), *((f"  t = {t}", v) for t, v in points)]
    lines.append(("singularities", ", ".join(sing) if sing else "none"))
    payload = {
        "expression": shown,
        "breakpoints": plain(points),
        "singularities": sing,
    }
    return Result(lines, payload, csv=(("t", "value"), points), svg=(points, f"Upsilon of {shown}"))


def _cmd_upsilon_obstruct(args):
    from . import upsilon

    if (args.expression is None) == (args.germ_index is None):
        raise ValidationError("provide exactly one of EXPRESSION or --germ-index")
    prov = ()
    if args.germ_index is not None:
        source = upsilon.jprime_germ(args.germ_index)
        shown = f"Jprime_{args.germ_index} (germ)"
        prov = (source.source,)
    else:
        from . import knots

        expr = knots.parse_knot(args.expression)
        source = upsilon.upsilon_of_expression(expr)
        shown = knots.format_knot(expr)
    verdict = upsilon.obstruct_Gn(source, args.genus_level)
    lines = [("source", shown), ("genus level", args.genus_level),
             ("verdict", verdict.status), ("detail", verdict.detail)]
    payload = {"source": shown, "genus_level": args.genus_level, **verdict.as_dict()}
    return Result(lines, payload, provenance=prov)


def _cmd_upsilon_certify(args):
    from . import upsilon

    cert = upsilon.summand_certificate_upsilon(args.k, args.max)
    head = [
        ("family", f"J'_{args.k} .. J'_{args.max}"),
        "matrix (rows m, cols n; '.' = beyond certified germ range):",
        *("  " + " ".join(f"{'.' if v is None else str(v):>3}" for v in row) for row in cert.matrix),
    ]
    return _certificate(cert, head, cert.provenance)


def _cmd_ordered_demo(args):
    from . import ordered

    results = ordered.run_property_suites(cases=args.cases, seed=args.seed)
    width = max(len(r.name) for r in results)
    lines = [f"  {r.name:<{width}}  {r.cases:>5} cases  {r.failures} failures" for r in results]
    all_ok = all(r.passed for r in results)
    lines.append(("suites", "ALL PASS" if all_ok else "FAILURES"))
    payload = {
        "rank": ordered.DEFAULT_RANK,
        "cases": args.cases,
        "seed": args.seed,
        "suites": plain(results),
    }
    return Result(lines, payload, "ok" if all_ok else "invalid")


def _cmd_eps_obstruct(args):
    from . import ordered

    given = (args.label is not None, args.a1 is not None, args.a2 is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise ValidationError("provide either --label or both --a1 and --a2")
    if args.label is not None:
        rec = ordered.registry_record(args.label)
    else:
        rec = ordered.EpsilonClass(
            label="user-supplied", epsilon_sign=1, a1=args.a1, a2=args.a2,
            source="user-supplied",
        )
    outcome = ordered.epsilon_obstruction(rec, args.genus_level)
    lines = [("record", rec.label), ("a-plus", f"({rec.a1}, {rec.a2})"),
             ("genus level", args.genus_level), ("verdict", outcome.status),
             ("detail", outcome.detail)]
    payload = {"record": rec.as_dict(), "genus_level": args.genus_level, **outcome.as_dict()}
    prov = (rec.source,) if rec.source else ()
    return Result(lines, payload, "ok" if outcome.obstructs else "inconclusive", prov)


def _cmd_eps_certify(args):
    from . import ordered

    if args.family == "J":
        cert = ordered.summand_certificate_epsilon(args.k, args.max)
    else:
        cert = ordered.subgroup_certificate_epsilon(args.k, args.max)
    return _certificate(cert, [("family", args.family)], cert.provenance)


def _cmd_family(args):
    from . import knots, laurent

    expr = knots.family(args.name, args.n)
    report = knots.genus(expr)
    delta = knots.alexander(expr)
    shown, poly = knots.format_knot(expr), laurent.format_laurent(delta)
    lines = [("family member", f"{args.name}_{args.n}"), ("expression", shown),
             ("alexander", poly), *_genus_lines(report)]
    payload = {
        "family": args.name,
        "n": args.n,
        "expression": shown,
        "alexander": poly,
        "genus": report.as_dict(),
    }
    prov = (report.slice_genus_source,) if report.slice_genus_source else ()
    return Result(lines, payload, provenance=prov)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _arg(flag: str, **options) -> tuple[str, dict]:
    return flag, options


# name: (help, the knotobs layers its handler runs, arguments); the
# handler of "x-y" is _cmd_x_y, looked up when its parser is built
COMMANDS = {
    "alexander": ("Alexander polynomial of a knot expression", ("knots", "laurent"), [
        _arg("expression"),
        _arg("--fox-milnor", action="store_true", help="run the slice condition"),
    ]),
    "genus": ("Seifert genus report of a knot expression", ("knots",), [
        _arg("expression"),
    ]),
    "gsp-bound": ("splitting concordance genus bounds", ("knots", "laurent"), [
        _arg("expression"),
    ]),
    "fox-milnor": ("Fox-Milnor slice condition of a polynomial or knot", ("knots", "laurent"), [
        _arg("input"),
    ]),
    "factor": ("irreducible factorization of a polynomial or knot's Alexander polynomial",
               ("knots", "laurent"), [
        _arg("input"),
    ]),
    "sig-jumps": ("Tristram-Levine signature jumps of an expression", ("knots", "signature"), [
        _arg("expression"),
        _arg("--at", metavar="X", help="also evaluate the signature at rational X"),
        _arg("--csv", metavar="PATH", help="write x,jump rows"),
    ]),
    "sig-certify": ("independence certificate for torus knots modulo genus k", ("signature",), [
        _arg("--pair", action="append", required=True, metavar="P,Q", help="torus knot parameters, repeatable"),
        _arg("--k", type=int, required=True, help="filtration level"),
    ]),
    "upsilon": ("Upsilon function of a torus-knot expression", ("knots", "upsilon"), [
        _arg("expression"),
        _arg("--csv", metavar="PATH", help="write t,value breakpoint rows"),
        _arg("--svg", metavar="PATH", help="write a polyline plot"),
    ]),
    # an EXPRESSION also loads knots, in the handler, so --germ-index loads no polynomial code
    "upsilon-obstruct": ("derivative-jump obstruction against genus-level sums", ("upsilon",), [
        _arg("expression", nargs="?", help="torus-knot expression"),
        _arg("--germ-index", type=int, help="use the published J' germ of this index"),
        _arg("--genus-level", type=int, required=True),
    ]),
    "upsilon-certify": ("triangular summand certificate from the J' germs", ("upsilon",), [
        _arg("--k", type=int, required=True),
        _arg("--max", type=int, required=True),
    ]),
    "ordered-demo": ("randomized property suites for the ordered-group model", ("ordered",), [
        _arg("--seed", type=int, default=2025),
        _arg("--cases", type=int, default=1000),
    ]),
    "eps-obstruct": ("epsilon-class domination obstruction", ("ordered",), [
        _arg("--label", help="registry record, e.g. J_5 or L_4"),
        _arg("--a1", type=int),
        _arg("--a2", type=int),
        _arg("--genus-level", type=int, required=True),
    ]),
    "eps-certify": ("epsilon summand/subgroup certificate from the registry", ("ordered",), [
        _arg("--k", type=int, required=True),
        _arg("--max", type=int, required=True),
        _arg("--family", choices=["J", "L"], default="J"),
    ]),
    "family": ("construct a family member J/Jprime/L", ("knots", "laurent"), [
        _arg("name", choices=["J", "Jprime", "L"]),
        _arg("n", type=int),
    ]),
}


def _add_arguments(parser, name: str):
    """Give `parser` the arguments of command `name`; returns it."""
    _, _, arguments = COMMANDS[name]
    # a lone "-T(2,3)" or "-t" names no option, so it is read as positional
    parser._negative_number_matcher = re.compile(r"-[^-]")
    parser.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    parser.add_argument("--json", metavar="PATH", help="write the JSON result envelope")
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="knotobs",
        description="Exact knot concordance obstructions: polynomial bounds, "
        "signature certificates, Upsilon calculus, ordered-group obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _refuse_attached_help(parser, options) -> None:
    """Make "-h" with text attached, such as "-hT(2,3)", a usage error on
    every Python version: 3.13 would print help and drop the text, and
    earlier versions refuse it in these words."""
    for arg in options:
        attached = arg[1:].lstrip("h") if arg[:2] == "-h" else ""
        if attached and attached[0] not in "-=":
            parser.error(f"argument -h/--help: ignored explicit argument {attached!r}")


def _parse_args(argv: list[str]):
    """The parsed arguments of `argv`; SystemExit on help or a usage error.

    When argv[0] names a command, its layers are imported first, so that they
    compile before argparse is loaded, and only its parser is built: the
    parser that `build_parser` gives it as a subcommand.  Arguments that
    parser leaves over, and every argv that names no command, go through
    the parser of every command, which words each usage error."""
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is not None:
        for layer in spec[1]:
            importlib.import_module(f"{__package__}.{layer}")
        import argparse

        parser = _add_arguments(argparse.ArgumentParser(prog=f"knotobs {argv[0]}"), argv[0])
        _refuse_attached_help(parser, takewhile(lambda a: a != "--", argv[1:]))
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    parser = build_parser()
    # the options before the command name are the top-level parser's
    _refuse_attached_help(parser, takewhile(lambda a: a[:1] == "-" and a != "--", argv))
    return parser.parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        result = args.handler(args)
    except Exception as exc:  # every failure, package error or defect, gets an exit code
        result = _failure(exc)
    try:
        _print(result.lines)
        _write_artifacts(args, result)
    except Exception as exc:  # an unwritable stdout or artifact path is an internal failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return _EXIT[result.status]


def _failure(exc: Exception) -> Result:
    """Report an exception raised by a handler on stderr; its result has no
    rows, only the status and payload of its envelope."""
    if isinstance(exc, (ValidationError, InsufficientDataError, RuleNotApplicableError,
                        JumpEvaluationError)):
        print(f"invalid: {exc}", file=sys.stderr)
        payload = {"message": str(exc)}
        if isinstance(exc, JumpEvaluationError):
            payload.update(left=exc.left, right=exc.right)
        return Result([], payload, "invalid")
    message = str(exc) if isinstance(exc, KnotObsError) else f"{type(exc).__name__}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return Result([], {"message": message}, "error")


def _write_artifacts(args, result: Result) -> None:
    if not any(getattr(args, kind, None) for kind in ("json", "csv", "svg")):
        return
    from . import artifacts

    if getattr(args, "json", None):
        doc = artifacts.result_envelope(
            args.command, result.status, result.payload, result.provenance
        )
        artifacts.write_json(args.json, doc)
        print(f"wrote {args.json}")
    if getattr(args, "csv", None) and result.csv is not None:
        artifacts.write_csv(args.csv, *result.csv)
        print(f"wrote {args.csv}")
    if getattr(args, "svg", None) and result.svg is not None:
        artifacts.write_polyline_svg(args.svg, *result.svg)
        print(f"wrote {args.svg}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
