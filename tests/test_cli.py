"""CLI dispatch, exit codes, and artifact emission."""

import json
import os
import random
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

import oracles
from knotobs import cli, knots, laurent, signature
from knotobs.cli import run
from knotobs.errors import UnsupportedExpressionError


def load_schema(name: str) -> dict:
    return json.loads(resources.files("knotobs.schemas").joinpath(name).read_text())


def validate(doc: dict, schema_name: str) -> None:
    jsonschema.validate(doc, load_schema(schema_name))


def run_json(tmp_path, argv, expect_exit):
    out = tmp_path / "out.json"
    code = run(argv + ["--json", str(out)])
    assert code == expect_exit
    doc = json.loads(out.read_text())
    validate(doc, "command_result.schema.json")
    return doc


class TestExitCodes:
    def test_ok(self, capsys):
        assert run(["gsp-bound", "T(3,5)"]) == 0
        out = capsys.readouterr().out
        assert "4" in out

    def test_validation_failure_is_1(self, capsys):
        assert run(["alexander", "T(2,4)"]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_usage_error_is_2(self, capsys):
        assert run(["no-such-command"]) == 2
        assert run(["gsp-bound"]) == 2
        assert run(["ordered-demo", "--rank", "8"]) == 2  # the suites run at ordered.DEFAULT_RANK

    def test_invalid_certificate_is_1(self, capsys):
        assert run(["sig-certify", "--pair", "5,7", "--pair", "5,7", "--k", "2"]) == 1

    def test_inconclusive_is_1(self, capsys):
        assert run(["eps-obstruct", "--a1", "1", "--a2", "3", "--genus-level", "2"]) == 1

    def test_jump_point_evaluation_is_1(self, capsys):
        assert run(["sig-jumps", "T(2,3)", "--at", "1/6"]) == 1
        captured = capsys.readouterr()
        assert "left limit" in captured.err
        assert captured.out == ""  # a failed command prints none of its rows
        for x in ("3/2", "0", "1"):
            assert run(["sig-jumps", "T(3,4)", "--at", x]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"invalid: evaluation point {x} outside (0,1)\n"
            assert captured.out == ""

    def test_conflicting_or_degenerate_options_are_1(self, capsys):
        level = ["--genus-level", "2"]
        assert run(["eps-obstruct", "--label", "L_5", "--a2", "3", *level]) == 1
        assert run(["eps-obstruct", "--label", "L_5", "--a1", "1", "--a2", "3", *level]) == 1
        assert run(["eps-obstruct", "--a1", "1", *level]) == 1
        assert run(["eps-obstruct", "--a2", "3", *level]) == 1
        assert run(["ordered-demo", "--cases", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("invalid:") == 5

    def test_unexpected_exception_is_2(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_genus", broken)
        doc = run_json(tmp_path, ["genus", "T(2,3)"], 2)
        assert doc["status"] == "error"
        assert doc["payload"]["message"] == "RuntimeError: boom"
        assert "error: RuntimeError: boom" in capsys.readouterr().err

    def test_failed_self_check_is_2(self, capsys, monkeypatch):
        # the final check expands the factors with Phi_1 = t - 1 dropped
        expand = laurent.Factorization.expand
        monkeypatch.setattr(
            laurent.Factorization, "expand",
            lambda fac: expand(laurent.Factorization(fac.sign, fac.exponent, fac.factors[1:])),
        )
        assert run(["factor", "t^2 - 1"]) == 2
        assert "self-check failed" in capsys.readouterr().err

    def test_deep_input_is_1(self, capsys):
        assert run(["genus", "(" * 3000 + "T(2,3)" + ")" * 3000]) == 1
        assert run(["genus", "Wh(" * 400 + "T(2,3)" + ")" * 400]) == 1
        assert "nesting" in capsys.readouterr().err
        assert run(["genus", "--", "-" * 3000 + "T(2,3)"]) == 0

    def test_leading_minus_after_double_dash(self, tmp_path, capsys):
        # "--" ends the options, so every argument after it is positional
        assert run(["upsilon", "--", "-T(2,3)"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows[:4] == [["knot", "-T(2,3)"], ["t", "=", "0", "0"], ["t", "=", "1", "1"], ["t", "=", "2", "0"]]
        out = tmp_path / "out.json"
        assert run(["upsilon", "--json", str(out), "--", "-T(2,3)"]) == 0
        assert json.loads(out.read_text())["payload"]["breakpoints"] == [["0", "0"], ["1", "1"], ["2", "0"]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["upsilon", "-T(2,3)"],
            ["genus", "-T(2,3)"],
            ["factor", "-t"],
            ["upsilon", "-T(2,3)", "--csv", "u.csv"],
        ],
        ids=["upsilon", "genus", "factor", "upsilon-csv"],
    )
    def test_leading_minus_without_double_dash(self, tmp_path, capsys, monkeypatch, argv):
        # a lone argument that starts with "-" and names no option of its
        # command is its expression, as it is after "--"
        monkeypatch.chdir(tmp_path)
        expression = argv[1]
        options = argv[2:]
        outputs = []
        for form in (argv, [argv[0], *options, "--", expression]):
            assert run(form) == 0, form
            artifacts = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            for p in tmp_path.iterdir():
                p.unlink()
            outputs.append((capsys.readouterr().out, artifacts))
        assert outputs[0] == outputs[1]
        assert expression in outputs[0][0]
        assert list(outputs[0][1]) == (["u.csv"] if options else [])

    def test_unknown_option_is_still_a_usage_error(self, capsys):
        assert run(["upsilon", "--nope", "T(2,3)"]) == 2
        assert "unrecognized arguments: --nope" in capsys.readouterr().err
        assert run(["upsilon", "-h"]) == 0
        assert "usage: knotobs upsilon" in capsys.readouterr().out

    def test_option_value_may_start_with_minus(self, capsys):
        # the argument after an option that takes a value is that value
        assert run(["sig-jumps", "T(3,4)", "--at", "-1/2"]) == 1
        assert "invalid: evaluation point -1/2 outside (0,1)" in capsys.readouterr().err

    def test_breadth_beyond_dense_limit_is_1(self, capsys):
        assert run(["factor", "t^200000 - 1"]) == 1
        assert run(["gsp-bound", "Cable(" * 100 + "T(2,3)" + ";2,1)" * 100]) == 1
        assert "dense polynomial limit" in capsys.readouterr().err

    def test_torus_pq_beyond_dense_limit_fails_fast(self, capsys):
        start = time.monotonic()
        assert run(["sig-jumps", "T(1009,1013)"]) == 1
        assert run(["sig-certify", "--pair", "5,7", "--pair", "1009,1013", "--k", "2"]) == 1
        assert time.monotonic() - start < 5.0
        captured = capsys.readouterr()
        assert captured.err.count("torus knot product pq 1022117 exceeds the dense polynomial limit") == 2
        assert captured.out == ""

    def test_upsilon_certify_range_above_limit_fails_fast(self, capsys):
        # the matrix would hold 99999^2 entries; the budget stops a build
        with oracles.budget(2.0, "refusing an oversized certificate range"):
            assert run(["upsilon-certify", "--k", "2", "--max", "100000"]) == 1
        captured = capsys.readouterr()
        assert "invalid: range 2..100000 holds 99999 knots, above the limit 500" in captured.err
        assert captured.out == ""

    def test_nested_cables_fail_fast(self, capsys):
        start = time.monotonic()
        assert run(["alexander", "Cable(" * 30 + "T(2,3)" + ";2,3)" * 30]) == 1
        assert time.monotonic() - start < 5.0
        assert "dense polynomial limit" in capsys.readouterr().err

    def test_huge_integer_is_1(self, capsys):
        assert run(["genus", "T(2," + "1" * 5000 + ")"]) == 1
        assert "too long" in capsys.readouterr().err

    def test_unwritable_json_path_is_2(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "x.json"
        assert run(["genus", "T(2,3)", "--json", str(missing)]) == 2
        assert "error: FileNotFoundError:" in capsys.readouterr().err
        # the error envelope of a failed handler has nowhere to go either
        assert run(["alexander", "T(2,4)", "--json", str(missing)]) == 2

    def test_unwritable_csv_path_is_2(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "x.csv"
        assert run(["sig-jumps", "T(2,3)", "--csv", str(missing)]) == 2
        assert run(["upsilon", "T(3,4)", "--csv", str(missing)]) == 2
        assert capsys.readouterr().err.count("error: FileNotFoundError:") == 2

    def test_unwritable_svg_path_is_2(self, tmp_path, capsys):
        assert run(["upsilon", "T(3,4)", "--svg", str(tmp_path)]) == 2
        assert "error: IsADirectoryError:" in capsys.readouterr().err


def test_cli_import_leaves_numpy_out():
    """Importing the CLI loads no numpy and no polynomial code, a cold
    command loads none of the layers it does not run (the Upsilon, the
    genus of an expression, the signature jumps of a torus knot, of J_5 and
    of L_4, whose cables have Delta = 1 companions, and the signature
    certificate load no polynomial code), and no command loads
    `dataclasses` or the `inspect` it imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    never = ["dataclasses", "inspect"]
    polynomial = ["knotobs.knots", "knotobs.laurent"]
    lazy = ["knotobs.ordered", "knotobs.signature", "knotobs.upsilon"]
    ordered = [
        ["eps-obstruct", "--label", "L_5", "--genus-level", "2"],
        ["eps-certify", "--k", "2", "--max", "8"],
        ["ordered-demo", "--cases", "10"],
    ]
    germs = [
        ["upsilon-certify", "--k", "2", "--max", "6"],
        ["upsilon-obstruct", "--germ-index", "5", "--genus-level", "2"],
    ]
    one_per_layer = [
        ["upsilon", "T(3,4)"],
        ["sig-certify", "--pair", "5,7", "--k", "2"],
        ["eps-obstruct", "--label", "L_5", "--genus-level", "2"],
        ["upsilon-certify", "--k", "2", "--max", "6"],
    ]
    cases = (
        ([], ["numpy", *never, *polynomial]),
        ([["factor", "T(7,13)"]], ["numpy", *never, *lazy]),
        (ordered, [*never, *polynomial]),
        (germs, [*never, *polynomial, "knotobs.signature"]),
        (
            [["upsilon", "T(3,4)"], ["upsilon-obstruct", "T(3,4)", "--genus-level", "1"]],
            [*never, "knotobs.laurent", "knotobs.signature"],
        ),
        ([["genus", "Cable(T(2,3);2,5) # -T(3,4)"]], [*never, "knotobs.laurent", *lazy]),
        (
            [["sig-jumps", "T(3,4)", "--at", "1/2"], ["sig-certify", "--pair", "5,7", "--k", "2"]],
            [*never, "knotobs.laurent", "knotobs.ordered", "knotobs.upsilon"],
        ),
        (
            [["sig-jumps", knots.format_knot(knots.family("J", 5))],
             ["sig-jumps", knots.format_knot(knots.family("L", 4)), "--at", "1/3"]],
            [*never, "knotobs.laurent", "knotobs.ordered", "knotobs.upsilon"],
        ),
        (one_per_layer, never),
    )
    for commands, absent in cases:
        run_cli = "".join(f"cli.run({argv!r}); " for argv in commands)
        probe = (f"import sys; from knotobs import cli; {run_cli}"
                 f"print([m for m in {absent!r} if m in sys.modules])")
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1] == "[]", run_cli


def test_console_script_text_reaches_the_4_byte_kronecker_path(capsys, monkeypatch):
    """(2t - 1)^5 (t - 2)^5 as text, which the console-script step of CI
    runs: the check of its factorization and the witness product w * w-bar
    each bound their coefficients by 3^10 = 59049, so the Kronecker product
    packs its digits through 4-byte machine-integer arrays."""
    text = "32 - 400t + 2160t^2 - 6600t^3 + 12570t^4 - 15525t^5 + 12570t^6 - 6600t^7 + 2160t^8 - 400t^9 + 32t^10"
    assert laurent.parse_laurent(text) == laurent.parse_laurent("2t^2 - 5t + 2") ** 5
    widths = []
    pack = laurent._kpack
    monkeypatch.setattr(laurent, "_kpack", lambda a, w: widths.append(w) or pack(a, w))
    assert run(["fox-milnor", text]) == 0
    assert "fox-milnor             passes\n" in capsys.readouterr().out
    assert max(widths) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["factor", "-h"],
        ["factor"],
        ["nope"],
        [],
        ["upsilon", "--nope", "T(2,3)"],
        ["upsilon", "T(2,3)", "extra"],
        ["eps-certify", "--k", "2", "--max", "8", "--family", "X"],
        ["family", "Q", "3"],
        ["sig-jumps", "T(3,4)", "--at", "-1/2"],
        ["upsilon", "-T(2,3)"],
        ["factor", "-t"],
        ["--json", "x", "factor", "t"],
        ["upsilon", "--", "-T(2,3)"],
        ["upsilon-obstruct", "--germ-index", "x", "--genus-level", "2"],
        ["sig-certify", "--pair", "5,7", "--pair", "11,13", "--k", "4", "--json", "c.json"],
        ["upsilon", "--cs", "u.csv", "T(3,4)"],
    ],
)
def test_one_command_parser_reads_as_the_full_parser(argv, capsys):
    """The parser `run` builds for the command in argv[0] gives the same
    arguments, help, usage errors and exit codes as the parser of every
    command."""

    def outcome(parse):
        try:
            parsed = vars(parse(argv))
        except SystemExit as exc:
            parsed = exc.code
        captured = capsys.readouterr()
        return parsed, captured.out, captured.err

    assert outcome(cli._parse_args) == outcome(cli.build_parser().parse_args)


@pytest.mark.parametrize("argv", [["upsilon", "-hT(2,3)"], ["-hT(2,3)"], ["factor", "-hht"]])
def test_help_with_text_attached_is_a_usage_error(argv, capsys):
    # Python 3.13 alone would print help for these and exit 0
    assert run(argv) == 2
    captured = capsys.readouterr()
    attached = argv[-1][1:].lstrip("h")
    prog = " ".join(["knotobs", *argv[:-1]])
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {prog} ")
    assert captured.err.endswith(f"{prog}: error: argument -h/--help: ignored explicit argument {attached!r}\n")


class TestArtifacts:
    def test_gsp_bound_envelope(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["gsp-bound", "T(3,5)"], 0)
        assert doc["payload"]["lower"] == "4"
        assert doc["payload"]["upper"] == "4"

    def test_sig_certificate_schema(self, tmp_path, capsys):
        doc = run_json(
            tmp_path,
            ["sig-certify", "--pair", "5,7", "--pair", "11,13", "--k", "4"],
            0,
        )
        validate(doc["payload"], "signature_certificate.schema.json")
        assert doc["payload"]["valid"] is True

    def test_invalid_sig_certificate_still_emitted(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["sig-certify", "--pair", "5,7", "--k", "12"], 1)
        validate(doc["payload"], "signature_certificate.schema.json")
        assert doc["payload"]["valid"] is False
        failed = [c["name"] for c in doc["payload"]["checks"] if not c["passed"]]
        assert failed == ["degree_bound[5,7]"]

    def test_upsilon_certificate_schema(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["upsilon-certify", "--k", "2", "--max", "6"], 0)
        validate(doc["payload"], "upsilon_certificate.schema.json")
        matrix = doc["payload"]["matrix"]
        assert len(matrix) == 5 and matrix[0][0] == "1" and matrix[1][0] == "0"

    def test_upsilon_breakpoints_schema(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["upsilon", "T(3,4)"], 0)
        validate(doc["payload"], "piecewise_linear.schema.json")
        assert doc["payload"]["breakpoints"][1] == ["2/3", "-2"]

    def test_eps_certificate_schema(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["eps-certify", "--k", "2", "--max", "8"], 0)
        validate(doc["payload"], "epsilon_certificate.schema.json")
        assert doc["payload"]["kind"] == "summand"
        assert doc["provenance"]

    def test_eps_subgroup_certificate(self, tmp_path, capsys):
        doc = run_json(
            tmp_path, ["eps-certify", "--k", "2", "--max", "12", "--family", "L"], 0
        )
        validate(doc["payload"], "epsilon_certificate.schema.json")
        assert doc["payload"]["kind"] == "subgroup"

    def test_upsilon_csv_and_svg(self, tmp_path, capsys):
        csv = tmp_path / "u.csv"
        svg = tmp_path / "u.svg"
        assert run(["upsilon", "T(3,4)", "--csv", str(csv), "--svg", str(svg)]) == 0
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "t,value"
        assert rows[1:] == ["0,0", "2/3,-2", "4/3,-2", "2,0"]
        body = svg.read_text()
        assert body.startswith("<svg") and "polyline" in body

    def test_sig_jumps_csv(self, tmp_path, capsys):
        csv = tmp_path / "j.csv"
        assert run(["sig-jumps", "T(2,3)", "--csv", str(csv)]) == 0
        assert csv.read_text().strip().splitlines() == ["x,jump", "1/6,-2", "5/6,2"]

    def test_family_provenance(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["family", "L", "4"], 0)
        assert any("slice-genus" in p for p in doc["provenance"])
        assert doc["payload"]["genus"]["slice_genus_hint"] == 1

    def test_ordered_demo_deterministic(self, tmp_path, capsys):
        doc1 = run_json(tmp_path, ["ordered-demo", "--cases", "50", "--seed", "7"], 0)
        doc2 = run_json(tmp_path, ["ordered-demo", "--cases", "50", "--seed", "7"], 0)
        assert doc1["payload"] == doc2["payload"]

    def test_alexander_fox_milnor(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["alexander", "T(2,3) # -T(2,3)", "--fox-milnor"], 0)
        assert doc["payload"]["fox_milnor"]["passes"] is True
        assert doc["payload"]["alexander"] == "1*t^-2 + -2*t^-1 + 3*t^0 + -2*t^1 + 1*t^2"

    def test_factor_accepts_polynomial_text(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["factor", "t^-1 - 1 + t"], 0)
        assert doc["payload"]["factors"][0]["multiplicity"] == 1

    def test_upsilon_obstruct_germ(self, tmp_path, capsys):
        doc = run_json(
            tmp_path, ["upsilon-obstruct", "--germ-index", "5", "--genus-level", "2"], 0
        )
        assert doc["payload"]["status"] == "obstructed"
        assert doc["provenance"]


class TestRoundTrip:
    def test_expression_print_parse_identity(self, capsys):
        rng = random.Random(606)
        for _ in range(500):
            k = oracles.random_expression(rng)
            assert knots.parse_knot(knots.format_knot(k)) == k


class TestCableWindings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["genus", "Cable(T(2,3);-2,3)"],
            ["alexander", "Cable(T(2,3);-5,7)"],
            ["sig-jumps", "Cable(T(2,3);0,5)"],
            ["upsilon", "Cable(T(2,3);-2,3)"],
        ],
    )
    def test_longitude_winding_below_one_is_refused(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid: cable longitude winding p must be >= 1\n"

    @pytest.mark.parametrize("command", ["upsilon", "genus", "sig-jumps", "gsp-bound"])
    def test_cable_of_the_unknot_answers_as_its_torus_knot(self, capsys, command):
        for cabled, plain in [("Cable(U;2,3)", "T(2,3)"), ("Cable(U;2,-3)", "-T(2,3)"), ("Cable(U;3,-1)", "U")]:
            assert run([command, plain]) == 0
            expected = capsys.readouterr().out
            assert run([command, cabled]) == 0, cabled
            assert capsys.readouterr().out == expected

    def test_longitude_winding_one_is_the_companion(self, capsys):
        assert run(["genus", "Cable(T(2,3);1,5)"]) == 0
        cabled = capsys.readouterr().out
        assert run(["genus", "T(2,3)"]) == 0
        assert capsys.readouterr().out == cabled

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("alexander", "Cable(Wh(T(2,3));2,-3)", "cable meridian winding -3 <= -2 has no verified convention"),
            ("sig-jumps", "Cable(Wh(T(2,3));2,-3)", "cable meridian winding -3 <= -2 has no verified convention"),
            ("genus", "Cable(Wh(T(2,3));2,-3)", "Seifert genus of cables is only supported for q >= 1"),
            ("genus", "Cable(Wh(T(2,3));3,-1)", "Seifert genus of cables is only supported for q >= 1"),
        ],
    )
    def test_meridian_winding_without_a_convention(self, capsys, command, text, message):
        invariant = {"alexander": knots.alexander, "sig-jumps": signature.expression_jumps, "genus": knots.genus}
        with pytest.raises(UnsupportedExpressionError, match=message):
            invariant[command](knots.parse_knot(text))
        assert run([command, text]) == 1
        assert capsys.readouterr().err == f"invalid: {message}\n"
