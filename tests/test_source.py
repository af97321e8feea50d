"""Properties of the package source itself."""

import ast
from pathlib import Path

import knotobs
from knotobs import cli


def test_no_assert_statements():
    """Self-checks must still run under python -O, which strips asserts."""
    offenders = []
    for path in sorted(Path(knotobs.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_cli_prints_only_through_its_printers():
    """Handlers return a cli.Result; only these functions write to the terminal."""
    printers = {"_print", "_failure", "_write_artifacts", "run"}
    offenders = []
    for top in ast.parse(Path(cli.__file__).read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and owner not in printers
            ):
                offenders.append(f"{owner}:{node.lineno}")
    assert offenders == []
