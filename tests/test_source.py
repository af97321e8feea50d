"""Properties of the package source itself."""

import ast
import tokenize
from pathlib import Path

import knotobs
from knotobs import cli, errors


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


def _refusals(tree) -> set:
    """Names raised (`raise X(...)`), caught (`except X`, `except (X, Y)`) or
    tested (`isinstance(e, X)`, `isinstance(e, (X, Y))`) in a module."""
    def names(node):
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Tuple):
            return {n for elt in node.elts for n in names(elt)}
        return {node.id} if isinstance(node, ast.Name) else set()

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            found |= names(node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            found |= names(node.type)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            found |= names(node.args[1])
    return found


def test_every_error_type_is_raised_or_caught():
    """Each exception class in knotobs.errors is raised or caught by name in
    another package module, so a type left over when a refusal moves to
    another type fails here."""
    declared = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}
    used = set()
    for path in sorted(Path(knotobs.__file__).parent.rglob("*.py")):
        if path.name != "errors.py":
            used |= _refusals(ast.parse(path.read_text(), filename=str(path)))
    assert declared - used == set()


# CPython 3.11's parser holds a module's tokens in an array that starts at
# 8,192 entries; one more token doubles it and allocates 8,192 more token
# structs at once, raising the compile peak by about 0.5 MB.  Every cold CLI
# call compiles knotobs from source when bytecode is not written
# (PYTHONDONTWRITEBYTECODE=1), so each module stays below that size.
PARSER_TOKEN_ARRAY = 8192


def test_modules_fit_the_parser_token_array():
    """Count tokens as the parser sees them: no comments, blank or
    continuation lines (NL), or encoding marker."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    sizes = {}
    for path in sorted(Path(knotobs.__file__).parent.rglob("*.py")):
        with path.open("rb") as fh:
            sizes[path.name] = sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))
    assert {name: n for name, n in sizes.items() if n >= PARSER_TOKEN_ARRAY} == {}
