"""Properties of the package source itself."""

import ast
from pathlib import Path

import knotobs


def test_no_assert_statements():
    """Self-checks must still run under python -O, which strips asserts."""
    offenders = []
    for path in sorted(Path(knotobs.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
