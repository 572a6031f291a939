import ast
from pathlib import Path

import ledc

PACKAGE = Path(ledc.__file__).resolve().parent


def test_package_has_no_assert():
    """`python -O` strips assert statements, so a check in src/ledc must raise instead."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
