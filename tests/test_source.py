"""Properties of the package source itself."""

import ast
from pathlib import Path

import aybe

SRC = Path(aybe.__file__).parent


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so a cross-check written as one would vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
