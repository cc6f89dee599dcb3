import ast
from pathlib import Path

import tropsplit

SOURCES = sorted(Path(tropsplit.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_library():
    """Runtime checks raise explicit errors; ``python -O`` strips asserts."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
