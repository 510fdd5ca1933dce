"""Rules the package source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements():
    """Runtime checks raise: ``python -O`` strips every ``assert``."""
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no Python files under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
