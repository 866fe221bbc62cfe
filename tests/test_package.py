"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import polkit

SOURCE = Path(polkit.__file__).resolve().parent


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so a check the package
    # relies on raises explicitly instead
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SOURCE)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
