"""Rules over the whole package source."""

import ast
from pathlib import Path

import ttpack


def test_package_has_no_bare_assert():
    # self-checks must raise explicitly: `python -O` strips assert statements
    files = sorted(Path(ttpack.__file__).parent.rglob("*.py"))
    assert files
    bare = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bare += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert bare == []
