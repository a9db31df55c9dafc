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


def unused_imports(files) -> list[str]:
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds the name a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_tests_read_every_name_they_import():
    files = sorted(Path(__file__).parent.glob("*.py"))
    assert files
    assert unused_imports(files) == []


def test_package_reads_every_name_it_imports():
    # __init__.py imports only to re-export
    files = sorted(p for p in Path(ttpack.__file__).parent.rglob("*.py") if p.name != "__init__.py")
    assert files
    assert unused_imports(files) == []
