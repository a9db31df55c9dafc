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


def test_every_exported_name_is_bound():
    # a name in a module's __all__ is defined or imported at its top level,
    # so moving or deleting a public name must take it out of __all__ too
    exported = {}
    unbound = []
    for path in sorted(Path(ttpack.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
                if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                    exported[path.name] = ast.literal_eval(node.value)
        unbound += [f"{path.name} {name}" for name in exported.get(path.name, ()) if name not in bound]
    assert exported
    assert unbound == []


def test_one_process_pool_helper():
    # no module imports multiprocessing, and fork is read only inside
    # enumeration._pool_map
    importers = []
    outside = []
    for path in sorted(Path(ttpack.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "multiprocessing" for m in modules):
                importers.append(path.name)
        inside = set()
        if path.name == "enumeration.py":
            helpers = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_pool_map"]
            assert len(helpers) == 1
            inside = {id(node) for node in ast.walk(helpers[0])}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is None and isinstance(node, ast.alias):
                name = node.name
            if name == "fork" and id(node) not in inside:
                outside.append(f"{path.name}:{node.lineno}")
    assert importers == []
    assert outside == []


# Names that no module of the package reads, each kept for a reason.
UNREAD_BY_DESIGN = {
    # it keeps census and induced on ttpack.pipeline, where the benchmark's
    # tracer looks them up
    ("pipeline", "induced_expectation_check"),
    # the benchmark's pipeline49 workload builds its transitive host with it
    ("tournament", "transitive_tournament"),
}


def test_package_reads_every_top_level_name():
    # a top-level function, class or constant counts as read when a Name
    # loads it in its own module outside its definition, or in a module
    # that from-imports it; test-only names belong in tests/oracles.py
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(ttpack.__file__).parent.rglob("*.py"))
    }
    assert trees

    def loads(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            outside = loads(ast.Module(body=[other for other in tree.body if other is not node], type_ignores=[]))
            for name in names:
                if name.startswith("__") or name in outside:
                    continue
                importers = [
                    other
                    for other in trees.values()
                    for imp in other.body
                    if isinstance(imp, ast.ImportFrom)
                    and imp.level == 1
                    and (imp.module or "__init__") == module
                    and name in {alias.name for alias in imp.names}
                ]
                if not any(name in loads(other) for other in importers):
                    unread.append((module, name))
    assert set(unread) == UNREAD_BY_DESIGN
