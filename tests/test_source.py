"""Rules over the whole package source."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ttpack
from ttpack.designs import BlockDesign
from ttpack.experiments import DensityReport, EdgeCopyStats
from ttpack.packing import CopyList, Packing
from ttpack.pipeline import (
    ClassThreshold,
    FMinRecord,
    InducedExpectation,
    LPResult,
    PipelineReport,
    ThresholdReport,
)
from ttpack.tournament import Tournament, TriangleCensus


def test_package_has_no_bare_assert():
    # self-checks must raise explicitly: `python -O` strips assert statements
    files = sorted(Path(ttpack.__file__).parent.rglob("*.py"))
    assert files
    bare = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bare += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert bare == []


def test_package_defines_one_exception_class():
    # bad input raises plain ValueError, whose message names the byte offset
    # of a defect in a tournament file, a failed claim PipelineError, and a
    # failed self-check AssertionError
    defined = {}
    for info in pkgutil.iter_modules(ttpack.__path__):
        module = importlib.import_module(f"ttpack.{info.name}")
        defined.update(
            (obj.__name__, obj.__bases__)
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        )
    assert defined == {"PipelineError": (RuntimeError,)}


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


def importers_of(top: str) -> list[str]:
    """The package's files that import the module top or a submodule of it."""
    importers = []
    for path in sorted(Path(ttpack.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == top for m in modules):
                importers.append(path.name)
    return importers


def test_one_process_pool_helper():
    # no module imports multiprocessing, and fork is read only inside
    # enumeration._pool_map
    outside = []
    for path in sorted(Path(ttpack.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
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
    assert importers_of("multiprocessing") == []
    assert outside == []


def test_package_does_not_import_dataclasses():
    # records are NamedTuples: a frozen dataclass runs six generated methods
    # through exec when its class is defined, on every import of the package
    assert importers_of("dataclasses") == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every command pays for importing the package, and dataclasses imports
    # inspect; -S keeps whatever site imports out of sys.modules
    env = {**os.environ, "PYTHONPATH": str(Path(ttpack.__file__).parent.parent)}
    script = "import sys, ttpack.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


RECORDS = (
    Tournament,
    TriangleCensus,
    CopyList,
    Packing,
    BlockDesign,
    EdgeCopyStats,
    DensityReport,
    ClassThreshold,
    ThresholdReport,
    FMinRecord,
    InducedExpectation,
    LPResult,
    PipelineReport,
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_a_record_is_immutable_and_replaces_one_field(record):
    # a record's fields cannot be assigned, nor new attributes added, and
    # _replace builds a new record that differs in the named field alone
    values = list(range(len(record._fields)))
    r = record(*values)
    with pytest.raises(AttributeError):
        r.extra = 0
    for i, name in enumerate(record._fields):
        with pytest.raises(AttributeError):
            setattr(r, name, -1)
        changed = r._replace(**{name: -1})
        assert type(changed) is record
        assert [getattr(changed, field) for field in record._fields] == values[:i] + [-1] + values[i + 1 :]
        assert [getattr(r, field) for field in record._fields] == values


def test_one_deadline_check():
    # time.monotonic is read once where max_packing_exact sets the deadline
    # and once in packing._check_deadline, the solver's one stop; any other
    # stop, such as a node budget, must raise through that helper too
    readers = []
    for path in sorted(Path(ttpack.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        place = {}  # node id -> innermost function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                place.update({id(node): fn.name for node in ast.walk(fn)})
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is None and isinstance(node, ast.alias):
                name = node.name
            if name == "monotonic":
                readers.append(f"{path.stem}.{place.get(id(node))}")
    assert sorted(readers) == ["packing._check_deadline", "packing.max_packing_exact"]


# Each name, and the functions of the package that alone may read it.
READ_ONLY_IN = {
    # per-byte rows of a code int serve the triangle scan alone; every code
    # is decoded into out-sets by tournament.tournament_from_code
    "_byte_tables": {("pipeline", "_triples")},
    # a copy is its vertex tuple; only the greedy baseline and the local
    # search build its pair mask, so the listing and the solver keep one
    # form of a copy
    "_edge_mask": {("packing", "greedy_packing"), ("experiments", "improve_packing")},
    # _scan_classes is the one reader of classes, for verify lemma22 and
    # fmin, and the pipeline scans its blocks one pattern at a time; a new
    # sweep reads its classes through _scan_classes, not beside it
    "_scan": {("pipeline", "_scan_classes"), ("pipeline", "_pipeline_trial")},
    "_cyclic_columns": {("pipeline", "_scan_classes")},
}


def test_code_readers_are_read_in_their_functions():
    # a Name or attribute reading one of these names counts, and so does an
    # import that renames it, since later reads of the new name would hide;
    # a plain import only binds the name for the reads it allows.  Every
    # allowed function must read its name, so a rename cannot empty the rule.
    outside = []
    read_in = set()
    for path in sorted(Path(ttpack.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        place = {}  # node id -> (module, innermost function holding it)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                place.update({id(node): (path.stem, fn.name) for node in ast.walk(fn)})
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if isinstance(node, ast.alias) and node.asname not in (None, node.name):
                name = node.name
            if name not in READ_ONLY_IN:
                continue
            if place.get(id(node)) in READ_ONLY_IN[name]:
                read_in.add((name, place[id(node)]))
            else:
                outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []
    assert read_in == {(name, where) for name, places in READ_ONLY_IN.items() for where in places}


def test_argparse_internals_are_read_in_one_class():
    # private argparse names, and any argparse._name, are read only inside
    # cli._Subcommands, the one class that defers subcommand parsers
    private = {"_SubParsersAction", "_name_parser_map", "_choices_actions", "_prog_prefix", "_parser_class"}
    outside = []
    for path in sorted(Path(ttpack.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = set()
        if path.name == "cli.py":
            classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "_Subcommands"]
            assert len(classes) == 1
            inside = {id(node) for node in ast.walk(classes[0])}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is None and isinstance(node, ast.alias):
                name = node.name
            of_argparse = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "argparse"
                and node.attr.startswith("_")
            )
            if (name in private or of_argparse) and id(node) not in inside:
                outside.append(f"{path.name}:{node.lineno} {name}")
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
