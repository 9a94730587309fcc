"""The public names and the dependencies of the package."""

import ast
import importlib
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import uavrelay

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_unique_and_star_importable():
    names = uavrelay.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from uavrelay import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_package_has_no_runtime_dependency():
    # the CLI parses its arguments and both grid oracles compute their
    # gains with the standard library; numpy is a test dependency only
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    test_names = [re.match(r"[A-Za-z0-9_.-]+", spec).group()
                  for spec in project["optional-dependencies"]["test"]]
    assert "numpy" in test_names


def imported_modules(path):
    """The top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_source_or_test_file_imports_click():
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        assert "click" not in set(imported_modules(path)), path


def test_sources_import_only_the_standard_library_and_the_package():
    allowed = sys.stdlib_module_names | {"uavrelay"}
    for path in sorted((ROOT / "src").rglob("*.py")):
        assert set(imported_modules(path)) <= allowed, path


def test_no_source_file_imports_dataclasses():
    # the records are hand-written (_record.Record): dataclasses would load
    # inspect, ast, dis and tokenize into every process
    for path in sorted((ROOT / "src").rglob("*.py")):
        assert "dataclasses" not in set(imported_modules(path)), path


# the modules of the solvers and the grid oracle, which the harness loads
SOLVER_MODULES = ("atg3d", "oracle", "freespace", "highsnr", "cubic", "search")


def fresh_stdout(code: str) -> str:
    """The stdout of code run in a new interpreter that imports the package source."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # nor the harness or any solver module: a command loads them when it runs
    unwanted = {"dataclasses", "inspect", "uavrelay.harness"} | {
        f"uavrelay.{name}" for name in SOLVER_MODULES}
    probe = ("import sys; before = set(sys.modules); import uavrelay.cli; "
             f"print(sorted({unwanted!r} & (set(sys.modules) - before)))")
    assert fresh_stdout(probe) == "[]\n"


def definitions(tree):
    """(name, node) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names)


def private_definitions(tree):
    """(name, node) of each module-level private function, class and constant."""
    return ((name, node) for name, node in definitions(tree)
            if name.startswith("_") and not name.startswith("__"))


def test_every_public_name_is_its_defining_modules_object():
    defined = {}  # name -> the modules defining it
    for path in sorted((ROOT / "src" / "uavrelay").glob("*.py")):
        for name, _ in definitions(ast.parse(path.read_text(), str(path))):
            defined.setdefault(name, []).append(path.stem)
    for name in uavrelay.__all__:
        assert len(defined.get(name, ())) == 1, name
        module = importlib.import_module(f"uavrelay.{defined[name][0]}")
        assert getattr(uavrelay, name) is getattr(module, name), name
    assert set(uavrelay.__all__) <= set(dir(uavrelay))


def test_package_functions_follow_a_wrapper_set_and_taken_off(monkeypatch):
    # a tracer wraps solver functions on their modules; the package name
    # must not keep the wrapper once it is taken off
    from uavrelay import freespace

    original = freespace.bcd_solve

    def wrapper(*args):
        return original(*args)

    monkeypatch.setattr(freespace, "bcd_solve", wrapper)
    assert uavrelay.bcd_solve is wrapper
    monkeypatch.undo()
    assert uavrelay.bcd_solve is original


def test_moved_names_are_the_same_objects_where_they_were():
    # the benchmark reads oracle.DEFAULT_POINTS_* and the records keep their repr
    from uavrelay import atg3d, channels, config, oracle

    assert atg3d.Atg3dScenario is channels.Atg3dScenario
    assert channels.Atg3dScenario.__qualname__ == "Atg3dScenario"
    for name in ("GridSpec", "DEFAULT_POINTS_2D", "DEFAULT_POINTS_3D", "DEFAULT_FIXED_HEIGHT"):
        assert getattr(oracle, name) is getattr(config, name), name


def test_submodules_load_on_first_access():
    probe = ("import sys, uavrelay; loaded = 'uavrelay.oracle' in sys.modules; "
             "print(loaded, uavrelay.oracle.GridSpec.__name__, 'oracle' in dir(uavrelay))")
    assert fresh_stdout(probe) == "False GridSpec True\n"


def test_unknown_names_raise_attribute_error():
    for module, name in ((uavrelay, "no_such_name"), (uavrelay, "GridSpecs"),
                         (uavrelay, "numpy"), (uavrelay.cli, "no_such_name")):
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)
    with pytest.raises(ImportError):
        exec("from uavrelay import no_such_name", {})


def source_trees(directory):
    """The parsed AST of each Python file under directory, by path."""
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.rglob("*.py"))}


def name_uses(trees, strings=False):
    """(name, path, line, is_attribute) of every name loaded, attribute read
    or name imported, and with strings, of every string constant, read as an
    attribute name: the benchmark's tracer names the attributes it wraps."""
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, path, node.lineno, False
            elif isinstance(node, ast.Attribute):
                yield node.attr, path, node.lineno, True
            elif isinstance(node, ast.ImportFrom):
                yield from ((alias.name, path, node.lineno, False) for alias in node.names)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value, path, node.lineno, True


def used_elsewhere(name, path, node, uses, attributes_only=False):
    """Whether a use of name lies outside the definition node in path."""
    return any(used == name and (attribute or not attributes_only)
               and not (where == path and node.lineno <= line <= node.end_lineno)
               for used, where, line, attribute in uses)


def test_every_private_name_is_used_in_the_sources():
    # a helper left behind by a refactor (referenced only by its own
    # definition, or by tests) fails here
    trees = source_trees(ROOT / "src")
    uses = list(name_uses(trees))
    unused = [f"{path.name}:{name}"
              for path, tree in trees.items() for name, node in private_definitions(tree)
              if not used_elsewhere(name, path, node, uses)]
    assert unused == []


# public names that neither the package nor the benchmark uses, and why each stays
TESTED_ONLY = {
    "rate_gap_derivative": "acceptance criterion 2 checks the derivative against "
                           "mpmath and finite differences",
}


def public_definitions(tree):
    """(name, node, is_method) of each name of uavrelay.__all__ defined in
    tree, and of each public method and property of its record classes."""
    exported = set(uavrelay.__all__)
    for name, node in definitions(tree):
        if name in exported:
            yield name, node, False
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
            yield from ((item.name, item, True) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_every_public_name_is_used_outside_the_tests():
    # a public function, method or property that only tests call is a
    # second way to do what the package already does
    trees = source_trees(ROOT / "src")
    uses = [*name_uses(trees), *name_uses(source_trees(ROOT / "bench"), strings=True)]
    public = [(path, *definition) for path, tree in trees.items()
              for definition in public_definitions(tree)]
    assert TESTED_ONLY.keys() <= {name for _, name, _, _ in public}
    # a method or property is used only where it is read as an attribute
    unused = [f"{path.name}:{name}" for path, name, node, method in public
              if name not in TESTED_ONLY and not used_elsewhere(name, path, node, uses, method)]
    assert unused == []
