"""The public names and the dependencies of the package."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    probe = ("import sys; before = set(sys.modules); import uavrelay.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def private_definitions(tree):
    """(name, node) of each module-level private function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_used_in_the_sources():
    # a helper left behind by a refactor (referenced only by its own
    # definition, or by tests) fails here
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    uses = []  # (name, path, line) of every name loaded, attribute read or name imported
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                uses.extend((alias.name, path, node.lineno) for alias in node.names)
    unused = [f"{path.name}:{name}"
              for path, tree in trees.items() for name, node in private_definitions(tree)
              if not any(used == name and not (where == path and
                                               node.lineno <= line <= node.end_lineno)
                         for used, where, line in uses)]
    assert unused == []
