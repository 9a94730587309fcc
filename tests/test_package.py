"""The public names and the dependencies of the package."""

import ast
import re
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
