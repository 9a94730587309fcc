"""The public names and the dependencies of the package."""

import ast
import re
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


def test_numpy_is_the_only_runtime_dependency():
    # the CLI parses its arguments with the standard library, so a process
    # that runs no grid oracle imports nothing outside it
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]]
    assert names == ["numpy"]


def test_no_source_or_test_file_imports_click():
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            assert all(m.split(".")[0] != "click" for m in modules), path
