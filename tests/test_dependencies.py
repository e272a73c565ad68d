"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "connectobench").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_distributions() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
            for dep in project["project"]["dependencies"]}


def test_third_party_imports_are_declared():
    third_party = {name for name in _imported_top_level_modules()
                   if name not in sys.stdlib_module_names and name != "connectobench"}
    assert {"numpy", "orjson"} <= third_party
    undeclared = third_party - _declared_distributions()
    assert not undeclared, f"imported but not in pyproject dependencies: {undeclared}"
