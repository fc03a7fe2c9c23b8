"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
from pathlib import Path

import pytest

import fsyncchan

MODULES = ["analyzer", "core", "metrics", "modem", "probe", "simchan"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fsyncchan.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_resolve():
    tree = ast.parse(Path(fsyncchan.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fsyncchan.{node.module}")
        for alias in node.names:
            assert hasattr(fsyncchan, alias.name), alias.name
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
