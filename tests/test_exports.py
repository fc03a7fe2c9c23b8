"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
import inspect
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


def _imported(module_name, name):
    """What `from module_name import name` binds, or None if it fails."""
    module = importlib.import_module(module_name)
    if not hasattr(module, name):
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            return None
    return getattr(module, name, None)


def test_benchmark_imports_resolve():
    # the benchmark (perfbench/, outside the tests' tree) imports names from
    # the package; a rename or deletion here would only show as a failed
    # benchmark run, so every imported name, and every attribute read off an
    # imported module, must resolve
    files = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert files
    seen = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the package module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fsyncchan":
                for alias in node.names:
                    value = _imported(node.module, alias.name)
                    assert value is not None, f"{path.name}: from {node.module} import {alias.name}"
                    if inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
                    seen.append(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "fsyncchan":
                        module = importlib.import_module(alias.name)
                        if alias.asname:
                            modules[alias.asname] = module
                        seen.append(alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                module = modules[node.value.id]
                assert hasattr(module, node.attr), f"{path.name}: {node.value.id}.{node.attr}"
                seen.append(f"{module.__name__}.{node.attr}")
    assert "fsyncchan.modem.receive_frame" in seen
    assert "fsyncchan.cli.main" in seen
