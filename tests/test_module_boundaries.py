"""Each module's concern stays behind its public names: no module of the package imports another's private name, and
no import hides inside a function, where it would put off an import cycle instead of removing it. The autodiff engine
exports only what another module of the package uses."""

import ast
from pathlib import Path

import pytest

import t4c
from t4c import autodiff

SOURCES = sorted(Path(t4c.__file__).parent.glob("*.py"))


def _faults(tree: ast.AST) -> list[str]:
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:  # a relative import: the imported name, not its alias
            faults += [f"line {node.lineno}: imports private {alias.name}" for alias in node.names
                       if alias.name.startswith("_")]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            faults += [f"line {inner.lineno}: an import inside {node.name}"
                       for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return faults


def test_the_package_has_modules():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "data.py", "evaluation.py", "training.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_or_imports_inside_a_function(path):
    assert _faults(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_the_check_finds_both_faults():
    source = "from .data import _hints as hints, read_json\n\ndef f():\n    from .training import train_one\n"
    assert _faults(ast.parse(source)) == ["line 1: imports private _hints", "line 4: an import inside f"]


def _autodiff_names_used(tree: ast.AST) -> set[str]:
    """The names a module takes from ``autodiff``: imported from it, or read as attributes of the name bound to it."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "autodiff":
                names |= {alias.name for alias in node.names}
            elif node.module is None:
                modules |= {alias.asname or alias.name for alias in node.names if alias.name == "autodiff"}
    reads = (node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name))
    return names | {node.attr for node in reads if node.value.id in modules}


def test_every_autodiff_export_is_used_by_another_module():
    used = set().union(*(_autodiff_names_used(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
                         for path in SOURCES if path.name != "autodiff.py"))
    assert sorted(set(autodiff.__all__) - used) == []


def test_the_export_check_finds_both_spellings():
    source = "from . import autodiff as ad\nfrom .autodiff import Plan\n\nx = ad.linear(ad.Tensor, y.mse)\n"
    assert _autodiff_names_used(ast.parse(source)) == {"Plan", "linear", "Tensor"}
