import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import brakekit

MODULES = sorted(m.name for m in pkgutil.iter_modules(brakekit.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"brakekit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"brakekit.{name}.__all__ names undefined {missing}"


def _bool_parameters():
    """(callable name, parameter name, default, index among positionals or
    None) for every boolean-defaulted parameter of a function in brakekit.

    A constructor is named after its class; a method's self or cls is not
    counted among the positionals.
    """
    out = []
    for path in sorted((ROOT / "src" / "brakekit").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    owners[id(item)] = node.name
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(fn))
            name = owner if fn.name == "__init__" and owner else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            if owner and positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            defaults = dict(zip([a.arg for a in positional][::-1], fn.args.defaults[::-1]))
            defaults.update((a.arg, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                            if d is not None)
            names = [a.arg for a in positional]
            for arg, default in defaults.items():
                if isinstance(default, ast.Constant) and isinstance(default.value, bool):
                    index = names.index(arg) if arg in names else None
                    out.append((name, arg, default.value, index))
    return out


def _calls():
    for top in ("src", "tests", "brakebench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    yield name, node


def _sets_other_value(call, arg, default, index):
    """Whether the call may pass arg a value other than its default."""
    for kw in call.keywords:
        if kw.arg is None:  # **kwargs can carry anything
            return True
        if kw.arg == arg:
            return not (isinstance(kw.value, ast.Constant) and kw.value.value is default)
    if index is None:
        return False
    for i, value in enumerate(call.args):
        if isinstance(value, ast.Starred):
            return True
        if i == index:
            return not (isinstance(value, ast.Constant) and value.value is default)
    return False


def test_every_boolean_switch_is_set_somewhere():
    # a switch that every caller leaves at its default selects a branch that
    # never runs; delete the switch and the branch instead
    calls = {}
    for name, node in _calls():
        calls.setdefault(name, []).append(node)
    unused = [f"{fn}({arg})" for fn, arg, default, index in _bool_parameters()
              if not any(_sets_other_value(c, arg, default, index) for c in calls.get(fn, []))]
    assert not unused, f"boolean parameters no call sets: {unused}"


def test_no_module_imports_a_private_name_from_another():
    # a private name belongs to its module; another module that needs it
    # should get a public one
    found = []
    for path in sorted((ROOT / "src" / "brakekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").split(".")[0] == "brakekit"):
                continue
            found += [f"{path.stem}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"
