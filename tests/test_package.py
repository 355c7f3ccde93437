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


# node types a default may be built from to count as a constant
_CONSTANT_NODES = (ast.Constant, ast.Tuple, ast.BinOp, ast.UnaryOp, ast.Name,
                   ast.operator, ast.unaryop, ast.expr_context)


def _constant(node, names):
    """(True, value) when node is a literal, a tuple of or arithmetic on
    literals, or a name in ``names``; (False, None) otherwise."""
    parts = list(ast.walk(node))
    if not all(isinstance(n, _CONSTANT_NODES) for n in parts) or any(
            isinstance(n, ast.Name) and n.id not in names for n in parts):
        return False, None
    return True, eval(compile(ast.Expression(node), "<default>", "eval"),
                      {"__builtins__": {}}, dict(names))


def _module_constants(tree):
    """Module-level names bound once to a constant, such as TOL = 1e-12."""
    names = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            ok, value = _constant(node.value, names)
            if ok:
                names[node.targets[0].id] = value
    return names


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _dataclass_fields(cls, constants):
    """(class name, field, default, index among the constructor's positionals)
    for every field of a dataclass whose default is a constant or None."""
    fields = [item for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    out = []
    for index, item in enumerate(fields):
        ok, default = _constant(item.value, constants) if item.value else (False, None)
        if ok:
            out.append((cls.name, item.target.id, default, index))
    return out


def _constant_parameters():
    """(callable name, parameter name, default, index among positionals or
    None) for every parameter of a function in brakekit, and every field of a
    dataclass, whose default is a constant or None (a module-level constant
    counts by its value).

    A constructor is named after its class; a method's self or cls is not
    counted among the positionals.
    """
    out = []
    for path in sorted((ROOT / "src" / "brakekit").glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = _module_constants(tree)
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    owners[id(item)] = node.name
                if _is_dataclass(node):
                    out += _dataclass_fields(node, constants)
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
            for arg, node in defaults.items():
                ok, default = _constant(node, constants)
                if ok:
                    index = names.index(arg) if arg in names else None
                    out.append((name, arg, default, index))
    return out


def _calls():
    # a call in the tests is no reason to keep an option: only the program counts
    for top in ("src", "brakebench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    yield name, node


def _is_default(node, default):
    """Whether the argument node is written as the default value itself."""
    ok, value = _constant(node, {})
    return ok and isinstance(value, bool) == isinstance(default, bool) and value == default


def _sets_other_value(call, arg, default, index):
    """Whether the call may pass arg a value other than its default."""
    for kw in call.keywords:
        if kw.arg is None:  # **kwargs can carry anything
            return True
        if kw.arg == arg:
            return not _is_default(kw.value, default)
    if index is None:
        return False
    for i, value in enumerate(call.args):
        if isinstance(value, ast.Starred):
            return True
        if i == index:
            return not _is_default(value, default)
    return False


# load_system calls the built-in constructors through the names make and
# dual, with **lag, the document's "lagrangian" entry: their mass and
# potential are set by system documents, not at a call site that names them
DOCUMENT_OPTIONS = {
    ("kinetic_potential_lagrangian", "mass"),
    ("kinetic_potential_lagrangian", "potential"),
    ("quartic_kinetic_lagrangian", "potential"),
    ("kinetic_hamiltonian", "mass"),
    ("kinetic_hamiltonian", "potential"),
}


# options that only the tests set, each for a reason the program does not have
TEST_OPTIONS = {
    # the Fourier closed form is the tests' oracle for the Morse count at
    # every iterate, on the full and on the even loop space
    ("fourier_morse_index", "k"),
    ("fourier_morse_index", "symmetric"),
    # the tests check the mean index's convergence in the iterate count
    ("mean_index", "k_max"),
    # the conjugacy and symmetry checks are oracles the tests run on more samples
    ("verify_conjugacy", "samples"),
    ("check_symmetry", "samples"),
    # the CLI entry: the console script passes nothing, the tests pass argv
    ("main", "argv"),
    # the README's q = 2 simplex homotopy, which no command reaches
    ("bangert_homotopy", "q"),
}


def _unset(parameters):
    calls = {}
    for name, node in _calls():
        calls.setdefault(name, []).append(node)
    return [f"{fn}({arg}={default!r})" for fn, arg, default, index in parameters
            if (fn, arg) not in DOCUMENT_OPTIONS | TEST_OPTIONS
            and not any(_sets_other_value(c, arg, default, index) for c in calls.get(fn, []))]


def test_every_boolean_switch_is_set_somewhere():
    # a switch that every caller leaves at its default selects a branch that
    # never runs; delete the switch and the branch instead
    switches = [p for p in _constant_parameters() if isinstance(p[2], bool)]
    assert switches, "the scan found no boolean parameter"
    unused = _unset(switches)
    assert not unused, f"boolean parameters no call sets: {unused}"


def test_every_constant_option_is_set_somewhere():
    # a numeric, string or None option that every caller leaves at its
    # default is a constant: write it as one in the function body
    options = [p for p in _constant_parameters() if not isinstance(p[2], bool)]
    unused = _unset(options)
    assert not unused, f"options no call sets to another value: {unused}"


def test_option_guard_sees_an_unset_option():
    # a slack=1e-3 that no call sets, and a tolerance bound to a module
    # constant, are both reported; a call that passes another value clears one
    tree = ast.parse("TOL = 1e-12\n"
                     "def bound(x, slack=1e-3, tol=TOL, scale=2 ** -16):\n    pass\n"
                     "bound(1.0, tol=1e-9)\n")
    constants = _module_constants(tree)
    fn = tree.body[1]
    defaults = [_constant(d, constants) for d in fn.args.defaults]
    assert defaults == [(True, 1e-3), (True, 1e-12), (True, 2 ** -16)]
    call = tree.body[2].value
    assert not _sets_other_value(call, "slack", 1e-3, 1)
    assert _sets_other_value(call, "tol", 1e-12, 2)
    assert not _sets_other_value(ast.parse("bound(1.0, 1e-3)").body[0].value, "slack", 1e-3, 1)
    # a dataclass field with a constant default is an option of its constructor
    cls = ast.parse("@dataclass(frozen=True)\nclass Loop:\n    period: int\n"
                    "    winding: object = None\n    tags: list = field(default_factory=list)\n"
                    ).body[0]
    assert _is_dataclass(cls)
    assert _dataclass_fields(cls, constants) == [("Loop", "winding", None, 1)]


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
