import importlib
import pkgutil

import pytest

import brakekit

MODULES = sorted(m.name for m in pkgutil.iter_modules(brakekit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"brakekit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"brakekit.{name}.__all__ names undefined {missing}"
