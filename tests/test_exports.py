import importlib
import pkgutil

import pytest

import abcoulomb

MODULES = ["abcoulomb"] + [f"abcoulomb.{m.name}" for m in pkgutil.iter_modules(abcoulomb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from module import *``
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
