"""Package layout: re-exported names never hide a submodule."""

import importlib
import pkgutil
import types

import divreg


def test_every_submodule_imports_as_a_module():
    names = [m.name for m in pkgutil.iter_modules(divreg.__path__)]
    assert "diversity" in names
    for name in names:
        namespace = {}
        exec(f"import divreg.{name} as x", namespace)
        assert isinstance(namespace["x"], types.ModuleType), name
        assert namespace["x"] is importlib.import_module(f"divreg.{name}")
