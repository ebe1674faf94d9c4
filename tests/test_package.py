"""Package layout: re-exported names never hide a submodule, and each has
a caller."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import divreg


def test_every_submodule_imports_as_a_module():
    names = [m.name for m in pkgutil.iter_modules(divreg.__path__)]
    assert "diversity" in names
    for name in names:
        namespace = {}
        exec(f"import divreg.{name} as x", namespace)
        assert isinstance(namespace["x"], types.ModuleType), name
        assert namespace["x"] is importlib.import_module(f"divreg.{name}")


# Names the package exports for tests and users although nothing in src/
# calls them: the template baseline (`nearest_template`), the numpy
# diversity score the tape route is tested against (`measure_diversity`)
# and the engine of the gradient-check suite (`grad_check`).
_NO_CALLER_IN_SRC = {"measure_diversity", "nearest_template", "grad_check"}


def test_every_public_name_has_a_caller():
    # a reference is a name read in a module other than __init__ and the
    # gradient-check suite, outside the top-level definition of that name
    referenced = set()
    for path in Path(divreg.__file__).parent.glob("*.py"):
        if path.name in ("__init__.py", "gradcheck.py"):
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            referenced.update(node.id for node in ast.walk(top)
                              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                              and node.id != own)
    exported = {name for name in divreg.__all__
                if not isinstance(getattr(divreg, name), types.ModuleType)}  # submodules
    assert _NO_CALLER_IN_SRC <= exported
    assert sorted(exported - referenced - _NO_CALLER_IN_SRC) == []
    assert sorted(_NO_CALLER_IN_SRC & referenced) == []  # the list holds no stale entry
