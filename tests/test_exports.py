"""The package's public names: every __all__ entry resolves, and the package
root re-exports exactly the union of the __all__ of the modules it
star-imports."""

import ast
import importlib
import inspect
import pkgutil
import types

import skewalg


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(skewalg.__path__):
        module = importlib.import_module(f"skewalg.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name


def test_root_exports_the_union_of_its_modules_all():
    imports = [
        node for node in ast.parse(inspect.getsource(skewalg)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports and all([alias.name for alias in node.names] == ["*"] for node in imports)
    modules = [importlib.import_module(f"skewalg.{node.module}") for node in imports]
    # without __all__ a star import would also hand out np, functools, ...
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == []
    listed = [name for m in modules for name in m.__all__]
    assert len(listed) == len(set(listed))
    public = {
        name for name, value in vars(skewalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(listed)
