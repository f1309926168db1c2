"""The package's public names: every __all__ entry resolves, and every name
the package root re-exports from a module with __all__ is listed there."""

import ast
import importlib
import inspect
import pkgutil

import skewalg


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(skewalg.__path__):
        module = importlib.import_module(f"skewalg.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name


def test_root_exports_are_listed_in_their_module_all():
    imports = [
        node for node in ast.parse(inspect.getsource(skewalg)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"skewalg.{node.module}")
        if hasattr(module, "__all__"):
            unlisted = [alias.name for alias in node.names if alias.name not in module.__all__]
            assert unlisted == [], node.module
