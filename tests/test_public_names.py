"""Every advertised public name resolves where it is advertised."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tubespectra

MODULES = sorted(m.name for m in pkgutil.iter_modules(tubespectra.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"tubespectra.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"tubespectra.{name}.__all__ lists undefined {missing}"


def test_package_reexports_match_their_modules():
    tree = ast.parse(Path(tubespectra.__file__).read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"tubespectra.{node.module}")
        for alias in node.names:
            if hasattr(mod, "__all__"):
                assert alias.name in mod.__all__, f"{node.module}.{alias.name} not public"
            assert getattr(tubespectra, alias.asname or alias.name) is getattr(mod, alias.name)
