import importlib
import pkgutil

import pytest

import dcmerge

MODULES = ["dcmerge"] + [
    f"dcmerge.{info.name}" for info in pkgutil.iter_modules(dcmerge.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"{module_name}.__all__ names missing attributes: {stale}"
