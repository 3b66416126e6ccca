import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_every_submodule_resolves_as_an_attribute_of_a_fresh_package():
    # dcmerge loads submodules on demand, so ``import dcmerge`` alone binds none
    names = [name.split(".", 1)[1] for name in MODULES[1:]]
    code = (
        "import sys, dcmerge\n"
        f"for name in {names!r}:\n"
        "    assert getattr(dcmerge, name) is sys.modules['dcmerge.' + name], name\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dcmerge.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
