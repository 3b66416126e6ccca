import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import dcmerge

from helpers import python

MODULES = ["dcmerge"] + [
    f"dcmerge.{info.name}" for info in pkgutil.iter_modules(dcmerge.__path__)
]


def _public_definitions(module):
    """The functions and classes ``module`` defines whose names have no leading underscore."""
    return sorted(name for name, value in vars(module).items()
                  if (inspect.isfunction(value) or inspect.isclass(value))
                  and value.__module__ == module.__name__ and not name.startswith("_"))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # _SUBMODULES is the one list of public names: a submodule's row holds exactly the
    # functions and classes it defines without a leading underscore, and dcmerge.<name> is
    # the submodule's own object; a submodule with no row (cli, _blas) lends no name
    module = importlib.import_module(module_name)
    if module is dcmerge:
        assert [name for name in dcmerge.__all__ if not hasattr(dcmerge, name)] == []
        return
    names = _public_definitions(module)
    row = dcmerge._SUBMODULES.get(module_name.split(".", 1)[1])
    if row is None:
        assert [name for name in names if hasattr(dcmerge, name)] == []
    else:
        assert sorted(row) == names
        assert [name for name in row if getattr(dcmerge, name) is not getattr(module, name)] == []


def test_every_submodule_resolves_as_an_attribute_of_a_fresh_package():
    # dcmerge loads submodules on demand, so ``import dcmerge`` alone binds none
    names = [name.split(".", 1)[1] for name in MODULES[1:]]
    code = (
        "import sys, dcmerge\n"
        f"for name in {names!r}:\n"
        "    assert getattr(dcmerge, name) is sys.modules['dcmerge.' + name], name\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr


def _imports(paths):
    """(file name, module) of every absolute import statement in ``paths``, those inside
    functions included."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
    assert found
    return found


def test_the_package_imports_only_the_stdlib_numpy_and_itself():
    # a lazy import of another dependency fails here, not only on an install without test extras
    allowed = sys.stdlib_module_names | {"numpy", "dcmerge"}
    found = _imports(sorted(Path(dcmerge.__file__).parent.rglob("*.py")))
    assert [(f, m) for f, m in found if m.split(".")[0] not in allowed] == []


def test_no_test_module_imports_another():
    # shared set-up lives in helpers (and conftest), so each test module runs on its own
    tests = Path(__file__).parent
    local = {path.stem for path in tests.glob("*.py")} - {"helpers", "conftest"}
    found = _imports(sorted(tests.glob("*.py")))
    assert [(f, m) for f, m in found if m.split(".")[0] in local] == []


def test_no_function_has_a_parameter_it_never_reads():
    # a parameter no line reads is surface with no effect; *args and **kwargs may pass through
    unread = []
    for path in sorted(Path(dcmerge.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            unread += [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p.arg})"
                       for p in params if p.arg not in read | {"self", "cls"}]
    assert unread == []
