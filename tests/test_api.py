"""Every exported name resolves, and every imported name is used.

Nothing imports the package with `import *`, so a name left in a module's
`__all__`, or imported by the package for re-export, after its definition
is deleted would otherwise go unnoticed. No linter runs on the package, so
an import its last user's deletion leaves behind would go unnoticed too.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fdpowerctl

MODULES = sorted(info.name for info in pkgutil.iter_modules(fdpowerctl.__path__))


# (module, name) for each name the package's __init__ imports from a submodule
REEXPORTS = [
    (node.module, alias.name)
    for node in ast.parse(Path(fdpowerctl.__file__).read_text(encoding="utf-8")).body
    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    for alias in node.names
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fdpowerctl.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_modules_with_all_are_covered():
    # the modules that declare their public names; cli is an entry point
    declared = [
        name for name in MODULES
        if hasattr(importlib.import_module(f"fdpowerctl.{name}"), "__all__")
    ]
    assert declared == ["channel", "config", "core", "engine", "oracle", "units"]


@pytest.mark.parametrize("module, name", REEXPORTS, ids=[f"{m}.{n}" for m, n in REEXPORTS])
def test_package_reexports_resolve(module, name):
    source = importlib.import_module(f"fdpowerctl.{module}")
    assert name in source.__all__
    assert getattr(fdpowerctl, name) is getattr(source, name)


@pytest.mark.parametrize("name", MODULES)
def test_modules_use_every_import(name):
    # the package's __init__ imports to re-export, so it is not among MODULES
    module = importlib.import_module(f"fdpowerctl.{name}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", []))) == []
