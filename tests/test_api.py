"""Every exported name resolves, every imported name is used, and every
private name is referenced.

Nothing imports the package with `import *`, so a name left in a module's
`__all__`, or imported by the package for re-export, after its definition
is deleted would otherwise go unnoticed. No linter runs on the package, so
an import its last user's deletion leaves behind would go unnoticed too,
and so would a private helper nothing calls, or a constant nothing reads,
any more.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fdpowerctl

MODULES = sorted(info.name for info in pkgutil.iter_modules(fdpowerctl.__path__))


# the parsed source of each package module, __init__ included
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in Path(fdpowerctl.__file__).parent.glob("*.py")
}

# (module, name) for each name the package's __init__ imports from a submodule
REEXPORTS = [
    (node.module, alias.name)
    for node in TREES["__init__"].body
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
    assert declared == ["channel", "config", "core", "engine", "oracle"]


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


def _top_level_names(module: str) -> set[str]:
    """The names a package module defines at top level: functions, classes
    and assignment targets."""
    defined = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return defined


# every name some package module reads, as a name, an attribute or an import
REFERENCED = set()
for _tree in TREES.values():
    for node in ast.walk(_tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            REFERENCED.add(node.id)
        elif isinstance(node, ast.Attribute):
            REFERENCED.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            REFERENCED.update(alias.name for alias in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_private_names_are_referenced(name):
    # a top-level _name (function, class or assignment) some package module reads
    private = {n for n in _top_level_names(name) if n.startswith("_") and not n.startswith("__")}
    assert sorted(private - REFERENCED) == []


@pytest.mark.parametrize("name", MODULES)
def test_constants_are_read(name):
    # a top-level UPPER_CASE constant, public ones included, that some
    # package module reads: a tuning constant its last reader left is dead
    constants = {n for n in _top_level_names(name) if n.isupper()}
    assert sorted(constants - REFERENCED) == []


# Fields no package module reads, each kept for a reason of its own.
UNREAD_FIELDS = {
    # the analytic gradient, which tests difference the update against
    "FLReport.grad",
    # the closed-form least fixed point, which tests compare fixed points with
    "MinPowerOptimum.x",
}


def test_result_fields_are_read():
    # every field of a dataclass the package defines is read as an attribute
    # somewhere in the package: a field no output reads is dead weight
    fields = set()
    for tree in TREES.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                fields |= {
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                }
    read = {
        node.attr
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {f"{cls}.{name}" for cls, name in fields if name not in read}
    # an exception that is read, or gone, leaves the list too
    assert sorted(unread ^ UNREAD_FIELDS) == []
