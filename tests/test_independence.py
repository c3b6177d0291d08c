"""The checkers cannot share code with what they check: neither
``dynsync.verify`` nor ``dynsync.trace`` reaches ``dynsync.engine`` or
``dynsync.synchronizer`` through its imports, directly or through another
dynsync module. The import statements are read from the source with ``ast``:
importing any dynsync module first runs the package's ``__init__``, which
imports every module.
"""
import ast
from pathlib import Path

import pytest

import dynsync

PACKAGE = Path(dynsync.__file__).resolve().parent


def source(module: str) -> Path:
    """The file of a dynsync module name, ``dynsync`` itself included."""
    if module == "dynsync":
        return PACKAGE / "__init__.py"
    return PACKAGE / (module.split(".", 1)[1] + ".py")


def direct_imports(module: str) -> set[str]:
    """The dynsync modules that ``module``'s own import statements name,
    wherever in the file they stand."""
    named = set()
    for node in ast.walk(ast.parse(source(module).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            # the package of a relative import is dynsync: its modules are flat
            base = "dynsync" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
                named.add(base)
            # ``from dynsync import engine`` names a module too
            named |= {f"{base}.{alias.name}" for alias in node.names}
    return {name for name in named if name.split(".")[0] == "dynsync" and source(name).is_file()}


def transitive_imports(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for name in direct_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_the_walk_finds_imports():
    assert {"dynsync.synchronizer", "dynsync.trace", "dynsync.tvg"} <= transitive_imports(
        "dynsync.engine"
    )
    assert "dynsync.engine" in transitive_imports("dynsync")


@pytest.mark.parametrize("module", ["dynsync.verify", "dynsync.trace"])
def test_the_checkers_import_neither_engine_nor_synchronizer(module):
    reached = transitive_imports(module)
    assert "dynsync.tvg" in reached
    assert not {"dynsync.engine", "dynsync.synchronizer"} & reached, sorted(reached)
