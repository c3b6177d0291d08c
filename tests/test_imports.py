"""Importing dynsync loads only what a run needs. ``dataclasses`` is not
among it: its import pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and with the code it generates per class it was about half of
every invocation's set-up time. Nor is ``hashlib``: it always loads
``_hashlib``, OpenSSL's library, first, and dynsync's one hash, BLAKE2b,
comes from ``_blake2``, where ``hashlib.blake2b`` comes from too. Nor is
``argparse``, with the ``gettext`` it loads: only the command line's parser
uses it, so a library import or a config load does not pay for it.

``import dynsync`` itself loads none of its modules: each public name is
imported from its module on first use, is that module's object, and is
listed once in the package's ``__init__``."""
import ast
import hashlib
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import dynsync
from dynsync import algorithms, cli

# the modules a fresh interpreter holds after importing dynsync and its CLI,
# beyond those it held before, one name a line
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import dynsync, dynsync.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def modules_loaded_by_import():
    src = Path(dynsync.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(src)], capture_output=True, text=True, check=True
    )
    new = proc.stdout.split()
    assert "dynsync.cli" in new
    return new


def test_import_loads_neither_dataclasses_nor_inspect():
    new = modules_loaded_by_import()
    assert not {"dataclasses", "inspect"} & set(new), f"importing dynsync loaded {new}"


def test_import_loads_neither_hashlib_nor_openssl():
    new = modules_loaded_by_import()
    assert not {"hashlib", "_hashlib"} & set(new), f"importing dynsync loaded {new}"


def test_import_loads_neither_argparse_nor_gettext():
    new = modules_loaded_by_import()
    assert not {"argparse", "gettext"} & set(new), f"importing dynsync loaded {new}"


def test_blake2b_is_hashlibs():
    # so every digest, trace, history and pin is what hashlib would give
    assert algorithms.blake2b is hashlib.blake2b
    assert cli.blake2b is hashlib.blake2b


def test_importing_the_package_loads_none_of_its_modules():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dynsync; "
        "print(' '.join(name for name in sys.modules if name.startswith('dynsync')))"
    )
    src = Path(dynsync.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["dynsync"]


def test_every_public_name_is_its_modules_object_and_is_listed_once():
    for name in dynsync.__all__:
        module = importlib.import_module(f"dynsync.{dynsync._MODULE_OF[name]}")
        assert vars(module)[name].__module__ == module.__name__, name
        assert getattr(dynsync, name) is vars(module)[name], name
        namespace = {}
        exec(f"from dynsync import {name}", namespace)
        assert namespace[name] is vars(module)[name], name
    # every string and identifier of __init__'s code, its docstring left out
    tree = ast.parse(Path(dynsync.__file__).read_text(encoding="utf-8"))
    words = Counter(
        node.value if isinstance(node, ast.Constant) else node.id
        for statement in tree.body[1:]
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) or isinstance(node, ast.Constant) and type(node.value) is str
    )
    assert {name: words[name] for name in dynsync.__all__} == dict.fromkeys(dynsync.__all__, 1)
