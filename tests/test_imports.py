"""Importing dynsync loads only what a run needs. ``dataclasses`` is not
among it: its import pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and with the code it generates per class it was about half of
every invocation's set-up time. Nor is ``hashlib``: it always loads
``_hashlib``, OpenSSL's library, first, and dynsync's one hash, BLAKE2b,
comes from ``_blake2``, where ``hashlib.blake2b`` comes from too. Nor is
``argparse``, with the ``gettext`` it loads: only the command line's parser
uses it, so a library import or a config load does not pay for it."""
import hashlib
import subprocess
import sys
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
