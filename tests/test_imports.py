"""Importing dynsync loads only what a run needs. ``dataclasses`` is not
among it: its import pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and with the code it generates per class it was about half of
every invocation's set-up time."""
import subprocess
import sys
from pathlib import Path

import dynsync

# the modules a fresh interpreter holds after importing dynsync and its CLI,
# beyond those it held before, one name a line
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import dynsync, dynsync.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    src = Path(dynsync.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(src)], capture_output=True, text=True, check=True
    )
    new = proc.stdout.split()
    assert "dynsync.cli" in new
    assert not {"dataclasses", "inspect"} & set(new), f"importing dynsync loaded {new}"
