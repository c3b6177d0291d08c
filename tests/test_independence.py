"""The checkers cannot share code with what they check: neither
``dynsync.verify`` nor ``dynsync.trace`` reaches ``dynsync.engine`` or
``dynsync.synchronizer``, directly or through another dynsync module.

Two views of this are checked. The import statements are read from the
source with ``ast``, wherever in a file they stand, so an import inside a
function counts too. And a fresh interpreter that parses a trace from disk
and runs every check on it must not have loaded the engine, the
synchronizer, the command line or the demo: the package's ``__init__``
imports a module only when one of its names is first used.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import dynsync
from dynsync.cli import execute_scenario, load_config

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
    assert {"dynsync.engine", "dynsync.demo"} <= transitive_imports("dynsync.cli")


@pytest.mark.parametrize("module", ["dynsync.verify", "dynsync.trace"])
def test_the_checkers_import_neither_engine_nor_synchronizer(module):
    reached = transitive_imports(module)
    assert "dynsync.tvg" in reached
    assert not {"dynsync.engine", "dynsync.synchronizer"} & reached, sorted(reached)


# parses the trace at argv[2] and checks it; prints each check's name and
# verdict, then the dynsync modules loaded
CHECK_FROM_DISK = """
import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from dynsync.trace import RunTrace
from dynsync.verify import check_trace
trace = RunTrace.from_jsonl(Path(sys.argv[2]).read_bytes())
checks = {"correctness": True, "strong-nontriviality": True, "liveness": 1, "fairness": True}
for result in check_trace(trace, checks):
    print(result.name, result.ok)
print(" ".join(sorted(name for name in sys.modules if name.startswith("dynsync"))))
"""


def test_checking_a_trace_from_disk_loads_no_code_it_checks(tmp_path):
    path = tmp_path / "churn_mesh.trace.jsonl"
    path.write_bytes(execute_scenario(load_config("churn_mesh")).trace.to_jsonl())
    proc = subprocess.run(
        [sys.executable, "-I", "-c", CHECK_FROM_DISK, str(PACKAGE.parent), str(path)],
        capture_output=True, text=True, check=True,
    )
    *verdicts, loaded = proc.stdout.splitlines()
    assert verdicts == [
        "correctness True", "strong-nontriviality True", "liveness True", "fairness True"
    ]
    loaded = set(loaded.split())
    assert {"dynsync.trace", "dynsync.verify"} <= loaded
    gone = {"dynsync.engine", "dynsync.synchronizer", "dynsync.cli", "dynsync.demo"}
    assert not gone & loaded, sorted(loaded)


def test_only_the_trace_module_names_the_scheduler_kinds():
    """``trace.SchedulerPolicy`` is the one place that knows the schedulers,
    so no other module spells a kind that belongs to schedulers alone
    ("scripted" names a dynamics kind too)."""
    kinds = {"all-active", "sequential", "random-subset"}
    naming = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in kinds
    }
    assert naming == {"trace.py"}
