"""The benchmark still finds in dynsync every name it reads.

``perfbench/spans.py`` wraps functions and methods by name, and
``perfbench/run.py``'s ``check_once`` calls the trace parser, the checkers
and the fairness audit by module and name. A name that moves or disappears
from the package breaks the benchmark without failing anything else, so the
tracer's tables are checked here, and ``check_once`` is run on a bundled
trace. Both files are loaded by path and left unchanged.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

from dynsync.cli import execute_scenario, load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_spans()
    missing = []
    for mod, fname, _ in spans.TIMED_FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"dynsync.{mod}"), fname, None)):
            missing.append(f"{mod}.{fname}")
    for mod, cls_name, method, _ in spans.TIMED_METHODS + spans.COUNTED_METHODS:
        cls = getattr(importlib.import_module(f"dynsync.{mod}"), cls_name, None)
        # the tracer replaces the entry in the class's own namespace
        if cls is None or method not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{method}")
    assert not missing, f"names perfbench/spans.py traces are gone: {missing}"


def test_benchmark_check_passes_a_bundled_trace(monkeypatch, tmp_path):
    # run.py imports its sibling modules from its own directory and puts src/
    # first on the path, and its dataclasses look their module up in
    # sys.modules: the path and that entry are restored when the test ends
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    outcome = execute_scenario(load_config("churn_mesh"))
    path = tmp_path / "churn_mesh.trace.jsonl"
    path.write_bytes(outcome.trace.to_jsonl())
    checks = bench.enabled_checks(outcome.config)
    _, _, extracted, verdicts = bench.check_once(bench.import_program(), path, checks)
    assert sorted(verdicts) == sorted(checks)
    assert all(verdicts.values()), verdicts
    assert extracted.steps == outcome.checks.extracted.steps
