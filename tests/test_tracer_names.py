"""Every name the benchmark's tracer patches still exists in dynsync.

``perfbench/spans.py`` wraps functions and methods by name; a name that
disappears from the package breaks ``perfbench/run.py --trace 1`` without
failing anything else, so the tracer's tables are checked here. The file is
loaded by path and left unchanged.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
