"""Per-layer tracing of dynsync from outside the package.

``Tracer.install`` replaces the public functions of each dynsync module with
wrappers that record spans (name, start, end, parent span, operation id) or
count calls, and ``Tracer.uninstall`` puts the originals back. A module binds
the names it imports when it is imported, so a function is replaced under
every name that refers to it in every loaded ``dynsync`` module, not only in
the module that defines it.

Spans stay in memory; ``write`` dumps them when the benchmark ends and
``layer_metrics`` derives per-operation totals, self times and counts.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# (module, function, span name): each call records a span.
TIMED_FUNCTIONS = (
    ("tvg", "generate", "tvg.generate"),
    ("tvg", "assign_ports", "tvg.assign_ports"),
    ("tvg", "disconnections_at", "tvg.disconnections_at"),
    ("synchronizer", "handshake", "synchronizer.handshake"),
    ("synchronizer", "execute_synch", "synchronizer.execute_synch"),
    ("engine", "run", "engine.run"),
    ("engine", "fairness_audit", "engine.fairness_audit"),
    ("algorithms", "reference_run", "algorithms.reference_run"),
    ("verify", "extract_H", "verify.extract_H"),
    ("verify", "check_correctness", "verify.check_correctness"),
    ("verify", "check_sandwich", "verify.check_sandwich"),
    ("verify", "check_pulled_consistency", "verify.check_pulled_consistency"),
    ("verify", "check_strong_nontriviality", "verify.check_strong_nontriviality"),
    ("verify", "check_liveness", "verify.check_liveness"),
    ("cli", "execute_scenario", "cli.execute_scenario"),
    ("cli", "write_artifacts", "cli.write_artifacts"),
)
# (module, class, method, span name): each call records a span.
TIMED_METHODS = (
    ("engine", "RunTrace", "to_jsonl", "engine.to_jsonl"),
    ("engine", "RunTrace", "from_jsonl", "engine.from_jsonl"),
)
# (module, class, method, counter name): each call is counted, no span. These
# run hundreds of thousands of times per operation, where a span would cost
# more than the call.
COUNTED_METHODS = (
    ("tvg", "TimeVaryingGraph", "neighbors_at", "tvg.neighbors_at"),
    ("tvg", "PortAssignment", "port_of", "tvg.port_of"),
    ("engine", "RunTrace", "actions", "engine.trace_scan"),
    ("engine", "RunTrace", "stage_events", "engine.trace_scan"),
)


def _handshake_useful(tracer: "Tracer", result) -> None:
    # A handshake does useful work when it starts a phase or moves a bit.
    log = result[2]
    if log["branch"] == "init" or log["acks_set"] or log["blocks_set"] or log["repulled"]:
        tracer.counts["synchronizer.useful_handshakes"] += 1


def _count_trace_events(tracer: "Tracer", result) -> None:
    tracer.counts["engine.trace_events"] += len(result.events)


def _count_trace_bytes(tracer: "Tracer", result) -> None:
    tracer.counts["engine.trace_bytes"] += len(result)


def _count_strong_pairs(tracer: "Tracer", result) -> None:
    tracer.counts["verify.strong_pairs_checked"] += result.pairs_checked


RESULT_HOOKS = {
    "synchronizer.handshake": _handshake_useful,
    "engine.run": _count_trace_events,
    "engine.to_jsonl": _count_trace_bytes,
    "verify.check_strong_nontriviality": _count_strong_pairs,
}


class Tracer:
    """Spans and counts of the operations run while the wrappers are installed.

    Call ``begin(op)`` before each operation; spans and counts made until the
    next ``begin`` belong to ``op``.
    """

    def __init__(self) -> None:
        # (operation id, span id, parent span id or -1, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.op_counts: dict[int, Counter] = {}
        self.counts: Counter = Counter()
        self._op = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, op: int) -> None:
        self._op = op
        self.counts = self.op_counts.setdefault(op, Counter())

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own steps."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((self._op, span_id, parent, name, start, end))

    def _timed(self, name: str, fn):
        tracer, hook = self, RESULT_HOOKS.get(name)
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((tracer._op, span_id, parent, name, start, end))
            tracer.counts[calls] += 1
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self
        calls = name + "_calls"
        scanned = "engine.trace_events_scanned" if name == "engine.trace_scan" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            if scanned is not None:
                # Every caller in the package drains the scan, so one call
                # reads every event of the trace.
                tracer.counts[scanned] += len(args[0].events)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of the loaded ``dynsync`` modules."""
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name == "dynsync" or name.startswith("dynsync.")
        }

        def module(short: str):
            return modules[f"dynsync.{short}"]

        for mod, fname, name in TIMED_FUNCTIONS:
            original = getattr(module(mod), fname)
            wrapper = self._timed(name, original)
            for owner in modules.values():
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, wrapper)
        for mod, cls_name, method, name in TIMED_METHODS:
            self._patch_method(getattr(module(mod), cls_name), method, self._timed, name)
        for mod, cls_name, method, name in COUNTED_METHODS:
            self._patch_method(getattr(module(mod), cls_name), method, self._counted, name)
        base = module("algorithms").SyncAlgorithm
        for value in list(vars(module("algorithms")).values()):
            if isinstance(value, type) and issubclass(value, base) and "step" in vars(value):
                if not getattr(value.step, "__isabstractmethod__", False):
                    self._patch_method(value, "step", self._counted, "algorithms.step")

    def _patch_method(self, cls: type, method: str, make, name: str) -> None:
        raw = vars(cls)[method]
        if isinstance(raw, classmethod):
            self._patch(cls, method, classmethod(make(name, raw.__func__)))
        else:
            self._patch(cls, method, make(name, raw))

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_times(self, op: int) -> tuple[Counter, Counter]:
        """Total and self time in seconds per span name, for one operation.

        A span's self time is its duration minus the durations of its direct
        children.
        """
        total, own = Counter(), Counter()
        for span, self_ns in self._self_ns(op):
            total[span[3]] += (span[5] - span[4]) / 1e9
            own[span[3]] += self_ns / 1e9
        return total, own

    def step_shares(self, op: int) -> dict[tuple[str, str], float]:
        """Each span name's self time as a share of the benchmark step it ran
        under (``op.run`` or ``op.check``), for one operation. The step's own
        row is the time spent outside every traced function."""
        self_ns_of = self._self_ns(op)
        spans = {span[1]: span for span, _ in self_ns_of}
        shares: Counter = Counter()
        for span, self_ns in self_ns_of:
            step = span
            while step[2] >= 0:
                step = spans[step[2]]
            shares[step[3], span[3]] += self_ns / (step[5] - step[4])
        return dict(shares)

    def _self_ns(self, op: int) -> list[tuple[tuple, int]]:
        spans = [s for s in self.spans if s[0] == op]
        child_ns: Counter = Counter()
        for _op, _id, parent, _name, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [(span, span[5] - span[4] - child_ns[span[1]]) for span in spans]

    def write(self, path: Path) -> None:
        """One JSON array per span, then one JSON object of counts per operation."""
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
            for op, counts in sorted(self.op_counts.items()):
                out.write(json.dumps({"op": op, "counts": dict(sorted(counts.items()))}) + "\n")


def layer_metrics(tracer: Tracer, op: int) -> dict[str, tuple[float, str]]:
    """The published per-layer metrics of one operation (a run plus a check)."""
    total, own = tracer.layer_times(op)
    counts = tracer.op_counts[op]
    handshakes = counts["synchronizer.handshake_calls"]
    useful = counts["synchronizer.useful_handshakes"] / handshakes if handshakes else 0.0
    return {
        "tvg.generate_s": (total["tvg.generate"], "s"),
        "tvg.assign_ports_s": (total["tvg.assign_ports"], "s"),
        "tvg.neighbors_at_calls": (counts["tvg.neighbors_at_calls"], "count"),
        "tvg.disconnections_at_s": (total["tvg.disconnections_at"], "s"),
        "tvg.port_of_calls": (counts["tvg.port_of_calls"], "count"),
        "synchronizer.handshake_s": (total["synchronizer.handshake"], "s"),
        "synchronizer.execute_synch_s": (total["synchronizer.execute_synch"], "s"),
        "synchronizer.handshake_calls": (handshakes, "count"),
        "synchronizer.execute_calls": (counts["synchronizer.execute_synch_calls"], "count"),
        "synchronizer.useful_handshake_ratio": (useful, "ratio"),
        "engine.run_s": (total["engine.run"], "s"),
        "engine.run_self_s": (own["engine.run"], "s"),
        "engine.to_jsonl_s": (total["engine.to_jsonl"], "s"),
        "engine.trace_events": (counts["engine.trace_events"], "count"),
        "engine.trace_bytes": (counts["engine.trace_bytes"], "bytes"),
        "engine.from_jsonl_s": (total["engine.from_jsonl"], "s"),
        "engine.trace_scan_calls": (counts["engine.trace_scan_calls"], "count"),
        "engine.trace_events_scanned": (counts["engine.trace_events_scanned"], "count"),
        "verify.extract_H_s": (total["verify.extract_H"], "s"),
        "verify.extract_H_calls": (counts["verify.extract_H_calls"], "count"),
        "verify.check_sandwich_s": (total["verify.check_sandwich"], "s"),
        "verify.check_pulled_consistency_s": (total["verify.check_pulled_consistency"], "s"),
        "verify.check_liveness_s": (total["verify.check_liveness"], "s"),
        "engine.fairness_audit_s": (total["engine.fairness_audit"], "s"),
        "verify.check_strong_nontriviality_s": (total["verify.check_strong_nontriviality"], "s"),
        "verify.strong_pairs_checked": (counts["verify.strong_pairs_checked"], "count"),
        "algorithms.reference_run_s": (total["algorithms.reference_run"], "s"),
        "algorithms.step_calls": (counts["algorithms.step_calls"], "count"),
        "verify.check_correctness_self_s": (own["verify.check_correctness"], "s"),
        "cli.execute_scenario_self_s": (own["cli.execute_scenario"], "s"),
        "cli.write_artifacts_s": (total["cli.write_artifacts"], "s"),
    }
