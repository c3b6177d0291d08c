#!/usr/bin/env python3
"""dynsync benchmark: `dynsync run` and offline checking, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload churn-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each pair is two operations: an in-process ``dynsync run`` of the
workload's scenario, which writes the trace, history and report, then a check
of the written trace from the trace alone (parse, rebuild the algorithm from
the header, extract the history and run every configured checker). Pairs
repeat, closed loop, until ``--seconds`` have passed. Set-up (importing
dynsync and loading the config) is timed in a fresh interpreter per sample.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: the median over the run's samples, each rescaled to a
nominal host speed by the reference work timed around it (see
``reference.py``), because the speed of a shared host drifts by up to 2x for
seconds or minutes at a time. With ``--trace 1`` it has the per-layer metrics
of a run that alternates untraced and traced pairs (see ``spans.py``), and
the table also gives each traced function's share of the run and the check.
A table with the sample count and quartiles of every metric, and the
wall-clock figures the rescaled ones come from, comes before the JSON line.

Every operation is checked: ``run`` must exit 0 with every configured CHECK
passing, the check of the trace must pass and agree with the written history,
and the trace and history bytes must match the digests pinned in
``workloads.py`` (at the default seed) or, at another seed, repeat exactly
from pair to pair. A warm-up pair at the default seed, not timed, enforces the
pins on every invocation.

Only the standard library is used. The program is imported from ``src/`` of
the checkout this file sits in; without it the benchmark exits 2.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is timed this many times before the first pair, then once more
# after each untraced pair, so that its samples span the whole run.
SETUP_REPEATS = 9
MIN_PAIRS = 3


class ProgramMissing(RuntimeError):
    """The checkout holds no dynsync source to benchmark."""


def import_program() -> SimpleNamespace:
    """Import dynsync from the checkout's ``src/``."""
    if not (SRC / "dynsync" / "__init__.py").is_file():
        raise ProgramMissing(f"no dynsync package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    names = ("algorithms", "cli", "engine", "verify")
    mods = {name: importlib.import_module(f"dynsync.{name}") for name in names}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"dynsync was imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


# Set-up runs in a fresh interpreter per sample, so that every sample pays
# the whole import: dynsync and the standard-library modules it needs.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dynsync import algorithms, cli, engine, verify
cli.load_config(sys.argv[2])
elapsed = time.perf_counter() - start
print(elapsed, cli.__file__)
"""


def time_set_up(config_path: Path) -> float:
    """Seconds a fresh ``python3`` takes to import dynsync from the
    checkout's ``src/`` and to load and validate the workload config."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(config_path)],
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    elapsed, module_file = proc.stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"set-up imported dynsync from {module_file}, not {SRC}")
    return float(elapsed)


@dataclass
class Expected:
    """What a pair at one seed must produce: pinned digests, or those of the
    first pair at that seed."""

    pins: dict | None
    seen: dict | None = None

    def mismatch(self, digests: dict) -> str | None:
        want = self.pins or self.seen
        if want is None:
            self.seen = digests
            return None
        for key, value in sorted(want.items()):
            if digests[key] != value:
                source = "pinned" if self.pins else "first pair's"
                return f"{key} digest {digests[key][:16]}.. differs from the {source} {value[:16]}.."
        return None


@dataclass
class Pair:
    """One run and one check; each is an operation that passes or fails."""

    run_failures: list[str] = field(default_factory=list)
    check_failures: list[str] = field(default_factory=list)
    run_s: float = 0.0
    check_s: float = 0.0
    events: int = 0
    # Reference times (see reference.py) before the run, between the run and
    # the check, and after the check.
    refs: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.run_failures and not self.check_failures

    def rescaled(self) -> tuple[float, float]:
        """Run and check seconds at the nominal host speed."""
        before, between, after = self.refs
        return (
            reference.rescale(self.run_s, before, between),
            reference.rescale(self.check_s, between, after),
        )


@dataclass
class Scenario:
    """One workload config written to disk, with its loaded form."""

    path: Path
    expected: Expected
    config: object = None  # the loaded ScenarioConfig, once dynsync is imported

    @property
    def out_dir(self) -> Path:
        return self.path.parent


def run_once(prog, scenario: Scenario) -> tuple[float, int, str]:
    """One timed ``dynsync run``; returns (seconds, exit code, stdout)."""
    argv = ["run", str(scenario.path), "--out", str(scenario.out_dir), "-q"]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = prog.cli.main(argv)
    return time.perf_counter() - start, code, buf.getvalue()


def enabled_checks(config) -> dict:
    """The checks a scenario config requests, with their settings. As in
    ``dynsync run``, a liveness target of 0 is a request; false is not."""
    return {k: v for k, v in config.checks.items() if v is not None and v is not False}


def check_once(prog, trace_path: Path, checks: dict):
    """One timed check of the written trace from the trace alone."""
    verify = prog.verify
    start = time.perf_counter()
    trace = prog.engine.RunTrace.from_jsonl(trace_path.read_bytes())
    algo = prog.algorithms.make_algorithm(trace.header["algorithm"])
    inputs = trace.header["inputs"]
    extracted = verify.extract_H(trace)
    verdicts = {}
    if "correctness" in checks:
        reports = (
            verify.check_correctness(trace, algo, inputs),
            verify.check_sandwich(trace),
            verify.check_pulled_consistency(trace, algo, inputs),
        )
        verdicts["correctness"] = all(report.ok for report in reports)
    if "strong-nontriviality" in checks:
        verdicts["strong-nontriviality"] = verify.check_strong_nontriviality(trace, extracted).ok
    if "liveness" in checks:
        verdicts["liveness"] = verify.check_liveness(trace, int(checks["liveness"])).ok
    if "fairness" in checks:
        verdicts["fairness"] = prog.engine.fairness_audit(trace).ok
    return time.perf_counter() - start, trace, extracted, verdicts


def run_pair(prog, scenario: Scenario, tracer: spans.Tracer | None, ref_before: float) -> Pair:
    """Run then check one scenario, and verify both against expectations.
    ``ref_before`` is the reference time taken last before the pair."""
    config = scenario.config
    name = config.name
    trace_path = scenario.out_dir / f"{name}.trace.jsonl"
    history_path = scenario.out_dir / f"{name}.h.json"
    report_path = scenario.out_dir / f"{name}.report.txt"
    pair = Pair(refs=[ref_before])
    failures = pair.run_failures
    try:
        with tracer.span("op.run") if tracer else contextlib.nullcontext():
            pair.run_s, code, stdout = run_once(prog, scenario)
        pair.refs.append(reference.time_s())
        if code != 0 or stdout.strip() != "RESULT PASS":
            failures.append(f"run exited {code}: {stdout.strip()!r}")
        report = report_path.read_text(encoding="utf-8").splitlines()
        checked = {line.split()[1]: line.split()[2] for line in report if line.startswith("CHECK ")}
        for check, verdict in sorted(checked.items()):
            if verdict != "PASS":
                failures.append(f"CHECK {check} {verdict}")
        configured = enabled_checks(config)
        if set(checked) != set(configured):
            failures.append(f"run reported checks {sorted(checked)}, configured {sorted(configured)}")
        trace_bytes = trace_path.read_bytes()
        history_bytes = history_path.read_bytes()
        digests = {
            "trace": hashlib.sha256(trace_bytes).hexdigest(),
            "history": hashlib.sha256(history_bytes).hexdigest(),
        }
        mismatch = scenario.expected.mismatch(digests)
        if mismatch:
            failures.append(mismatch)
        events = trace_bytes.count(b"\n") - 2  # header and footer lines

        failures = pair.check_failures
        with tracer.span("op.check") if tracer else contextlib.nullcontext():
            pair.check_s, trace, extracted, verdicts = check_once(prog, trace_path, configured)
        pair.refs.append(reference.time_s())
        for check, ok in sorted(verdicts.items()):
            if not ok:
                failures.append(f"{check} failed")
        if set(verdicts) != set(configured):
            failures.append(f"check ran {sorted(verdicts)}, configured {sorted(configured)}")
        history = json.loads(history_bytes)
        steps = [sorted(map(list, step)) for step in extracted.steps]
        if steps != history.get("steps") or extracted.completed != history.get("completed"):
            failures.append("history extracted from the trace differs from the written one")
        if len(trace.events) != events:
            failures.append(f"parsed {len(trace.events)} events, the file holds {events}")
        pair.events = events
    except Exception:  # one broken operation must not stop the measurement
        failures.append("exception: " + traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
        if failures is pair.run_failures:
            pair.check_failures.append("not attempted: the run failed")
    return pair


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    table: list[tuple] = field(default_factory=list)  # name, unit, samples, value, q1, median, q3
    shares: dict = field(default_factory=dict)  # (step, traced function) -> median share

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def record(self, pair: Pair) -> None:
        # A pair is two operations: the run and the check.
        self.attempted += 2
        self.failed += bool(pair.run_failures) + bool(pair.check_failures)
        for failure in pair.run_failures:
            print(f"FAILED run: {failure}", file=sys.stderr)
        for failure in pair.check_failures:
            print(f"FAILED check: {failure}", file=sys.stderr)

    def add(self, name: str, unit: str, samples: list[float], statistic=None, publish=True) -> None:
        """Tabulate a metric's samples and publish ``statistic(samples)``,
        or, for values that do not vary, the lower median."""
        value = statistic(samples) if statistic else statistics.median_low(samples)
        q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        self.table.append((name, unit, len(samples), value, q1, statistics.median(samples), q3))
        if publish:
            self.metrics[name] = (value, unit)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    pins: dict | None = None,
) -> Result:
    """Set up, warm up and measure one workload; see the module docstring."""
    spec = workloads.WORKLOADS[workload]
    pins = workloads.PINS if pins is None else pins
    prog = import_program()  # fails before any output when the program is missing
    work_dir = OUT / workload
    shutil.rmtree(work_dir, ignore_errors=True)

    def scenario(label: str, at_seed: int) -> Scenario:
        path = work_dir / label / f"{workload}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(spec.config(at_seed, size), sort_keys=True) + "\n", encoding="utf-8")
        expected = Expected(pins.get((workload, size)) if at_seed == workloads.DEFAULT_SEED else None)
        return Scenario(path=path, expected=expected)

    warm = scenario("warmup", workloads.DEFAULT_SEED)
    timed = scenario("timed", seed)
    timed.config = prog.cli.load_config(str(timed.path))
    warm.config = prog.cli.load_config(str(warm.path))
    setup_times: list[float] = []  # rescaled to the nominal host speed
    setup_raw: list[float] = []

    def time_set_up_between(before: float) -> float:
        taken = time_set_up(timed.path)
        after = reference.time_s()
        setup_raw.append(taken)
        setup_times.append(reference.rescale(taken, before, after))
        return after

    # The reference is timed between every two timed steps; each step is
    # rescaled by the reference times on either side of it.
    ref = reference.time_s()
    if not trace:
        for _ in range(SETUP_REPEATS):
            ref = time_set_up_between(ref)

    result = Result()
    warm_pair = run_pair(prog, warm, None, ref)
    result.record(warm_pair)
    ref = warm_pair.refs[-1]

    tracer = spans.Tracer() if trace else None
    plain: list[Pair] = []
    traced: list[tuple[int, Pair]] = []
    start = time.perf_counter()
    op = 0
    while True:
        # Alternate untraced and traced pairs so both see the same conditions.
        use_tracer = trace and op % 2 == 1
        gc.collect()
        if use_tracer:
            tracer.begin(op)
            tracer.install()
            try:
                pair = run_pair(prog, timed, tracer, ref)
            finally:
                tracer.uninstall()
            traced.append((op, pair))
            ref = pair.refs[-1]
        else:
            pair = run_pair(prog, timed, None, ref)
            plain.append(pair)
            ref = pair.refs[-1]
            if not trace and pair.ok:
                ref = time_set_up_between(ref)
        result.record(pair)
        op += 1
        pairs = plain + [p for _, p in traced]
        elapsed = time.perf_counter() - start
        typical = statistics.median([p.run_s + p.check_s for p in pairs])
        enough = len(plain) >= MIN_PAIRS and (not trace or len(traced) >= MIN_PAIRS)
        if enough and elapsed + typical > seconds:
            break
        if op >= MIN_PAIRS and not any(p.ok for p in pairs):
            break  # every pair fails; measuring longer shows nothing new

    if not trace:
        passed = [p for p in plain if p.ok]
        if not passed:
            passed = [Pair(run_s=math.inf, check_s=math.inf, refs=[1.0] * 3)]
        rescaled = [p.rescaled() for p in passed]
        median = statistics.median
        result.add("run_events_per_s", "events/s", [p.events / r for p, (r, _) in zip(passed, rescaled)], median)
        result.add("check_events_per_s", "events/s", [p.events / c for p, (_, c) in zip(passed, rescaled)], median)
        result.add("setup_s", "s", setup_times, median)
        # The same, timed by the wall clock alone: shown, not published.
        result.add("wall.run_events_per_s", "events/s", [p.events / p.run_s for p in passed], median, False)
        result.add("wall.check_events_per_s", "events/s", [p.events / p.check_s for p in passed], median, False)
        result.add("wall.setup_s", "s", setup_raw, median, False)
        result.add("reference_s", "s", [r for p in passed for r in p.refs], median, False)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.add("peak_rss_mb", "MB", [rss_mb])
        result.add("failed_frac", "ratio", [result.failed / result.attempted], publish=False)
        return result

    layer_samples: dict[str, tuple[str, list[float]]] = {}
    share_samples: dict[tuple[str, str], list[float]] = {}
    first_counts = None
    for op_id, pair in traced:
        counts = tracer.op_counts[op_id]  # exact: must repeat from pair to pair
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts and pair.ok:
            result.failed += 1
            print(f"FAILED traced pair {op_id}: counts differ from the first traced pair", file=sys.stderr)
        for name, (value, unit) in spans.layer_metrics(tracer, op_id).items():
            layer_samples.setdefault(name, (unit, []))[1].append(value)
        for key, share in tracer.step_shares(op_id).items():
            share_samples.setdefault(key, []).append(share)
    for name, (unit, samples) in layer_samples.items():
        result.add(name, unit, samples, min if unit == "s" else None)
    result.shares = {key: statistics.median(v) for key, v in share_samples.items()}
    plain_s = min(p.run_s + p.check_s for p in plain)
    traced_s = min(p.run_s + p.check_s for _, p in traced)
    result.add("trace.overhead_frac", "ratio", [(traced_s - plain_s) / plain_s])
    tracer.write(work_dir / "spans.jsonl")
    return result


def print_table(result: Result, header: str) -> None:
    print(header)
    print(f"{'metric':40} {'unit':>9} {'samples':>7} {'value':>12} {'p25':>12} {'median':>12} {'p75':>12}")
    for name, unit, samples, value, q1, med, q3 in result.table:
        fmt = ".10g" if unit in ("count", "bytes") else ".6g"
        print(f"{name:40} {unit:>9} {samples:>7} {value:>12{fmt}} {q1:>12{fmt}} {med:>12{fmt}} {q3:>12{fmt}}")
    print(f"{'attempted':40} {'count':>9} {result.attempted:>7}")
    print(f"{'failed':40} {'count':>9} {result.failed:>7}")
    if result.shares:
        print("# share of each step's time by traced function: self time, median over traced pairs")
        for (step, name), share in sorted(result.shares.items(), key=lambda kv: (kv[0][0], -kv[1])):
            print(f"share {step:9} {name:40} {share:6.3f}")


def result_json(result: Result) -> str:
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, so peak memory is per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = proc.returncode
        print()
    return status


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
        help="workload to measure, or all of them one after another",
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED, help="input seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long to measure")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics; 1: per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--size", choices=workloads.SIZES, default="full",
        help="tiny keeps each workload's shape but runs in under a second",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    mode = "per-layer, traced" if args.trace else "end-to-end, untraced"
    print_table(
        result,
        f"# {args.workload} seed {args.seed} size {args.size}: {mode}, "
        f"closed loop, one pair at a time, {args.seconds:g} s",
    )
    print(result_json(result))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
