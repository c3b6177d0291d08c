"""Scenario-driven command line entry point.

Subcommands: ``run`` executes one scenario config and writes trace, committed
history, and report artifacts; ``synth`` builds a scenario from a target edge
history and round-trips it; ``demo`` emits the paired-execution record for a
registered two-node commit protocol; ``scenarios`` lists the bundled configs.

All artifacts are deterministic functions of the config: no timestamps, sorted
keys, fixed separators. Exit codes: 0 all requested checks passed, 1 a check
failed, 2 the config or arguments are invalid (a scenario too large for
memory included), 3 an internal invariant broke or any other error was raised.
"""
from __future__ import annotations

import gc
import json
import os
import sys
# hashlib.blake2b is this same type, but importing hashlib also loads OpenSSL
from _blake2 import blake2b
from functools import partial
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, NamedTuple, NoReturn, Sequence

from .algorithms import make_algorithm
from .demo import CLASSIC_PROTOCOLS, HANDSHAKE_DEMO, extended_model_demo, impossibility_demo
from .engine import InternalInvariantError, run
from .synchronizer import ProtocolViolation
from .trace import RunTrace, SchedulerPolicy, _dumps
from .tvg import Edge, ScenarioError, TimeVaryingGraph, generate, normalize_edges
from .verify import CheckResult, Verdict, check_request, check_trace

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_INVALID = 2
EXIT_INTERNAL = 3

REPORT_SCHEMA = "report/v1"
H_SCHEMA = "history/v1"


def derive_seed(seed: int, label: str) -> int:
    """Stable per-component sub-seed so one config seed fans out without the
    dynamics and scheduler streams colliding."""
    digest = blake2b(f"{seed}:{label}".encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _require_size(value: Any, what: str) -> None:
    # a JSON true is a Python int, and a size over sys.maxsize cannot index a list
    ok = type(value) is int and 1 <= value <= sys.maxsize
    _require(ok, f"{what} must be an integer from 1 to {sys.maxsize}, got {value!r}")


class ScenarioConfig(NamedTuple):
    """Validated declarative scenario: sizes, dynamics, scheduler, algorithm,
    and which checks gate the exit status."""

    name: str
    n: int
    delta: int
    horizon: int
    seed: int
    dynamics: dict
    scheduler: dict
    algorithm: dict
    checks: dict

    @classmethod
    def from_dict(cls, raw: dict, fallback_name: str = "scenario") -> "ScenarioConfig":
        _require(isinstance(raw, dict), "config root must be an object")
        unknown = set(raw) - set(cls._fields)
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        for key in ("n", "delta", "horizon", "dynamics", "scheduler", "algorithm"):
            _require(key in raw, f"config is missing {key!r}")
        cfg = cls(
            name=raw.get("name", fallback_name),
            n=raw["n"],
            delta=raw["delta"],
            horizon=raw["horizon"],
            seed=raw.get("seed", 0),
            dynamics=raw["dynamics"],
            scheduler=raw["scheduler"],
            algorithm=raw["algorithm"],
            checks=raw.get("checks", {name: True for name in ("correctness", "fairness")}),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        # the name becomes the artifacts' file names inside the output directory
        _require(
            isinstance(self.name, str)
            and Path(self.name).name == self.name
            and self.name not in ("", ".", ".."),
            f"name must be a plain file name, got {self.name!r}",
        )
        for key in ("n", "delta", "horizon"):
            _require_size(getattr(self, key), key)
        _require(type(self.seed) is int, f"seed must be an integer, got {self.seed!r}")
        for section in ("dynamics", "scheduler", "algorithm"):
            value = getattr(self, section)
            _require(isinstance(value, dict), f"{section} must be an object")
            _require("kind" in value or section == "algorithm", f"{section} needs a kind")
        check_request(self.checks)

    # -- builders ----------------------------------------------------------

    def build_graph(self) -> TimeVaryingGraph:
        spec = dict(self.dynamics)
        kind = spec.pop("kind")
        # each branch reads its keys; the graph is built once no key is left
        if kind == "static":
            edges = normalize_edges(spec.pop("edges", []))
            build = partial(TimeVaryingGraph, self.n, self.delta, (edges,) * self.horizon)
        elif kind == "random-churn":
            build = partial(
                generate,
                self.n,
                self.delta,
                self.horizon,
                seed=spec.pop("seed", derive_seed(self.seed, "dynamics")),
                p_drop=spec.pop("p_drop", 0.0),
                p_add=spec.pop("p_add", 0.0),
                initial=spec.pop("initial", []),
            )
        elif kind == "scripted":
            stages = spec.pop("stages", None)
            _require(isinstance(stages, list), "scripted dynamics needs a stages array")
            _require(
                len(stages) == self.horizon,
                f"scripted dynamics has {len(stages)} stages, horizon wants {self.horizon}",
            )
            script = tuple(map(normalize_edges, stages))
            build = partial(TimeVaryingGraph, self.n, self.delta, script)
        else:
            raise ScenarioError(f"unknown dynamics kind {kind!r}")
        _require(not spec, f"unknown dynamics keys: {sorted(spec)}")
        return build()

    def build_scheduler(self) -> SchedulerPolicy:
        return SchedulerPolicy.from_config(self.scheduler, derive_seed(self.seed, "scheduler"))

    def build_algorithm(self):
        spec = dict(self.algorithm)
        name = spec.pop("name", None)
        _require(isinstance(name, str), "algorithm needs a name")
        inputs = spec.pop("inputs", None)
        _require(not spec, f"unknown algorithm keys: {sorted(spec)}")
        algo = make_algorithm(name)
        if inputs is not None:
            _require(algo.takes_inputs, f"algorithm {name!r} takes no inputs")
            _require(
                isinstance(inputs, list)
                and len(inputs) == self.n
                and all(type(v) is int for v in inputs),
                f"algorithm inputs must list one integer per node ({self.n})",
            )
        return algo, inputs


class ScenarioOutcome(NamedTuple):
    config: ScenarioConfig
    trace: RunTrace
    checks: Verdict  # carries the extracted history, None when extraction failed
    stats: dict

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def execute_scenario(config: ScenarioConfig, out_dir: Path | None = None) -> ScenarioOutcome:
    """Run the engine and check its trace. Given ``out_dir``, the trace is
    also written there as NAME.trace.jsonl (see ``TraceWriter``) while it is
    checked; without it, no file is touched."""
    graph = config.build_graph()
    scheduler = config.build_scheduler()
    algo, inputs = config.build_algorithm()
    header_extra = {"scenario": config.name, "seed": config.seed}
    trace = run(graph, scheduler, algo, inputs=inputs, header_extra=header_extra)
    if out_dir is None:
        return check_scenario(config, trace, graph)
    out_dir.mkdir(parents=True, exist_ok=True)
    with TraceWriter(trace, trace_path(out_dir, config.name)):
        return check_scenario(config, trace, graph)


def check_scenario(
    config: ScenarioConfig, trace: RunTrace, graph: TimeVaryingGraph
) -> ScenarioOutcome:
    """Check a run's trace and read the report's statistics from it."""
    checks = check_trace(trace, config.checks, graph.ports)
    index = trace.index
    stats = {
        "phases_completed": [len(events) for events in index.executes],
        "min_phase": len(index.phase_starts) - 1,
        "r_stages": index.phase_starts,
        "max_fairness_gap": checks.fairness.max_gap,
        "guard_checks": trace.footer.get("guard_checks"),
    }
    return ScenarioOutcome(config, trace, checks, stats)


def trace_path(out_dir: Path, name: str) -> Path:
    return out_dir / f"{name}.trace.jsonl"


def cpus_available() -> int:
    """The CPUs this process may run on, or 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def write_trace(trace: RunTrace, f: BinaryIO) -> None:
    lines = trace.lines()
    # written in batches of lines: a write call per line slows the run
    while batch := "".join(islice(lines, 256)):
        f.write(batch.encode())


class TraceWriter:
    """Writes a trace to ``path`` while the ``with`` body runs.

    The file is opened on entry, so an open error raises before the body.
    With two CPUs or more, a forked child writes the trace and the body runs
    beside it; on one CPU, or where ``os.sched_getaffinity`` is missing, the
    trace is written on entry, because there a child would only slow the
    run. The bytes are the same either way. The child is reaped on exit
    however the body ends, and its failed write raises there as the inline
    write would: an ``OSError`` with the same errno and message. A child that
    ends any other way raises ``InternalInvariantError``. When the body
    raises, the trace is removed, as it was never written when the checks
    ran before the write."""

    def __init__(self, trace: RunTrace, path: Path) -> None:
        self.trace = trace
        self.path = path
        self.pid = 0

    def __enter__(self) -> None:
        with self.path.open("wb") as f:
            if cpus_available() < 2:
                write_trace(self.trace, f)
            elif (pid := os.fork()) == 0:
                _write_in_child(self.trace, f)
            else:
                self.pid = pid  # the parent's copy of the file closes here

    def __exit__(self, exc_type, exc, tb) -> None:
        status = os.waitpid(self.pid, 0)[1] if self.pid else 0
        if exc_type is not None:
            self.path.unlink(missing_ok=True)
            return
        code = os.waitstatus_to_exitcode(status)
        if 0 < code < 255:
            raise OSError(code, os.strerror(code))
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise InternalInvariantError(f"the trace writer {how}")


def _write_in_child(trace: RunTrace, f: BinaryIO) -> NoReturn:
    """A forked writer's whole life. It leaves through ``os._exit``, so it
    never returns into its caller's frames or flushes the stdio it inherited.
    Its exit status is 0 once the trace is written and closed, the errno of
    an ``OSError``, and 255 for anything else, whose repr goes to stderr."""
    status = 255
    try:
        write_trace(trace, f)
        f.close()
        status = 0
    except OSError as exc:
        status = exc.errno or 255
    except Exception as exc:
        os.write(2, f"trace writer: {exc!r}\n".encode())
    finally:
        os._exit(status)


def render_report(outcome: ScenarioOutcome) -> str:
    cfg = outcome.config
    lines = [
        f"schema {REPORT_SCHEMA}",
        f"scenario {cfg.name}",
        f"n {cfg.n} delta {cfg.delta} horizon {cfg.horizon} seed {cfg.seed}",
        f"algorithm {cfg.algorithm.get('name')}",
    ]
    for key, value in outcome.stats.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        lines.append(f"stat {key} {value}")
    for result in outcome.checks:
        lines.append(f"CHECK {result.name} {'PASS' if result.ok else 'FAIL'} {result.detail}")
    lines.append(f"RESULT {'PASS' if outcome.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def history_document(outcome: ScenarioOutcome) -> dict:
    doc: dict[str, Any] = {
        "schema": H_SCHEMA,
        "scenario": outcome.config.name,
        "n": outcome.config.n,
        "delta": outcome.config.delta,
    }
    extracted = outcome.checks.extracted
    if extracted is None:
        doc["error"] = outcome.checks[0].detail  # the failed extraction's
    else:
        doc["phases"] = extracted.compared_phases
        doc["completed"] = extracted.completed
        doc["steps"] = [sorted(map(list, step)) for step in extracted.steps]
    return doc


def write_artifacts(outcome: ScenarioOutcome, out_dir: Path, report: str) -> dict[str, Path]:
    """Write the history and the report next to the trace that
    ``execute_scenario`` wrote to ``out_dir``, and return all three paths."""
    base = outcome.config.name
    paths = {
        "trace": trace_path(out_dir, base),
        "history": out_dir / f"{base}.h.json",
        "report": out_dir / f"{base}.report.txt",
    }
    paths["history"].write_text(_dumps(history_document(outcome)) + "\n", encoding="utf-8")
    paths["report"].write_text(report, encoding="utf-8")
    return paths


def finish(outcome: ScenarioOutcome, out_dir: Path, quiet: bool, *written: Path) -> int:
    """Write the history and the report, print the report (only its result
    line when ``quiet``) and every artifact's path, and return the exit
    code. The outcome comes from ``execute_scenario`` given the same
    ``out_dir``, which wrote the trace. ``written`` lists files the command
    wrote before the history."""
    report = render_report(outcome)
    paths = write_artifacts(outcome, out_dir, report)
    if quiet:
        print(report.splitlines()[-1])
    else:
        print(report, end="")
        print("artifacts:", *written, *paths.values())
    return EXIT_OK if outcome.ok else EXIT_CHECK_FAILED


# -- config loading ----------------------------------------------------------


def bundled_scenarios() -> list[str]:
    # imported where a bundled scenario is looked up, not with the module: on
    # Python 3.12 and later importing importlib.resources loads inspect
    from importlib import resources

    root = resources.files("dynsync").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(ref: str, seed_override: int | None = None) -> ScenarioConfig:
    """Accept a filesystem path or the bare name of a bundled scenario."""
    path = Path(ref)
    if path.exists():
        text, fallback = path.read_text(encoding="utf-8"), path.stem
    else:
        from importlib import resources  # as in bundled_scenarios

        resource = resources.files("dynsync").joinpath(f"scenarios/{ref}.json")
        if not resource.is_file():
            raise ScenarioError(
                f"no such scenario file or bundled name: {ref!r} "
                f"(bundled: {', '.join(bundled_scenarios())})"
            )
        text, fallback = resource.read_text(encoding="utf-8"), ref
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config is not valid JSON: {exc}") from exc
    # a root that is not an object is left for from_dict to name
    if seed_override is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed_override}
    return ScenarioConfig.from_dict(raw, fallback_name=fallback)


# -- subcommands --------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.scenario, args.seed)
    if args.checks:
        selected = set(args.checks.split(","))
        # names only: False is a setting that every check takes
        check_request(dict.fromkeys(selected, False), "checks requested")
        unset = sorted(name for name in selected if config.checks.get(name, False) is False)
        _require(not unset, f"checks requested but not configured: {unset}")
        config = config._replace(checks={k: v for k, v in config.checks.items() if k in selected})
    out_dir = Path(args.out)
    return finish(execute_scenario(config, out_dir), out_dir, args.quiet)


def build_weak_nontriviality(
    n: int, delta: int, steps: Sequence[Sequence[Edge]]
) -> tuple[TimeVaryingGraph, SchedulerPolicy]:
    """Construct dynamics and a schedule under which the synchronizer commits
    exactly the given edge history: each target set is held for three stages,
    everyone acts on the first and third, only edge-incident nodes act on the
    second. Every node finishes step i at the end of stage 3i+2."""
    normalized = [normalize_edges(s) for s in steps]
    stages: list[frozenset[Edge]] = []
    script: list[tuple[int, ...]] = []
    everyone = tuple(range(n))
    for edges in normalized:
        touched = tuple(sorted({w for e in edges for w in e}))
        stages += [edges, edges, edges]
        script += [everyone, touched, everyone]
    graph = TimeVaryingGraph(n, delta, tuple(stages))
    scheduler = SchedulerPolicy(kind="scripted", script=tuple(script))
    return graph, scheduler


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        raw = json.loads(Path(args.history).read_text(encoding="utf-8"))
        _require(isinstance(raw, dict), "history file root must be an object")
        n, delta = raw.get("n"), raw.get("delta")
        steps = raw.get("steps")
        _require_size(n, "history n")
        _require_size(delta, "history delta")
        _require(isinstance(steps, list) and steps, "history needs a non-empty steps array")
        graph, scheduler = build_weak_nontriviality(n, delta, steps)
    except (ScenarioError, json.JSONDecodeError, OSError) as exc:
        print(f"invalid history: {exc}", file=sys.stderr)
        return EXIT_CONFIG_INVALID

    name = Path(args.history).stem + "-synth"
    config = ScenarioConfig(
        name=name,
        n=n,
        delta=delta,
        horizon=graph.lifetime,
        seed=0,
        dynamics={
            "kind": "scripted",
            "stages": [sorted(map(list, s)) for s in graph.stages],
        },
        scheduler={"kind": "scripted", "stages": [list(s) for s in scheduler.script]},
        algorithm={"name": args.algorithm},
        checks={"correctness": True, "strong-nontriviality": True, "liveness": len(steps)},
    )
    config.validate()
    out_dir = Path(args.out)
    outcome = execute_scenario(config, out_dir)
    # written only for a run that finished, so a rejected history leaves no config
    config_path = out_dir / f"{name}.scenario.json"
    config_path.write_text(_dumps(config._asdict()) + "\n", encoding="utf-8")
    want = [normalize_edges(s) for s in steps]
    got = outcome.checks.extracted.steps if outcome.checks.extracted else []
    round_trip = list(got[: len(want)]) == want and len(got) >= len(want)
    outcome.checks.append(
        CheckResult(
            "round-trip",
            round_trip,
            f"extracted history matches the {len(want)}-step input"
            if round_trip
            else f"extracted {len(got)} steps differ from input",
        )
    )
    schedule_ok = all(
        outcome.trace.index.phase_at(u, 3 * i + 3) == i + 1
        for u in range(n)
        for i in range(len(want))
    )
    outcome.checks.append(
        CheckResult(
            "phase-schedule",
            schedule_ok,
            "every node finishes step i at stage 3i+2" if schedule_ok else "cadence broken",
        )
    )
    return finish(outcome, out_dir, args.quiet, config_path)


def cmd_demo(args: argparse.Namespace) -> int:
    name = args.protocol
    if name == HANDSHAKE_DEMO:
        record = extended_model_demo()
    elif name in CLASSIC_PROTOCOLS:
        record = impossibility_demo(name)
    else:
        known = sorted(CLASSIC_PROTOCOLS) + [HANDSHAKE_DEMO]
        raise ScenarioError(f"unknown protocol {name!r} (known: {', '.join(known)})")
    record["note"] = (
        "demonstration on the paired two-node executions only, "
        "not a prover over all protocols"
    )
    if record["model"] == "classic-pull" and not record["observer_streams_identical"]:
        print("internal invariant violated: observer streams diverged", file=sys.stderr)
        return EXIT_INTERNAL
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.demo.json"
    path.write_text(_dumps(record) + "\n", encoding="utf-8")
    print(f"protocol {name} [{record['model']}]")
    print(f"verdict: {record['verdict']}")
    print(f"record: {path}")
    return EXIT_OK


def cmd_scenarios(_args: argparse.Namespace) -> int:
    for name in bundled_scenarios():
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # imported where it is used, so that importing dynsync or loading a
    # config does not load argparse and gettext
    import argparse

    parser = argparse.ArgumentParser(
        prog="dynsync",
        description="simulate and verify the handshake synchronizer on dynamic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config and its checks")
    p_run.add_argument("scenario", help="path to a config file, or a bundled scenario name")
    p_run.add_argument("--out", default=".", help="artifact directory (default: .)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--checks", default=None, help="comma list restricting which checks run")
    p_run.add_argument("-q", "--quiet", action="store_true", help="print only the result line")
    p_run.set_defaults(func=cmd_run)

    p_synth = sub.add_parser(
        "synth", help="build, run, and round-trip a scenario from a target edge history"
    )
    p_synth.add_argument("history", help="JSON file with n, delta, steps=[[edge,...],...]")
    p_synth.add_argument("--out", default=".", help="artifact directory (default: .)")
    p_synth.add_argument(
        "--algorithm", default="history-hash", help="algorithm to simulate (default: history-hash)"
    )
    p_synth.add_argument("-q", "--quiet", action="store_true", help="print only the result line")
    p_synth.set_defaults(func=cmd_synth)

    p_demo = sub.add_parser("demo", help="paired-execution record for a commit protocol")
    p_demo.add_argument(
        "protocol",
        help=f"one of: {', '.join(sorted(CLASSIC_PROTOCOLS) + [HANDSHAKE_DEMO])}",
    )
    p_demo.add_argument("--out", default=".", help="artifact directory (default: .)")
    p_demo.set_defaults(func=cmd_demo)

    p_list = sub.add_parser("scenarios", help="list bundled scenario names")
    p_list.set_defaults(func=cmd_scenarios)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A command makes no reference cycles, so refcounting frees all it
    # allocates; cyclic collections would only rescan the growing trace.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_INVALID
    except MemoryError:
        print("config error: the scenario does not fit in memory", file=sys.stderr)
        return EXIT_CONFIG_INVALID
    except (ProtocolViolation, InternalInvariantError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        import traceback  # only on this path: it loads linecache and tokenize
        traceback.print_exc()
        print(f"internal invariant violated: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
