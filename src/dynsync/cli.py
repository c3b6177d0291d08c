"""Scenario-driven command line entry point.

Subcommands: ``run`` executes one scenario config and writes trace, committed
history, and report artifacts; ``synth`` builds a scenario from a target edge
history and round-trips it; ``demo`` emits the paired-execution record for a
registered two-node commit protocol; ``scenarios`` lists the bundled configs.

All artifacts are deterministic functions of the config: no timestamps, sorted
keys, fixed separators. Exit codes: 0 all requested checks passed, 1 a check
failed, 2 the config or arguments are invalid, 3 an internal invariant broke.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Any

from .algorithms import make_algorithm
from .engine import (
    InternalInvariantError,
    RunTrace,
    SchedulerPolicy,
    _dumps,
    fairness_audit,
    run,
)
from .synchronizer import ProtocolViolation
from .tvg import (
    DynamicsPolicy,
    ScenarioError,
    TimeVaryingGraph,
    generate,
    normalize_edges,
)
from .verify import (
    CLASSIC_PROTOCOLS,
    HANDSHAKE_DEMO,
    ExtractedSynch,
    SymmetryViolation,
    build_weak_nontriviality,
    check_correctness,
    check_liveness,
    check_pulled_consistency,
    check_sandwich,
    check_strong_nontriviality,
    extract_H,
    impossibility_demo,
    extended_model_demo,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_INVALID = 2
EXIT_INTERNAL = 3

REPORT_SCHEMA = "report/v1"
H_SCHEMA = "history/v1"
CHECK_NAMES = ("correctness", "strong-nontriviality", "liveness", "fairness")


def derive_seed(seed: int, label: str) -> int:
    """Stable per-component sub-seed so one config seed fans out without the
    dynamics and scheduler streams colliding."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


@dataclass
class ScenarioConfig:
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
    checks: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict, fallback_name: str = "scenario") -> "ScenarioConfig":
        _require(isinstance(raw, dict), "config root must be an object")
        unknown = set(raw) - {f.name for f in fields(cls)}
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
        _require(isinstance(self.n, int) and self.n >= 1, f"n must be >= 1, got {self.n!r}")
        _require(
            isinstance(self.delta, int) and self.delta >= 1,
            f"delta must be >= 1, got {self.delta!r}",
        )
        _require(
            isinstance(self.horizon, int) and self.horizon >= 1,
            f"horizon must be >= 1, got {self.horizon!r}",
        )
        _require(isinstance(self.seed, int), "seed must be an integer")
        for section in ("dynamics", "scheduler", "algorithm"):
            value = getattr(self, section)
            _require(isinstance(value, dict), f"{section} must be an object")
            _require("kind" in value or section == "algorithm", f"{section} needs a kind")
        _require(isinstance(self.checks, dict), "checks must be an object")
        unknown = set(self.checks) - set(CHECK_NAMES)
        _require(not unknown, f"unknown checks: {sorted(unknown)}")
        for name, value in self.checks.items():
            if name == "liveness":
                # JSON true is a Python int, so the target's type must be int itself
                _require(
                    value is False or (type(value) is int and value >= 0),
                    f"liveness check takes false or a non-negative integer target, got {value!r}",
                )
            else:
                _require(isinstance(value, bool), f"{name} check takes a boolean, got {value!r}")

    # -- builders ----------------------------------------------------------

    def build_graph(self) -> TimeVaryingGraph:
        spec = dict(self.dynamics)
        kind = spec.pop("kind")
        seed = spec.pop("seed", derive_seed(self.seed, "dynamics"))
        if kind == "static":
            edges = normalize_edges(spec.pop("edges", []))
            policy = DynamicsPolicy(kind="static", initial=tuple(sorted(edges)))
        elif kind == "random-churn":
            policy = DynamicsPolicy(
                kind="random-churn",
                seed=seed,
                p_drop=spec.pop("p_drop", 0.0),
                p_add=spec.pop("p_add", 0.0),
                initial=tuple(sorted(normalize_edges(spec.pop("initial", [])))),
            )
        elif kind == "scripted":
            stages = spec.pop("stages", None)
            _require(isinstance(stages, list), "scripted dynamics needs a stages array")
            script = tuple(normalize_edges(stage) for stage in stages)
            policy = DynamicsPolicy(kind="scripted", script=script)
        else:
            raise ScenarioError(f"unknown dynamics kind {kind!r}")
        _require(not spec, f"unknown dynamics keys: {sorted(spec)}")
        return generate(policy, self.n, self.delta, self.horizon)

    def build_scheduler(self) -> SchedulerPolicy:
        spec = dict(self.scheduler)
        kind = spec.pop("kind")
        seed = spec.pop("seed", derive_seed(self.seed, "scheduler"))
        if kind in ("all-active", "sequential"):
            policy = SchedulerPolicy(kind=kind, seed=seed)
        elif kind == "random-subset":
            policy = SchedulerPolicy(
                kind=kind,
                seed=seed,
                p_activate=spec.pop("p_activate", 0.5),
                fairness_bound=spec.pop("fairness_bound", 1),
            )
        elif kind == "scripted":
            stages = spec.pop("stages", None)
            _require(isinstance(stages, list), "scripted scheduler needs a stages array")
            script = []
            for t, chosen in enumerate(stages):
                _require(
                    isinstance(chosen, list)
                    and all(isinstance(u, int) and 0 <= u < self.n for u in chosen),
                    f"stage {t}: scripted activation references unknown nodes: {chosen!r}",
                )
                script.append(tuple(sorted(set(chosen))))
            policy = SchedulerPolicy(kind=kind, seed=seed, script=tuple(script))
        else:
            raise ScenarioError(f"unknown scheduler kind {kind!r}")
        _require(not spec, f"unknown scheduler keys: {sorted(spec)}")
        return policy

    def build_algorithm(self):
        spec = dict(self.algorithm)
        name = spec.pop("name", None)
        _require(isinstance(name, str), "algorithm needs a name")
        inputs = spec.pop("inputs", None)
        _require(not spec, f"unknown algorithm keys: {sorted(spec)}")
        if inputs is not None:
            _require(
                isinstance(inputs, list)
                and len(inputs) == self.n
                and all(isinstance(v, int) for v in inputs),
                f"algorithm inputs must list one integer per node ({self.n})",
            )
        return make_algorithm(name), inputs


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class ScenarioOutcome:
    config: ScenarioConfig
    trace: RunTrace
    extracted: ExtractedSynch | None
    extract_error: str | None
    checks: list[CheckResult]
    stats: dict

    @property
    def ok(self) -> bool:
        return self.extract_error is None and all(c.ok for c in self.checks)


def execute_scenario(config: ScenarioConfig, selected: set[str] | None = None) -> ScenarioOutcome:
    """Run the engine and the configured checks; no file I/O here."""
    graph = config.build_graph()
    scheduler = config.build_scheduler()
    algo, inputs = config.build_algorithm()
    trace = run(
        graph,
        scheduler,
        algo,
        inputs=inputs,
        header_extra={"scenario": config.name, "seed": config.seed},
    )

    extracted, extract_error = None, None
    try:
        extracted = extract_H(trace, graph.ports)
    except (SymmetryViolation, ScenarioError) as exc:
        extract_error = str(exc)

    # identity test: a liveness target of 0 is a real request, but JSON
    # false/absent is not, and 0 == False in Python
    requested = [
        name
        for name in CHECK_NAMES
        if config.checks.get(name, False) is not False
        and (selected is None or name in selected)
    ]
    fair = fairness_audit(trace)
    results: list[CheckResult] = []
    for name in requested:
        if name in ("correctness", "strong-nontriviality") and extracted is None:
            results.append(CheckResult(name, False, f"history extraction failed: {extract_error}"))
            continue
        if name == "correctness":
            equal = check_correctness(trace, algo, inputs, extracted=extracted)
            sandwich = check_sandwich(trace)
            snapshots = check_pulled_consistency(trace, algo, inputs)
            ok = equal.ok and sandwich.ok and snapshots.ok
            detail = equal.describe()
            if not sandwich.ok:
                detail += "; " + sandwich.failures[0]
            elif not snapshots.ok:
                detail += "; " + snapshots.failures[0]
            else:
                detail += (
                    f"; {sandwich.checked} commits sandwiched; "
                    f"{snapshots.checked} snapshots consistent"
                )
            results.append(CheckResult(name, ok, detail))
        elif name == "strong-nontriviality":
            strong = check_strong_nontriviality(trace, extracted)
            if strong.ok:
                detail = f"oracle agrees on {strong.phases} phases ({strong.pairs_checked} pair checks)"
            else:
                detail = f"missing {strong.missing[:3]} extra {strong.extra[:3]}"
            results.append(CheckResult(name, strong.ok, detail))
        elif name == "liveness":
            live = check_liveness(trace, config.checks["liveness"])
            detail = live.describe()
            if not live.stall_ok:
                detail += " (stall exceeds heuristic window)"
            results.append(CheckResult(name, live.ok, detail))
        elif name == "fairness":
            results.append(
                CheckResult(
                    name,
                    fair.ok,
                    f"max activation gap {fair.max_gap} vs bound {fair.bound} "
                    f"(worst node {fair.worst_node})",
                )
            )

    index = trace.index
    stats = {
        "phases_completed": [len(events) for events in index.executes],
        "min_phase": len(index.phase_starts) - 1,
        "r_stages": index.phase_starts,
        "max_fairness_gap": fair.max_gap,
        "guard_checks": trace.footer.get("guard_checks"),
    }
    return ScenarioOutcome(
        config=config,
        trace=trace,
        extracted=extracted,
        extract_error=extract_error,
        checks=results,
        stats=stats,
    )


def render_report(outcome: ScenarioOutcome) -> str:
    cfg = outcome.config
    lines = [
        f"schema {REPORT_SCHEMA}",
        f"scenario {cfg.name}",
        f"n {cfg.n} delta {cfg.delta} horizon {cfg.horizon} seed {cfg.seed}",
        f"algorithm {cfg.algorithm.get('name')}",
    ]
    for key in ("phases_completed", "min_phase", "r_stages", "max_fairness_gap", "guard_checks"):
        value = outcome.stats[key]
        if isinstance(value, list):
            value = ",".join(map(str, value))
        lines.append(f"stat {key} {value}")
    if outcome.extract_error is not None:
        lines.append(f"CHECK extraction FAIL {outcome.extract_error}")
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
    if outcome.extracted is None:
        doc["error"] = outcome.extract_error
    else:
        doc["phases"] = outcome.extracted.compared_phases
        doc["completed"] = outcome.extracted.completed
        doc["steps"] = [sorted(map(list, step)) for step in outcome.extracted.steps]
    return doc


def write_artifacts(outcome: ScenarioOutcome, out_dir: Path, report: str) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    base = outcome.config.name
    paths = {
        "trace": out_dir / f"{base}.trace.jsonl",
        "history": out_dir / f"{base}.h.json",
        "report": out_dir / f"{base}.report.txt",
    }
    paths["trace"].write_bytes(outcome.trace.to_jsonl())
    paths["history"].write_text(_dumps(history_document(outcome)) + "\n", encoding="utf-8")
    paths["report"].write_text(report, encoding="utf-8")
    return paths


def finish(outcome: ScenarioOutcome, out_dir: Path, quiet: bool, *written: Path) -> int:
    """Write the artifacts, print the report (only its result line when
    ``quiet``) and every written path, and return the exit code. ``written``
    lists files the command wrote before the artifacts."""
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
    root = resources.files("dynsync").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(ref: str, seed_override: int | None = None) -> ScenarioConfig:
    """Accept a filesystem path or the bare name of a bundled scenario."""
    path = Path(ref)
    if path.exists():
        text, fallback = path.read_text(encoding="utf-8"), path.stem
    else:
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
    if seed_override is not None:
        raw = dict(raw)
        raw["seed"] = seed_override
    return ScenarioConfig.from_dict(raw, fallback_name=fallback)


# -- subcommands --------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.scenario, args.seed)
    selected = set(args.checks.split(",")) if args.checks else None
    if selected is not None:
        unknown = selected - set(CHECK_NAMES)
        _require(not unknown, f"unknown checks requested: {sorted(unknown)}")
    return finish(execute_scenario(config, selected), Path(args.out), args.quiet)


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        raw = json.loads(Path(args.history).read_text(encoding="utf-8"))
        _require(isinstance(raw, dict), "history file root must be an object")
        n, delta = raw.get("n"), raw.get("delta")
        steps = raw.get("steps")
        _require(isinstance(n, int) and n >= 1, "history needs n >= 1")
        _require(isinstance(delta, int) and delta >= 1, "history needs delta >= 1")
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
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / f"{name}.scenario.json"
    config_path.write_text(_dumps(asdict(config)) + "\n", encoding="utf-8")

    outcome = execute_scenario(config)
    want = [normalize_edges(s) for s in steps]
    got = outcome.extracted.steps if outcome.extracted else []
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
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_INVALID
    except (ProtocolViolation, InternalInvariantError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
