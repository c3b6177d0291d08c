"""Checkers for synchronizer runs.

Every checker works from a trace alone: its ground-truth logs (presence,
port maps, activation sets, per-phase commits), read through the index
``dynsync.trace`` builds, by code paths of its own. This module imports
nothing from the engine or the synchronizer, so no checker can re-read live
synchronizer state or share a bug with the code it checks. ``extract_H``
recovers the committed history, ``check_strong_nontriviality`` is the
oracle that re-derives from timelines alone exactly which edges each phase
must have committed, and ``check_trace`` is the one verdict path that runs
extraction, the fairness audit and every requested checker. The index
checks the shape of every event field a checker reads, so the checkers test
only invariants; liveness and fairness read the scheduler's promise through
the index's ``policy``. ``check_request`` is the one rule for which checks
a config, ``dynsync run --checks`` or a caller may request.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Any, NamedTuple, Sequence

from .algorithms import SyncAlgorithm, make_algorithm, reference_run
from .trace import FairnessReport, RunTrace, fairness_audit
from .tvg import Edge, PortAssignment, ScenarioError, edge


class SymmetryViolation(RuntimeError):
    """One endpoint committed an edge for a phase, the other did not."""


class ExtractedSynch(NamedTuple):
    """The committed-edge history recovered from a trace: one edge set per
    phase, up to the minimum phase every node completed. Later phases some
    nodes completed are reported but not comparable."""

    steps: list[frozenset[Edge]]
    completed: list[int]

    @property
    def compared_phases(self) -> int:
        return len(self.steps)


def extract_H(trace: RunTrace, ports: PortAssignment | None = None) -> ExtractedSynch:
    """Recover the per-phase committed edge sets, failing loudly on any
    one-sided commitment. When a port assignment is supplied, the trace's
    embedded ground-truth port maps, which nothing else reads, are
    cross-checked against it."""
    per_node = trace.index.executes
    n, delta = trace.n, trace.header["delta"]
    completed = [len(evs) for evs in per_node]
    # committed[u][i]: neighbor -> port for node u's phase i commit
    committed = [[{v: p for p, v in ev["committed_map"]} for ev in evs] for evs in per_node]
    for u, phases in enumerate(committed):
        for i, neighbors in enumerate(phases):
            for v in neighbors:
                if i < completed[v] and u not in committed[v][i]:
                    raise SymmetryViolation(
                        f"phase {i}: node {u} committed the edge to {v}, node {v} did not"
                    )
    if ports is not None:
        for u in range(n):
            for ev in trace.index.inits[u]:
                expected = sorted((p, v) for p, v in ports.occupied(ev["t"], u).items())
                if [list(pair) for pair in expected] != ev["port_map"]:
                    raise ScenarioError(
                        f"stage {ev['t']}: trace port map for node {u} disagrees with assignment"
                    )
    steps: list[frozenset[Edge]] = []
    for i in range(min(completed)):
        # edge() names a node that committed an edge to itself
        edges = {edge(u, v) for u, phases in enumerate(committed) for v in phases[i]}
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        if any(d > delta for d in degree):
            raise ScenarioError(f"phase {i}: committed graph exceeds degree bound {delta}")
        steps.append(frozenset(edges))
    return ExtractedSynch(steps=steps, completed=completed)


class EquivalenceReport(NamedTuple):
    ok: bool
    compared_phases: int
    divergence: tuple[int, int, str, str] | None = None  # node, phase, got, want

    def describe(self) -> str:
        if self.ok:
            return f"states byte-equal over {self.compared_phases} phases"
        u, i, got, want = self.divergence
        return f"node {u} phase {i}: got {got}, reference {want}"


def check_correctness(
    trace: RunTrace,
    algo: SyncAlgorithm,
    inputs: Sequence[Any] | None = None,
    extracted: ExtractedSynch | None = None,
) -> EquivalenceReport:
    """Byte-compare every node's phase-boundary algorithm state against a
    fully synchronous reference run over the extracted edge history. Without
    ``extracted`` the history is extracted here."""
    executes = trace.index.executes
    if extracted is None:
        extracted = extract_H(trace)
    m = extracted.compared_phases
    after_step = reference_run(algo, extracted.steps, trace.n, inputs).after_step
    for u, events in enumerate(executes):
        for i in range(m):
            got = events[i]["state"]
            want = algo.serialize(after_step[i][u]).hex()
            if got != want:
                return EquivalenceReport(ok=False, compared_phases=m, divergence=(u, i, got, want))
    return EquivalenceReport(ok=True, compared_phases=m)


class InvariantReport(NamedTuple):
    ok: bool
    checked: int
    failures: list[str]


def check_sandwich(trace: RunTrace) -> InvariantReport:
    """At every phase commit: the ports still waited on are all committed,
    and nothing outside the phase's wait-set origin is."""
    checked, failures = 0, []
    for u, events in enumerate(trace.index.executes):
        for ev in events:
            checked += 1
            committed = set(ev["committed"])
            valid = set(ev["valid"])
            waiting = valid - set(ev["phase_drops"])
            if not waiting <= committed:
                failures.append(
                    f"node {u} phase {ev['phase']}: waiting {sorted(waiting)} not all committed"
                )
            if not committed <= valid:
                failures.append(
                    f"node {u} phase {ev['phase']}: committed {sorted(committed)} outside valid"
                )
    return InvariantReport(ok=not failures, checked=checked, failures=failures)


def check_pulled_consistency(
    trace: RunTrace, algo: SyncAlgorithm, inputs: Sequence[Any] | None = None
) -> InvariantReport:
    """Every committed port's stored snapshot must equal the partner's actual
    state at the partner's own commit boundary for the same phase."""
    checked, failures = 0, []
    # boundary[v][i + 1]: node v's state after phase i, its initial one first
    boundary = [
        [algo.serialize(algo.init(v, None if inputs is None else inputs[v])).hex()]
        + [ev["state"] for ev in events]
        for v, events in enumerate(trace.index.executes)
    ]
    for u, events in enumerate(trace.index.executes):
        for ev in events:
            # the index checks that the pulled ports are the committed ones
            for (p, partner), (_, snapshot) in zip(ev["committed_map"], ev["pulled"]):
                checked += 1
                states = boundary[partner]
                want = states[ev["phase"]] if ev["phase"] < len(states) else None
                if want is None:
                    failures.append(
                        f"node {u} phase {ev['phase']} port {p}: partner {partner} "
                        f"has no recorded boundary for the prior phase"
                    )
                elif snapshot != want:
                    failures.append(
                        f"node {u} phase {ev['phase']} port {p}: stale snapshot of node {partner}"
                    )
    return InvariantReport(ok=not failures, checked=checked, failures=failures)


class StrongReport(NamedTuple):
    ok: bool
    phases: int
    pairs_checked: int  # every node pair per phase, absent pairs included
    missing: list[tuple[int, int, int]]  # u, v, phase
    extra: list[tuple[int, int, int]]


def check_strong_nontriviality(
    trace: RunTrace, extracted: ExtractedSynch | None = None
) -> StrongReport:
    """Independent oracle for which edges each phase must commit.

    Re-derived from timelines only (presence per stage, activation sets,
    phase windows): a pair is committed for a phase exactly when the edge is
    present at both endpoints' phase starts, neither endpoint is already past
    the phase when the other starts it, and the edge survives, without any
    gap since the earlier phase start, through the ack exchange: the first
    stage each side acts while seeing the other in the same phase, and, if
    those coincide, the next stage either side acts again. This is checked in
    both directions: every such pair must be in the committed set, and
    nothing else may be. A pair absent at the lower endpoint's phase start
    fails the first condition, so only the pairs present there are
    evaluated.
    """
    if extracted is None:
        extracted = extract_H(trace)
    index = trace.index
    n = trace.n
    horizon = len(index.stages)
    # One pass over the stages builds, for each stage t, since[t], which maps
    # each present edge's key u*n+v to the first stage of its unbroken
    # presence run through t, and above[t], which maps u to its neighbors
    # v > u at t. Both hold one entry per edge in the trace.
    since: list[dict[int, int]] = []
    above: list[dict[int, list[int]]] = []
    present: dict[int, int] = {}
    for ev in index.stages:
        t = ev["t"]
        run_start = present.get
        present = {}
        upper: dict[int, list[int]] = {}
        for u, v in ev["edges"]:
            key = u * n + v
            present[key] = run_start(key, t)
            if u in upper:
                upper[u].append(v)
            else:
                upper[u] = [v]
        since.append(present)
        above.append(upper)
    # each node's stages, and one past every window below for lookups to find
    acts = [stages + [horizon] for stages in index.acts]

    init_stage = [[ev["t"] for ev in inits] for inits in index.inits]
    missing, extra = [], []
    for i in range(extracted.compared_phases):
        starts = [stages[i] for stages in init_stage]
        ends = [stages[i] for stages in index.exec_stages]
        # a node is in phase i from the stage after its phase i-1 execute
        # through the stage of its phase i execute
        entered = [stages[i - 1] + 1 for stages in index.exec_stages] if i else [0] * n
        want = set()
        # Each test below is a comparison or a lookup: conditional
        # expressions stand in for min and max, whose calls cost more than
        # the rest of the test.
        for u in range(n):
            t_u, e_u, acts_u = starts[u], ends[u], acts[u]
            for v in above[t_u].get(u, ()):
                t_v, e_v = starts[v], ends[v]
                # neither endpoint is past the phase when the other starts
                # it, and the edge is present at both phase starts
                if e_v < t_u or e_u < t_v:
                    continue
                key = u * n + v
                if key not in since[t_v]:
                    continue
                # each side's first act while it sees the other in phase i:
                # before its own execute, and by the other's
                start = entered[v] if entered[v] > t_u else t_u
                ca_u = acts_u[bisect_left(acts_u, start)]
                if ca_u >= e_u or ca_u > e_v:
                    continue
                acts_v = acts[v]
                start = entered[u] if entered[u] > t_v else t_v
                ca_v = acts_v[bisect_left(acts_v, start)]
                if ca_v >= e_v or ca_v > e_u:
                    continue
                if ca_u != ca_v:
                    completion = ca_u if ca_u > ca_v else ca_v
                else:
                    # the next stage either side acts, before both execute
                    next_u = acts_u[bisect_left(acts_u, ca_u + 1)]
                    next_v = acts_v[bisect_left(acts_v, ca_u + 1)]
                    completion = next_u if next_u < next_v else next_v
                    if completion >= e_u and completion >= e_v:
                        continue
                # present without a gap from the earlier phase start on
                if since[completion].get(key, horizon) <= (t_u if t_u < t_v else t_v):
                    want.add((u, v))
        got = extracted.steps[i]
        missing += [(u, v, i) for u, v in sorted(want - got)]
        extra += [(u, v, i) for u, v in sorted(got - want)]
    return StrongReport(
        ok=not missing and not extra,
        phases=extracted.compared_phases,
        pairs_checked=extracted.compared_phases * (n * (n - 1) // 2),
        missing=missing,
        extra=extra,
    )


class LivenessReport(NamedTuple):
    ok: bool
    target: int
    reached: int
    first_stage: list[int]  # first stage whose start has min phase >= index
    max_stall: int
    stall_window: int
    stall_ok: bool  # heuristic, not a formal bound

    def describe(self) -> str:
        note = "" if self.stall_ok else " (stall exceeds heuristic window)"
        return (
            f"min phase reached {self.reached} (target {self.target}); "
            f"max stall {self.max_stall} vs heuristic window {self.stall_window}{note}"
        )


def check_liveness(trace: RunTrace, target: int) -> LivenessReport:
    """The minimum phase across nodes must reach the target before the
    horizon. The stall window is a harness heuristic for spotting schedulers
    that starve progress, not a proven bound."""
    starts = trace.index.phase_starts
    reached = len(starts) - 1
    first_stage = starts[: min(target, reached) + 1]
    promise = trace.index.policy.promised_gap(trace.n, trace.horizon)
    window = promise * (trace.header["delta"] + 2) * trace.n * 4
    stalls = [b - a for a, b in zip(first_stage, first_stage[1:])] or [0]
    if reached < target:
        stalls.append(trace.horizon - first_stage[-1])
    max_stall = max(stalls)
    return LivenessReport(
        ok=reached >= target,
        target=target,
        reached=reached,
        first_stage=first_stage,
        max_stall=max_stall,
        stall_window=window,
        stall_ok=max_stall <= window,
    )


CHECK_NAMES = ("correctness", "strong-nontriviality", "liveness", "fairness")


def check_request(checks: Any, what: str = "checks") -> None:
    """The rule for a check request, which a config's ``checks``, ``dynsync
    run --checks`` and ``check_trace`` share: an object whose keys are check
    names, each set to a boolean, and liveness to false or a non-negative
    integer target. ``what`` names the request in the errors."""
    if not isinstance(checks, dict):
        raise ScenarioError(f"{what} must be an object")
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ScenarioError(f"unknown {what}: {sorted(unknown)}")
    for name, value in checks.items():
        if name == "liveness":
            if not (value is False or (type(value) is int and value >= 0)):
                raise ScenarioError(
                    f"liveness check takes false or a non-negative integer target, got {value!r}"
                )
        elif not isinstance(value, bool):
            raise ScenarioError(f"{name} check takes a boolean, got {value!r}")


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class Verdict(list):
    """The ``CheckResult`` list ``check_trace`` returns. It also carries the
    extracted history (None when extraction failed) and the fairness audit,
    which a run's statistics read whether or not fairness was requested."""

    extracted: ExtractedSynch | None = None
    fairness: FairnessReport


def check_trace(trace: RunTrace, checks: dict, ports: PortAssignment | None = None) -> Verdict:
    """Extract the history, audit fairness and run each requested checker,
    each once.

    ``checks`` maps check names to settings, as a config's ``checks`` does,
    under ``check_request``'s rule: a name whose setting is False is not
    requested, so a liveness target of 0 is. The algorithm and inputs are
    rebuilt from the trace header, and ``ports`` goes to ``extract_H`` for
    the port-map cross-check. A bad request, and a malformed header, event
    or footer, raise ``ScenarioError`` whatever checks are requested: the
    trace index checks every field a checker reads. A failed extraction is
    the first result, ``extraction``, and fails the checks that need the
    history.
    """
    check_request(checks)
    trace.index  # bad input raises here, not as a failed extraction
    algo, inputs = make_algorithm(trace.header["algorithm"]), trace.header["inputs"]
    results = Verdict()
    try:
        results.extracted = extract_H(trace, ports)
    except (SymmetryViolation, ScenarioError) as exc:
        results.append(CheckResult("extraction", False, str(exc)))
    results.fairness = fair = fairness_audit(trace)
    for name in CHECK_NAMES:
        # identity test: JSON false or absent is no request, but a liveness
        # target of 0 is one, and 0 == False
        if checks.get(name, False) is False:
            continue
        if name in ("correctness", "strong-nontriviality") and results.extracted is None:
            failed = f"history extraction failed: {results[0].detail}"
            results.append(CheckResult(name, False, failed))
        elif name == "correctness":
            equal = check_correctness(trace, algo, inputs, extracted=results.extracted)
            sandwich = check_sandwich(trace)
            snapshots = check_pulled_consistency(trace, algo, inputs)
            failures = sandwich.failures + snapshots.failures
            summary = (
                f"{sandwich.checked} commits sandwiched; {snapshots.checked} snapshots consistent"
            )
            detail = f"{equal.describe()}; {failures[0] if failures else summary}"
            results.append(CheckResult(name, equal.ok and not failures, detail))
        elif name == "strong-nontriviality":
            strong = check_strong_nontriviality(trace, results.extracted)
            if strong.ok:
                detail = f"oracle agrees on {strong.phases} phases ({strong.pairs_checked} pair checks)"
            else:
                detail = f"missing {strong.missing[:3]} extra {strong.extra[:3]}"
            results.append(CheckResult(name, strong.ok, detail))
        elif name == "liveness":
            live = check_liveness(trace, checks["liveness"])
            results.append(CheckResult(name, live.ok, live.describe()))
        else:
            detail = (
                f"max activation gap {fair.max_gap} vs bound {fair.bound} "
                f"(worst node {fair.worst_node})"
            )
            results.append(CheckResult(name, fair.ok, detail))
    return results
