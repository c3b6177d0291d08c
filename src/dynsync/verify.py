"""Verifiers for synchronizer runs.

Everything here works from the trace's ground-truth logs (presence, port
maps, activation sets, per-phase commits) through independent code paths;
nothing re-reads live synchronizer state. ``check_strong_nontriviality`` is
the oracle: it re-derives, from timelines alone, exactly which edges each
phase must have committed, and confronts the extracted history with it.
"""
from __future__ import annotations

import json
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Sequence

from .algorithms import SyncAlgorithm, make_algorithm, reference_run
from .engine import RunTrace, SchedulerPolicy, run
from .tvg import (
    Edge,
    PortAssignment,
    ScenarioError,
    TimeVaryingGraph,
    disconnections_at,
    edge,
    normalize_edges,
)


class SymmetryViolation(RuntimeError):
    """One endpoint committed an edge for a phase, the other did not."""


@dataclass
class ExtractedSynch:
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
    embedded ground-truth port maps are cross-checked against it."""
    n, delta = trace.n, trace.header["delta"]
    per_node, inits = trace.index.executes, trace.index.inits
    completed = [len(evs) for evs in per_node]
    committed: dict[tuple[int, int], dict[int, int]] = {}
    for u in range(n):
        for i, ev in enumerate(per_node[u]):
            if ev["phase"] != i:
                raise ScenarioError(f"node {u}: phase counter skew at event {i}")
            # the strong oracle reads phase i's init handshake by position
            if i >= len(inits[u]) or inits[u][i]["phase"] != i:
                raise ScenarioError(f"node {u}: no init handshake for completed phase {i}")
            committed[(u, i)] = {v: p for p, v in ev["committed_map"]}
    for (u, i), neighbors in sorted(committed.items()):
        for v in neighbors:
            if i < completed[v] and u not in committed[(v, i)]:
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
        edges = {edge(u, v) for u in range(n) for v in committed[(u, i)]}
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        if any(d > delta for d in degree):
            raise ScenarioError(f"phase {i}: committed graph exceeds degree bound {delta}")
        steps.append(frozenset(edges))
    return ExtractedSynch(steps=steps, completed=completed)


@dataclass
class EquivalenceReport:
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
    if extracted is None:
        extracted = extract_H(trace)
    m = extracted.compared_phases
    reference = reference_run(algo, extracted.steps, trace.n, inputs)
    for u in range(trace.n):
        events = trace.index.executes[u]
        for i in range(m):
            got = events[i]["state"]
            want = algo.serialize(reference.state(u, i)).hex()
            if got != want:
                return EquivalenceReport(ok=False, compared_phases=m, divergence=(u, i, got, want))
    return EquivalenceReport(ok=True, compared_phases=m)


@dataclass
class InvariantReport:
    ok: bool
    checked: int
    failures: list[str] = field(default_factory=list)


def check_sandwich(trace: RunTrace) -> InvariantReport:
    """At every phase commit: the ports still waited on are all committed,
    and nothing outside the phase's wait-set origin is."""
    checked, failures = 0, []
    for u in range(trace.n):
        for ev in trace.index.executes[u]:
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
    boundary: dict[tuple[int, int], str] = {}
    for v in range(trace.n):
        init = algo.init(v, None if inputs is None else inputs[v])
        boundary[(v, -1)] = algo.serialize(init).hex()
        for i, ev in enumerate(trace.index.executes[v]):
            boundary[(v, i)] = ev["state"]
    for u in range(trace.n):
        for ev in trace.index.executes[u]:
            resolved = {p: v for p, v in ev["committed_map"]}
            for p, snapshot in ev["pulled"]:
                checked += 1
                partner = resolved[p]
                want = boundary.get((partner, ev["phase"] - 1))
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


@dataclass
class StrongReport:
    ok: bool
    phases: int
    pairs_checked: int  # every node pair per phase, absent pairs included
    missing: list[tuple[int, int, int]] = field(default_factory=list)  # u, v, phase
    extra: list[tuple[int, int, int]] = field(default_factory=list)


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
    n = trace.n
    index = trace.index
    presence = [frozenset((u, v) for u, v in ev["edges"]) for ev in index.stages]
    exec_stage = index.exec_stages
    init_stage = [[ev["t"] for ev in inits] for inits in index.inits]
    acts: list[list[int]] = [[] for _ in range(n)]
    for ev in index.stages:
        for u in ev["activated"]:
            acts[u].append(ev["t"])
    adjacency: dict[int, list[list[int]]] = {}

    def neighbors(t: int) -> list[list[int]]:
        if t not in adjacency:
            adjacent: list[list[int]] = [[] for _ in range(n)]
            for a, b in index.stages[t]["edges"]:
                adjacent[a].append(b)
                adjacent[b].append(a)
            adjacency[t] = adjacent
        return adjacency[t]

    def first_act(a: int, start: int, stop: int) -> int | None:
        k = bisect_left(acts[a], start)
        return acts[a][k] if k < len(acts[a]) and acts[a][k] < stop else None

    def must_commit(u: int, v: int, i: int) -> bool:
        e = edge(u, v)
        t_u, t_v = init_stage[u][i], init_stage[v][i]
        e_u, e_v = exec_stage[u][i], exec_stage[v][i]
        if e not in presence[t_u] or e not in presence[t_v]:
            return False
        if index.phase_at(v, t_u) > i or index.phase_at(u, t_v) > i:
            return False
        lo = min(t_u, t_v)

        def first_contact(a: int, other: int, start: int, stop: int) -> int | None:
            # other is in phase i from the stage after its phase i-1 execute
            # through the stage of its phase i execute
            if i > 0:
                start = max(start, exec_stage[other][i - 1] + 1)
            return first_act(a, start, min(stop, exec_stage[other][i] + 1))

        ca_u = first_contact(u, v, t_u, e_u)
        ca_v = first_contact(v, u, t_v, e_v)
        if ca_u is None or ca_v is None:
            return False
        if ca_u != ca_v:
            completion = max(ca_u, ca_v)
        else:
            stop = max(e_u, e_v)
            later = [s for s in (first_act(u, ca_u + 1, stop), first_act(v, ca_u + 1, stop))
                     if s is not None]
            if not later:
                return False
            completion = min(later)
        return all(e in presence[s] for s in range(lo, completion + 1))

    missing, extra = [], []
    for i in range(extracted.compared_phases):
        want = set()
        for u in range(n):
            for v in neighbors(init_stage[u][i])[u]:
                if u < v and must_commit(u, v, i):
                    want.add((u, v))
        got = set(extracted.steps[i])
        missing += [(u, v, i) for u, v in sorted(want - got)]
        extra += [(u, v, i) for u, v in sorted(got - want)]
    return StrongReport(
        ok=not missing and not extra,
        phases=extracted.compared_phases,
        pairs_checked=extracted.compared_phases * (n * (n - 1) // 2),
        missing=missing,
        extra=extra,
    )


@dataclass
class LivenessReport:
    ok: bool
    target: int
    reached: int
    first_stage: list[int]  # first stage whose start has min phase >= index
    max_stall: int
    stall_window: int
    stall_ok: bool  # heuristic, not a formal bound

    def describe(self) -> str:
        return (
            f"min phase reached {self.reached} (target {self.target}); "
            f"max stall {self.max_stall} vs heuristic window {self.stall_window}"
        )


def check_liveness(trace: RunTrace, target: int) -> LivenessReport:
    """The minimum phase across nodes must reach the target before the
    horizon. The stall window is a harness heuristic for spotting schedulers
    that starve progress, not a proven bound."""
    starts = trace.index.phase_starts
    reached = len(starts) - 1
    first_stage = starts[: min(target, reached) + 1]
    bound = SchedulerPolicy.from_header(trace.header).implied_gap_bound(trace.n, trace.horizon)
    window = bound * (trace.header["delta"] + 2) * trace.n * 4
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


# -- impossibility demonstration ---------------------------------------------


@dataclass(frozen=True)
class Observation:
    """What one activation of a classic pull node sees: the stage-start bytes
    exposed behind each occupied port, plus the ports flagged dropped since
    its last activation."""

    ports: tuple[tuple[int, str], ...]
    dropped: tuple[int, ...]

    def to_bytes(self) -> bytes:
        return json.dumps(
            {"ports": [list(p) for p in self.ports], "dropped": list(self.dropped)},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("ascii")


class ClassicPullProtocol(ABC):
    """Deterministic read-only protocol: nodes may pull neighbor bytes but
    have no register they can write remotely."""

    name: str = "abstract"

    @abstractmethod
    def init(self, node: int) -> Any: ...

    @abstractmethod
    def exposed(self, state: Any) -> bytes: ...

    @abstractmethod
    def on_activate(self, state: Any, obs: Observation) -> tuple[Any, int | None]:
        """Return (new state, decision) with decision None until the node
        irrevocably commits 0 or 1."""


class CommitOnPropose(ClassicPullProtocol):
    """Node 0 proposes and commits the moment it sees the edge; node 1
    commits when it pulls a proposal."""

    name = "commit-on-propose"

    def init(self, node: int) -> dict:
        return {"node": node, "proposed": False}

    def exposed(self, state: dict) -> bytes:
        return b"proposal" if state["proposed"] else b"idle"

    def on_activate(self, state: dict, obs: Observation) -> tuple[dict, int | None]:
        state = dict(state)
        if state["node"] == 0 and obs.ports and not state["proposed"]:
            state["proposed"] = True
            return state, 1
        if state["node"] == 1 and any(bytes.fromhex(h) == b"proposal" for _, h in obs.ports):
            return state, 1
        return state, None


class NeverPropose(ClassicPullProtocol):
    """Declines every edge; trivially safe, trivially useless."""

    name = "never-propose"

    def init(self, node: int) -> dict:
        return {}

    def exposed(self, state: dict) -> bytes:
        return b"idle"

    def on_activate(self, state: dict, obs: Observation) -> tuple[dict, int | None]:
        return state, 0


CLASSIC_PROTOCOLS: dict[str, type[ClassicPullProtocol]] = {
    CommitOnPropose.name: CommitOnPropose,
    NeverPropose.name: NeverPropose,
}

HANDSHAKE_DEMO = "ack-block-handshake"
DEMO_HORIZON = 20


def _demo_graph() -> TimeVaryingGraph:
    present = frozenset({(0, 1)})
    stages = (present, present) + (frozenset(),) * (DEMO_HORIZON - 2)
    return TimeVaryingGraph(2, 1, stages)


def _demo_scripts() -> dict[str, tuple[tuple[int, ...], ...]]:
    tail = ((0, 1),) * (DEMO_HORIZON - 2)
    return {"A": ((0,), (1,)) + tail, "B": ((0,), ()) + tail}


def _run_classic(protocol: ClassicPullProtocol, script: tuple[tuple[int, ...], ...]) -> dict:
    graph = _demo_graph()
    states = [protocol.init(u) for u in range(2)]
    detectors: list[set[int]] = [set(), set()]
    streams: dict[int, list[str]] = {0: [], 1: []}
    decisions: dict[int, tuple[int, int] | None] = {0: None, 1: None}
    for t in range(DEMO_HORIZON):
        for u in range(2):
            detectors[u] |= disconnections_at(graph, t)[u]
        exposed = [protocol.exposed(states[u]) for u in range(2)]
        new_states = list(states)
        for u in script[t]:
            obs = Observation(
                ports=tuple(
                    (p, exposed[v].hex()) for p, v in sorted(graph.ports.occupied(t, u).items())
                ),
                dropped=tuple(sorted(detectors[u])),
            )
            streams[u].append(obs.to_bytes().hex())
            new_states[u], decision = protocol.on_activate(states[u], obs)
            if decision is not None and decisions[u] is None:
                decisions[u] = (decision, t)
            detectors[u].clear()
        states = new_states
    final = []
    for u in range(2):
        final.append({"decision": None if decisions[u] is None else decisions[u][0],
                      "stage": None if decisions[u] is None else decisions[u][1]})
    return {"streams": streams, "nodes": final}


def _classify(record_a: dict, record_b: dict) -> str:
    a = [row["decision"] for row in record_a["nodes"]]
    b = [row["decision"] for row in record_b["nodes"]]
    commit = lambda d: d == 1
    if commit(a[0]) or commit(a[1]):
        if commit(a[0]) != commit(a[1]):
            return "agreement violated in A: one endpoint committed alone"
        if commit(b[0]) != commit(b[1]):
            return "agreement violated in B: one endpoint committed alone"
        return "edge committed consistently in both executions"
    return "never commits any edge: evades disagreement by being trivial"


def impossibility_demo(name: str) -> dict:
    """Run the paired executions for a registered classic pull protocol: they
    differ only in whether node 1 acts before the edge dies, yet node 0's
    observation streams are byte-identical, so its decisions cannot differ."""
    if name not in CLASSIC_PROTOCOLS:
        raise ScenarioError(f"unknown protocol {name!r}")
    protocol = CLASSIC_PROTOCOLS[name]()
    scripts = _demo_scripts()
    record = {key: _run_classic(protocol, script) for key, script in scripts.items()}
    streams_equal = record["A"]["streams"][0] == record["B"]["streams"][0]
    decisions_equal = (
        record["A"]["nodes"][0]["decision"] == record["B"]["nodes"][0]["decision"]
    )
    return {
        "protocol": name,
        "model": "classic-pull",
        "horizon": DEMO_HORIZON,
        "executions": record,
        "observer_streams_identical": streams_equal,
        "observer_decisions_identical": decisions_equal,
        "verdict": _classify(record["A"], record["B"]),
    }


def extended_model_demo() -> dict:
    """Run the synchronizer's handshake on the same paired dynamics under the
    extended model (one remotely writable block bit per port): each execution
    ends with both endpoints agreeing on the edge, in or out, so the dilemma
    the classic model forces does not arise."""
    algo = make_algorithm("counter")
    graph = _demo_graph()
    outcome = {}
    for key, script in _demo_scripts().items():
        scheduler = SchedulerPolicy(kind="scripted", script=script)
        trace = run(graph, scheduler, algo)
        extracted = extract_H(trace, graph.ports)
        committed = [sorted(map(list, step)) for step in extracted.steps]
        outcome[key] = {
            "committed_per_phase": committed,
            "first_phase_edge": [0, 1] in committed[0] if committed else None,
        }
    consistent = all(v["first_phase_edge"] is not None for v in outcome.values())
    return {
        "protocol": HANDSHAKE_DEMO,
        "model": "extended-pull",
        "horizon": DEMO_HORIZON,
        "executions": outcome,
        "agreement_consistent": consistent,
        "verdict": (
            "edge committed by both endpoints where the handshake completed (A), "
            "excluded by both where it did not (B); no execution disagrees"
        ),
    }
