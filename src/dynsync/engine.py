"""Semi-synchronous execution engine.

Each stage: apply the stage's edge set and fold boundary disconnections into
the per-node detectors, pick the activation set, evaluate every activated
node's single enabled action against the stage-start snapshot, then land all
local state replacements followed by all remote block writes (both are
order-independent), and finally clear the detectors of the activated nodes.

The engine owns all ground truth (node identities behind ports, presence
intervals) and logs it into the trace for verifiers; node code only ever sees
port-indexed snapshots.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterator

from .algorithms import SyncAlgorithm
from .synchronizer import (
    ActionKind,
    NodeState,
    PulledView,
    apply_remote_block,
    enabled_action,
    execute_synch,
    handshake,
    serialize_sync_state,
)
from .tvg import ScenarioError, TimeVaryingGraph, disconnections_at

TRACE_SCHEMA = "trace/v1"


class InternalInvariantError(RuntimeError):
    """A protocol-level invariant the engine enforces failed mid-run."""


@dataclass(frozen=True)
class SchedulerPolicy:
    """Which nodes act each stage.

    kinds: "all-active", "sequential" (round-robin, one node per stage),
    "random-subset" (independent coin per node, plus force-activation of any
    node idle for fairness_bound stages), "scripted" (explicit sets).
    """

    kind: str
    seed: int = 0
    p_activate: float = 0.5
    fairness_bound: int = 1
    script: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("all-active", "sequential", "random-subset", "scripted"):
            raise ScenarioError(f"unknown scheduler kind {self.kind!r}")
        if not isinstance(self.seed, int):
            raise ScenarioError(f"scheduler seed must be an integer, got {self.seed!r}")
        if self.kind == "random-subset":
            p = self.p_activate
            if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
                raise ScenarioError(f"p_activate must be in [0,1], got {p!r}")
            bound = self.fairness_bound
            if not (isinstance(bound, int) and bound >= 1):
                raise ScenarioError(f"fairness_bound must be an integer >= 1, got {bound!r}")

    def implied_gap_bound(self, n: int, horizon: int) -> int:
        if self.kind == "all-active":
            return 1
        if self.kind == "sequential":
            return n
        if self.kind == "random-subset":
            return self.fairness_bound
        return horizon

    @classmethod
    def from_header(cls, header: dict) -> "SchedulerPolicy":
        """The policy a trace header records (a scripted policy without its
        script, which the header does not carry)."""
        sched = header["scheduler"]
        return cls(
            kind=sched["kind"],
            seed=sched["seed"],
            p_activate=sched["p_activate"],
            fairness_bound=sched["fairness_bound"],
        )

    def select(self, t: int, n: int, rng: random.Random, last_activated: list[int]) -> list[int]:
        if self.kind == "all-active":
            return list(range(n))
        if self.kind == "sequential":
            return [t % n]
        if self.kind == "scripted":
            if t >= len(self.script):
                raise ScenarioError(f"scheduler script ends at stage {len(self.script)}, need {t}")
            chosen = sorted(set(self.script[t]))
            if chosen and not (0 <= chosen[0] and chosen[-1] < n):
                raise ScenarioError(f"stage {t}: scripted activation out of range: {chosen}")
            return chosen
        # random-subset draws one coin per node per stage, in node order, so
        # the stream is stable no matter what it selects.
        chosen = {u for u in range(n) if rng.random() < self.p_activate}
        for u in range(n):
            if t - last_activated[u] >= self.fairness_bound:
                chosen.add(u)
        return sorted(chosen)


def pull_view(neighbor: NodeState, remote_port: int, neighbor_detector: set[int]) -> PulledView:
    """Snapshot what the node behind a port exposes at stage start."""
    return PulledView(
        phase=neighbor.phase,
        synch=neighbor.synch,
        remote_port=remote_port,
        ack=neighbor.ports[remote_port].ack,
        valid_ports=neighbor.valid_ports,
        phase_drops=neighbor.phase_drops,
        detector=frozenset(neighbor_detector),
        algo_state=neighbor.algo_state,
    )


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class TraceIndex:
    """Per-node view of a trace's events, built in one pass over them.

    The lists hold the event dicts themselves, so an in-place edit of an
    event shows through the index. ``exec_stages[u]`` lists the stages of
    node u's execute events in order, for bisecting phase boundaries.
    ``phase_starts[i]`` is the first stage at whose start every node has
    completed i phases, for i up to the minimum completed count.
    """

    stages: list[dict]
    actions: list[list[dict]]
    executes: list[list[dict]]
    inits: list[list[dict]]
    exec_stages: list[list[int]]
    phase_starts: list[int]

    @classmethod
    def build(cls, n: int, horizon: int, events: list[dict]) -> "TraceIndex":
        index = cls([], *([[] for _ in range(n)] for _ in range(4)), [0])
        last_t = 0
        for ev in events:
            t = ev["t"]
            # phase lookups bisect the per-node stage lists
            if t < last_t:
                raise ScenarioError(f"trace event at stage {t} follows stage {last_t}")
            if t >= horizon:
                raise ScenarioError(f"trace event at stage {t}, horizon is {horizon}")
            last_t = t
            if ev["kind"] == "stage":
                index.stages.append(ev)
            elif ev["kind"] == "action":
                u = ev["node"]
                if not 0 <= u < n:
                    raise ScenarioError(f"stage {t}: action of node {u}, trace has n={n}")
                index.actions[u].append(ev)
                if ev["action"] == "execute":
                    index.executes[u].append(ev)
                    index.exec_stages[u].append(t)
                elif ev["branch"] == "init":
                    index.inits[u].append(ev)
        completed = min(map(len, index.exec_stages), default=0)
        index.phase_starts += [
            max(stages[i] for stages in index.exec_stages) + 1 for i in range(completed)
        ]
        return index

    def phase_at(self, u: int, t: int) -> int:
        """The number of phases node u completed before stage t."""
        return bisect_left(self.exec_stages[u], t)


class RunTrace:
    """Replayable structured record of one run: a header followed by one
    event per stage / per activated node action, in execution order."""

    def __init__(self, header: dict):
        self.header = header
        self.events: list[dict] = []
        self.footer: dict = {}
        self._index: TraceIndex | None = None

    def add(self, event: dict) -> None:
        self.events.append(event)
        self._index = None

    # -- serialization ----------------------------------------------------

    def to_jsonl(self) -> bytes:
        lines = [_dumps({"kind": "header", **self.header})]
        lines += [_dumps(ev) for ev in self.events]
        if self.footer:
            lines.append(_dumps({"kind": "footer", **self.footer}))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_jsonl(cls, data: bytes) -> "RunTrace":
        lines = [json.loads(line) for line in data.decode("utf-8").splitlines() if line]
        if not lines or lines[0].get("kind") != "header":
            raise ScenarioError("trace does not start with a header line")
        header = {k: v for k, v in lines[0].items() if k != "kind"}
        trace = cls(header)
        for row in lines[1:]:
            if row.get("kind") == "footer":
                trace.footer = {k: v for k, v in row.items() if k != "kind"}
            else:
                trace.add(row)
        return trace

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.header["n"]

    @property
    def horizon(self) -> int:
        return self.header["horizon"]

    @property
    def index(self) -> TraceIndex:
        """The per-node index of the events, built on first use after the
        last ``add``."""
        if self._index is None:
            self._index = TraceIndex.build(self.n, self.horizon, self.events)
        return self._index

    def stage_events(self) -> list[dict]:
        return list(self.index.stages)

    def actions(self, node: int | None = None, action: str | None = None) -> Iterator[dict]:
        events = self.events if node is None else self.index.actions[node]
        for ev in events:
            if ev["kind"] != "action":
                continue
            if action is not None and ev["action"] != action:
                continue
            yield ev


def run(
    graph: TimeVaryingGraph,
    scheduler: SchedulerPolicy,
    algo: SyncAlgorithm,
    inputs: list[Any] | None = None,
    header_extra: dict | None = None,
) -> RunTrace:
    """Execute the synchronizer for every stage of the graph's lifetime and
    return the trace."""
    ports, horizon = graph.ports, graph.lifetime
    if scheduler.kind == "scripted" and len(scheduler.script) < horizon:
        raise ScenarioError(
            f"scheduler script covers {len(scheduler.script)} stages, horizon is {horizon}"
        )
    n, delta = graph.n, graph.delta
    if inputs is not None and len(inputs) != n:
        raise ScenarioError(f"got {len(inputs)} inputs for {n} nodes")

    header = {
        "schema": TRACE_SCHEMA,
        "n": n,
        "delta": delta,
        "horizon": horizon,
        "algorithm": algo.name,
        "inputs": inputs,
        # No run outlasts its graph, so no stage reuses a frozen edge set.
        # The key stays so that trace bytes and their pinned digests hold.
        "frozen_from": None,
        "scheduler": {
            "kind": scheduler.kind,
            "seed": scheduler.seed,
            "p_activate": scheduler.p_activate,
            "fairness_bound": scheduler.fairness_bound,
        },
    }
    if header_extra:
        header.update(header_extra)
    trace = RunTrace(header)

    states = [
        NodeState.fresh(delta, algo.init(u, None if inputs is None else inputs[u]))
        for u in range(n)
    ]
    detectors: list[set[int]] = [set() for _ in range(n)]
    last_activated = [-1] * n
    last_init_map: list[dict[int, int]] = [{} for _ in range(n)]
    rng = random.Random(scheduler.seed)
    guard_checks = 0

    for t in range(horizon):
        edges = graph.edges_at(t)
        newly_dropped = disconnections_at(graph, t)
        for u in range(n):
            detectors[u] |= newly_dropped[u]

        activated = scheduler.select(t, n, rng, last_activated)
        trace.add(
            {
                "kind": "stage",
                "t": t,
                "edges": sorted([u, v] for u, v in edges),
                "activated": activated,
                "disconnects": [
                    [u, sorted(newly_dropped[u])] for u in range(n) if newly_dropped[u]
                ],
            }
        )

        # Guard complementarity is a model property, so it is checked for
        # every node every stage, not just the activated ones.
        kinds: list[ActionKind] = []
        for u in range(n):
            kinds.append(enabled_action(states[u]))
            guard_checks += 1

        replacements: dict[int, NodeState] = {}
        writes: list[tuple[int, int]] = []  # (source node, source port)
        for u in activated:
            if kinds[u] is ActionKind.HANDSHAKE:
                reads = {
                    port: pull_view(states[v], ports.port_of(t, v, u), detectors[v])
                    for port, v in sorted(ports.occupied(t, u).items())
                }
                new_state, write_ports, log = handshake(
                    states[u], reads, frozenset(detectors[u])
                )
                writes += [(u, p) for p in write_ports]
                event = {
                    "kind": "action",
                    "t": t,
                    "node": u,
                    "action": "handshake",
                    "phase": states[u].phase,
                    **log,
                }
                if log["branch"] == "init":
                    port_map = dict(sorted(ports.occupied(t, u).items()))
                    last_init_map[u] = port_map
                    event["port_map"] = [[p, v] for p, v in port_map.items()]
                    event["valid"] = sorted(new_state.valid_ports)
                    event["invalid"] = sorted(new_state.invalid_ports)
            else:
                new_state, log = execute_synch(states[u], algo)
                phase_bytes, body = serialize_sync_state(new_state)
                event = {
                    "kind": "action",
                    "t": t,
                    "node": u,
                    "action": "execute",
                    "phase": states[u].phase,
                    "committed_map": [
                        [p, last_init_map[u][p]] for p in log["committed"]
                    ],
                    "state": algo.serialize(new_state.algo_state).hex(),
                    "pulled": [
                        [p, algo.serialize(states[u].pulled[p].algo_state).hex()]
                        for p in log["committed"]
                    ],
                    "mem_phase": phase_bytes.hex(),
                    "mem_body": body.hex(),
                    **log,
                }
            replacements[u] = new_state
            trace.add(event)

        for u, new_state in replacements.items():
            states[u] = new_state
        for u, port in writes:
            try:
                v = ports.node_behind(t, u, port)
                remote_port = ports.port_of(t, v, u)
            except KeyError as exc:
                raise InternalInvariantError(
                    f"stage {t}: node {u} block-writes through dead port {port}"
                ) from exc
            apply_remote_block(states[v], remote_port)
        for u in activated:
            detectors[u].clear()
            last_activated[u] = t

    trace.footer = {
        "stages": horizon,
        "guard_checks": guard_checks,
        "final_phases": [states[u].phase for u in range(n)],
    }
    return trace


@dataclass
class FairnessReport:
    max_gap: int
    bound: int
    worst_node: int
    ok: bool


def fairness_audit(trace: RunTrace) -> FairnessReport:
    """Max activation gap per node, counted from a virtual activation at
    stage -1, compared against the bound the trace header's scheduler
    promises."""
    bound = SchedulerPolicy.from_header(trace.header).implied_gap_bound(trace.n, trace.horizon)
    max_gap, worst = 0, 0
    last = [-1] * trace.n
    for ev in trace.index.stages:
        for u in ev["activated"]:
            gap = ev["t"] - last[u]
            if gap > max_gap:
                max_gap, worst = gap, u
            last[u] = ev["t"]
    return FairnessReport(max_gap=max_gap, bound=bound, worst_node=worst, ok=max_gap <= bound)
