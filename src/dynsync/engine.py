"""Semi-synchronous execution engine.

``SchedulerPolicy`` computes the schedule, every stage's activation set,
before the first stage. ``stage`` runs one stage on a ``Configuration``: fold
the stage's disconnections into the per-node detectors, evaluate every
node's single enabled action, run each activated node's against the
stage-start snapshot (a ``PortReads`` serves a handshake only what it asks
for: ``pull_view`` builds a neighbor's view and ``pull_ack`` reads its ack
bit alone), then land all local state replacements followed by all remote
block writes (both are order-independent), and finally clear the detectors
of the activated nodes.
``run`` folds ``stage`` over a graph's stages, with each stage's ports from
``tvg.port_step`` as ``graph.ports`` recorded them, and frames the events with
a header and a footer.

The engine owns all ground truth (node identities behind ports, presence
intervals) and logs it into a ``RunTrace`` (``dynsync.trace``) for the
checkers; node code only ever sees port-indexed snapshots. The trace format
and the checkers import nothing from here.
"""
from __future__ import annotations

import random
from typing import Any

from .algorithms import SyncAlgorithm
from .synchronizer import (
    MAX_DELTA,
    ActionKind,
    NodeState,
    PulledView,
    apply_remote_block,
    enabled_action,
    execute_synch,
    handshake,
    ports_of,
    serialize_sync_state,
)
from .trace import TRACE_SCHEMA, RunTrace, validate_scheduler
from .tvg import Edge, ScenarioError, TimeVaryingGraph

# perfbench/run.py::check_once and perfbench/spans.py's TIMED_FUNCTIONS read
# the audit under this module's name; the tracer patches every name bound to it
from .trace import fairness_audit

_NO_DROPS = 0


class InternalInvariantError(RuntimeError):
    """A protocol-level invariant the engine enforces failed mid-run."""


class SchedulerPolicy:
    """Which nodes act each stage.

    kinds: "all-active", "sequential" (round-robin, one node per stage),
    "random-subset" (independent coin per node, plus force-activation of any
    node idle for fairness_bound stages), "scripted" (explicit sets). The
    settings must pass ``validate_scheduler``, as a trace header's must.
    """

    def __init__(
        self,
        kind: str,
        seed: int = 0,
        p_activate: float = 0.5,
        fairness_bound: int = 1,
        script: tuple[tuple[int, ...], ...] = (),
    ) -> None:
        self.kind = kind
        self.seed = seed
        self.p_activate = p_activate
        self.fairness_bound = fairness_bound
        self.script = script
        validate_scheduler(kind, seed, p_activate, fairness_bound)

    def schedule(self, n: int, horizon: int) -> list[list[int]]:
        """Each of the horizon stages' activation set, as a sorted list."""
        if self.kind == "all-active":
            return [list(range(n)) for _ in range(horizon)]
        if self.kind == "sequential":
            return [[t % n] for t in range(horizon)]
        if self.kind == "scripted":
            if len(self.script) < horizon:
                raise ScenarioError(
                    f"scheduler script covers {len(self.script)} stages, horizon is {horizon}"
                )
            stages = [sorted(set(chosen)) for chosen in self.script[:horizon]]
            for t, chosen in enumerate(stages):
                if chosen and not (0 <= chosen[0] and chosen[-1] < n):
                    raise ScenarioError(f"stage {t}: scripted activation out of range: {chosen}")
            return stages
        # random-subset draws one coin per node per stage, in node order, so
        # the stream is stable no matter what it selects, and forces in any
        # node idle for fairness_bound stages.
        rng = random.Random(self.seed)
        last = [-1] * n
        stages = []
        for t in range(horizon):
            chosen = [
                u
                for u in range(n)
                if rng.random() < self.p_activate or t - last[u] >= self.fairness_bound
            ]
            for u in chosen:
                last[u] = t
            stages.append(chosen)
        return stages


def pull_ack(neighbor: NodeState, remote_port: int) -> int:
    """The ack bit the node behind a port raised toward it, at stage start."""
    return neighbor.acked >> remote_port & 1


def pull_view(neighbor: NodeState, remote_port: int, neighbor_detector: int) -> PulledView:
    """Snapshot what the node behind a port exposes at stage start."""
    # positional, in field order: keywords double the cost of the build
    return PulledView(
        neighbor.phase,
        neighbor.synch,
        remote_port,
        pull_ack(neighbor, remote_port),
        neighbor.valid_ports,
        neighbor.phase_drops,
        neighbor_detector,
        neighbor.algo_state,
    )


class PortReads:
    """The reads ``handshake`` makes through node ``node``'s occupied ports,
    served from one stage's start: ``maps`` and ``inverse`` are the stage's
    port maps, and ``states`` and ``detectors`` are read before any of the
    stage's writes land. Nothing is built until the handshake asks for it.
    ``stage`` makes one per stage and points it at each handshaking node in
    turn."""

    __slots__ = ("states", "detectors", "maps", "inverse", "node")

    def __init__(self, states, detectors, maps, inverse) -> None:
        self.states, self.detectors, self.maps, self.inverse = states, detectors, maps, inverse
        self.node = -1

    def views(self) -> dict[int, PulledView]:
        u, states, detectors, inverse = self.node, self.states, self.detectors, self.inverse
        return {
            port: pull_view(states[v], inverse[v][u], detectors[v])
            for port, v in self.maps[u].items()
        }

    def view(self, port: int) -> PulledView | None:
        v = self.maps[self.node].get(port)
        if v is None:
            return None
        return pull_view(self.states[v], self.inverse[v][self.node], self.detectors[v])

    def ack(self, port: int) -> int | None:
        v = self.maps[self.node].get(port)
        return None if v is None else pull_ack(self.states[v], self.inverse[v][self.node])


class Configuration:
    """What a run carries from one stage to the next: per node, the
    synchronizer state, the accumulated disconnection detector (a word with
    bit p set when port p lost its edge since the node last acted), and the
    port map (port -> neighbor) of its last init handshake, which its next
    execute's ``committed_map`` reads. That map is the read-only map object
    ``stage`` was given for the node.

    ``stage`` updates the three lists in place. It replaces detectors and
    maps, never mutates them, but lands remote block writes on the states
    themselves, so a snapshot that later stages leave alone is
    ``Configuration([s.clone() for s in c.states], list(c.detectors),
    list(c.last_init_map))``.
    """

    # a plain class: building a NamedTuple class would add about 0.1 ms to
    # the start of every command
    __slots__ = ("states", "detectors", "last_init_map")
    states: list[NodeState]
    # A detector is an int, so it is also the stage-start snapshot every pull
    # and the node's own handshake read; an empty one is _NO_DROPS.
    detectors: list[int]
    last_init_map: list[dict[int, int]]

    def __init__(self, states, detectors, last_init_map) -> None:
        self.states, self.detectors, self.last_init_map = states, detectors, last_init_map

    @classmethod
    def initial(
        cls, n: int, delta: int, algo: SyncAlgorithm, inputs: list[Any] | None = None
    ) -> "Configuration":
        """Every node at phase 0 with the algorithm's initial state, no
        disconnections and no init handshake yet."""
        states = [
            NodeState(delta, algo_state=algo.init(u, None if inputs is None else inputs[u]))
            for u in range(n)
        ]
        return cls(states, [_NO_DROPS] * n, [{} for _ in range(n)])


def stage(
    config: Configuration,
    t: int,
    edges: frozenset[Edge],
    maps: list[dict[int, int]],
    inverse: list[dict[int, int]],
    dropped: dict[int, tuple[int, ...]],
    activated: list[int],
    algo: SyncAlgorithm,
) -> list[dict]:
    """Run stage t on ``config``, in place, and return the stage's events:
    the stage event, then one action event per activated node.

    ``edges`` is the stage's edge set and ``maps``, ``inverse`` and
    ``dropped`` are what ``tvg.port_step`` returns for it; ``activated`` is
    the sorted list of nodes that act."""
    states, detectors, last_init_map = config.states, config.detectors, config.last_init_map
    for u, ports in dropped.items():
        for port in ports:
            detectors[u] |= 1 << port
    events: list[dict] = [
        {
            "kind": "stage",
            "t": t,
            "edges": [list(e) for e in sorted(edges)],
            "activated": activated,
            "disconnects": [[u, list(ports)] for u, ports in dropped.items()],
        }
    ]

    # Guard complementarity is a model property, so it is checked for
    # every node every stage, not just the activated ones.
    kinds = [enabled_action(state) for state in states]

    replacements: dict[int, NodeState] = {}
    writes: list[tuple[int, int]] = []  # (target node, target port)
    reads = PortReads(states, detectors, maps, inverse)
    for u in activated:
        if kinds[u] is ActionKind.HANDSHAKE:
            occupied = maps[u]  # port -> neighbor
            reads.node = u
            new_state, write_ports, log = handshake(states[u], reads, detectors[u])
            for port in write_ports:
                v = occupied.get(port)
                if v is None:
                    raise InternalInvariantError(
                        f"stage {t}: node {u} block-writes through dead port {port}"
                    )
                writes.append((v, inverse[v][u]))
            event = {
                "kind": "action",
                "t": t,
                "node": u,
                "action": "handshake",
                "phase": states[u].phase,
                **log,
            }
            if log["branch"] == "init":
                last_init_map[u] = occupied
                event["port_map"] = [[p, v] for p, v in sorted(occupied.items())]
                event["valid"] = ports_of(new_state.valid_ports)
                event["invalid"] = ports_of(new_state.invalid_ports)
        else:
            new_state, log = execute_synch(states[u], algo)
            phase_bytes, body = serialize_sync_state(new_state)
            event = {
                "kind": "action",
                "t": t,
                "node": u,
                "action": "execute",
                "phase": states[u].phase,
                "committed_map": [[p, last_init_map[u][p]] for p in log["committed"]],
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
        events.append(event)

    for u, new_state in replacements.items():
        states[u] = new_state
    for v, port in writes:
        apply_remote_block(states[v], port)
    for u in activated:
        detectors[u] = _NO_DROPS
    return events


def run(
    graph: TimeVaryingGraph,
    scheduler: SchedulerPolicy,
    algo: SyncAlgorithm,
    inputs: list[Any] | None = None,
    header_extra: dict | None = None,
) -> RunTrace:
    """Execute the synchronizer for every stage of the graph's lifetime and
    return the trace."""
    horizon, n, delta = graph.lifetime, graph.n, graph.delta
    schedule = scheduler.schedule(n, horizon)
    if inputs is not None and len(inputs) != n:
        raise ScenarioError(f"got {len(inputs)} inputs for {n} nodes")
    if delta > MAX_DELTA:
        raise ScenarioError(
            f"delta {delta} is over the limit of {MAX_DELTA}: "
            "the memory footprint stores delta and each port in one byte"
        )

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

    config = Configuration.initial(n, delta, algo, inputs)
    ports = graph.ports
    events: list[dict] = []
    stages = zip(graph.stages, ports.by_stage, ports.inverse, ports.dropped, schedule)
    for t, (edges, maps, inverse, dropped, activated) in enumerate(stages):
        events += stage(config, t, edges, maps, inverse, dropped, activated, algo)

    footer = {
        "stages": horizon,
        # stage evaluates every node's guards once per stage
        "guard_checks": n * horizon,
        "final_phases": [state.phase for state in config.states],
    }
    return RunTrace(header, events, footer)
