"""Semi-synchronous execution engine.

The schedule, every stage's activation set, is computed before the first
stage. Each stage: apply the stage's edge set and fold boundary disconnections
into the per-node detectors, evaluate every activated node's single enabled
action against the stage-start snapshot, then land all local state
replacements followed by all remote block writes (both are
order-independent), and finally clear the detectors of the activated nodes.

The engine owns all ground truth (node identities behind ports, presence
intervals) and logs it into the trace for verifiers; node code only ever sees
port-indexed snapshots.
"""
from __future__ import annotations

import functools
import json
import random
from bisect import bisect_left
from typing import Any, Iterator, NamedTuple

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

_NO_DROPS: frozenset[int] = frozenset()


class InternalInvariantError(RuntimeError):
    """A protocol-level invariant the engine enforces failed mid-run."""


class SchedulerPolicy:
    """Which nodes act each stage.

    kinds: "all-active", "sequential" (round-robin, one node per stage),
    "random-subset" (independent coin per node, plus force-activation of any
    node idle for fairness_bound stages), "scripted" (explicit sets).
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
        if self.kind not in ("all-active", "sequential", "random-subset", "scripted"):
            raise ScenarioError(f"unknown scheduler kind {self.kind!r}")
        if type(self.seed) is not int:
            raise ScenarioError(f"scheduler seed must be an integer, got {self.seed!r}")
        if self.kind == "random-subset":
            p = self.p_activate
            if not (type(p) in (int, float) and 0.0 <= p <= 1.0):
                raise ScenarioError(f"p_activate must be in [0,1], got {p!r}")
            bound = self.fairness_bound
            if not (type(bound) is int and bound >= 1):
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
        """The policy a trace header records, whose keys ``RunTrace.index``
        checks (a scripted policy without its script, which the header does not carry)."""
        sched = header["scheduler"]
        return cls(
            kind=sched["kind"],
            seed=sched["seed"],
            p_activate=sched["p_activate"],
            fairness_bound=sched["fairness_bound"],
        )

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


def pull_view(
    neighbor: NodeState, remote_port: int, neighbor_detector: frozenset[int]
) -> PulledView:
    """Snapshot what the node behind a port exposes at stage start."""
    # positional, in field order: keywords double the cost of the build
    return PulledView(
        neighbor.phase,
        neighbor.synch,
        remote_port,
        1 if remote_port in neighbor.acked else 0,
        neighbor.valid_ports,
        neighbor.phase_drops,
        neighbor_detector,
        neighbor.algo_state,
    )


# The C encoder that json.dumps(obj, sort_keys=True, separators=(",", ":"))
# builds on every call, built once. It keeps no circular-reference markers: a
# trace is a tree of fresh dicts and lists, and a cycle still ends in
# RecursionError.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True,
)


def _dumps(obj: Any) -> str:
    return "".join(_encode(obj, 0))


# the C scanner json.loads runs; it parses one JSON value from an offset
_scan = json.JSONDecoder().scan_once


def _not_an_int(i: int, key: str, value: Any) -> ScenarioError:
    # the test stays inline: a call per event would slow the index build
    return ScenarioError(f"trace event {i}: {key!r} must be an integer, got {value!r}")


class TraceIndex:
    """Per-node view of a trace's events, built in one pass over them. It
    checks, once, each field that several checkers read; a field that one
    checker reads is checked where it is read. The stage events must be
    0..horizon-1 in order, each ``activated`` list strictly increasing nodes
    in 0..n-1, and each stage's actions exactly its activated nodes, in order.
    Each event's ``t``, each action's ``node`` and each execute's and init
    handshake's ``phase`` must be integers. Node u's k-th execute must be in
    phase k, after its k-th init handshake, in phase k too, its ``state`` a
    string and its ``committed_map`` a list whose every neighbor is a node.

    The lists hold the event dicts themselves, so an in-place edit of an
    event shows through the index, but an edit after the build is not
    checked. ``acts[u]`` and ``exec_stages[u]`` list the stages node u acts
    and executes in. ``phase_starts[i]`` is the first stage at whose start
    every node has completed i phases, for i up to the minimum completed count.
    """

    def __init__(self, n: int) -> None:
        self.stages: list[dict] = []
        self.acts: list[list[int]] = [[] for _ in range(n)]
        self.executes: list[list[dict]] = [[] for _ in range(n)]
        self.inits: list[list[dict]] = [[] for _ in range(n)]
        self.exec_stages: list[list[int]] = [[] for _ in range(n)]
        self.phase_starts: list[int] = [0]

    @classmethod
    def build(cls, n: int, horizon: int, events: list[dict]) -> "TraceIndex":
        index = cls(n)
        last_t = 0
        pending: Iterator[int] = iter(())  # the current stage's nodes yet to act
        try:
            for i, ev in enumerate(events):
                t = ev["t"]
                if type(t) is not int:
                    raise _not_an_int(i, "t", t)
                # phase lookups bisect the per-node stage lists
                if t < last_t:
                    raise ScenarioError(f"trace event at stage {t} follows stage {last_t}")
                if t >= horizon:
                    raise ScenarioError(f"trace event at stage {t}, horizon is {horizon}")
                last_t = t
                kind = ev["kind"]
                if kind == "stage":
                    if t != len(index.stages):
                        due = len(index.stages)
                        raise ScenarioError(f"stage event {t} where stage {due} is due")
                    for u in pending:
                        raise ScenarioError(f"stage {t - 1}: activated node {u} did not act")
                    # the strong oracle alone reads the edges, and checks them
                    if type(ev["edges"]) is not list or type(ev["activated"]) is not list:
                        raise ScenarioError(f"stage {t}: 'edges' and 'activated' must be lists")
                    low = 0  # each activated node is above the one before
                    for u in ev["activated"]:
                        if type(u) is not int or not low <= u < n:
                            raise ScenarioError(
                                f"stage {t}: activated node {u!r} is not in {low}..{n - 1}"
                            )
                        index.acts[u].append(t)
                        low = u + 1
                    pending = iter(ev["activated"])
                    index.stages.append(ev)
                    continue
                if kind != "action":
                    raise ScenarioError(f"trace event {i}: unknown kind {kind!r}")
                u = ev["node"]
                if type(u) is not int:
                    raise _not_an_int(i, "node", u)
                if t >= len(index.stages):
                    raise ScenarioError(f"stage {t}: action of node {u} before the stage event")
                # the activated nodes are in 0..n-1, and so, then, is u
                if next(pending, None) != u:
                    raise ScenarioError(f"stage {t}: node {u} acts out of activation order")
                action = ev["action"]
                if action == "execute":
                    k = len(index.executes[u])
                    phase = ev["phase"]
                    if type(phase) is not int:
                        raise _not_an_int(i, "phase", phase)
                    if phase != k:
                        raise ScenarioError(f"node {u}: phase counter skew at event {k}")
                    # the strong oracle reads phase k's init handshake by position
                    if k >= len(index.inits[u]) or index.inits[u][k]["phase"] != k:
                        raise ScenarioError(f"node {u}: no init handshake for completed phase {k}")
                    if type(ev["state"]) is not str:
                        raise ScenarioError(f"node {u} phase {k}: state is not a string")
                    if type(ev["committed_map"]) is not list:
                        raise ScenarioError(f"node {u} phase {k}: committed_map is not a list")
                    for entry in ev["committed_map"]:
                        if type(entry) is not list or len(entry) != 2 or type(entry[0]) is not int:
                            raise ScenarioError(
                                f"node {u} phase {k}: committed_map entry {entry!r} is not a pair"
                            )
                        if type(entry[1]) is not int or not 0 <= entry[1] < n:
                            raise ScenarioError(
                                f"node {u} phase {k}: committed neighbor {entry[1]!r} "
                                f"is not in 0..{n - 1}"
                            )
                    index.executes[u].append(ev)
                    index.exec_stages[u].append(t)
                elif action == "handshake":
                    branch = ev["branch"]
                    if branch == "init":
                        if type(ev["phase"]) is not int:
                            raise _not_an_int(i, "phase", ev["phase"])
                        index.inits[u].append(ev)
                    elif branch != "continue":
                        raise ScenarioError(f"trace event {i}: unknown branch {branch!r}")
                else:
                    raise ScenarioError(f"trace event {i}: unknown action {action!r}")
        except KeyError as exc:
            # event i was being read when the key was missing
            raise ScenarioError(f"trace event {i} has no {exc.args[0]!r} key") from None
        if len(index.stages) != horizon:
            raise ScenarioError(f"trace has {len(index.stages)} of {horizon} stage events")
        for u in pending:
            raise ScenarioError(f"stage {horizon - 1}: activated node {u} did not act")
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
    event per stage / per activated node action, in execution order, and a
    footer (empty when the trace has none)."""

    def __init__(self, header: dict, events: list[dict], footer: dict) -> None:
        self.header = header
        self.events = events
        self.footer = footer

    # -- serialization ----------------------------------------------------

    def to_jsonl(self) -> bytes:
        lines = [_dumps({"kind": "header", **self.header})]
        lines += [_dumps(ev) for ev in self.events]
        if self.footer:
            lines.append(_dumps({"kind": "footer", **self.footer}))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_jsonl(cls, data: bytes) -> "RunTrace":
        """Parse a trace: one JSON object per non-empty line, the header
        first and an optional footer last. Each line decodes to what
        ``json.loads`` gives for it, and a line it rejects is a named error."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"trace is not UTF-8: {exc}") from None
        header: dict | None = None
        events: list[dict] = []
        footer: dict = {}
        ended = False
        for k, line in enumerate(text.splitlines(), 1):
            if not line:
                continue
            try:
                row, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line):
                # not one whole value from the first character: json.loads
                # either accepts the line (say, padded with spaces) or says
                # what is wrong with it
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ScenarioError(f"trace line {k}: {exc}") from None
            if type(row) is not dict:
                got = type(row).__name__
                raise ScenarioError(f"trace line {k}: expected a JSON object, got {got}")
            kind = row.get("kind")
            if header is None:
                if kind != "header":
                    raise ScenarioError("trace does not start with a header line")
                header = {key: v for key, v in row.items() if key != "kind"}
            elif ended:
                raise ScenarioError(f"trace line {k}: line after the footer")
            elif kind == "footer":
                footer = {key: v for key, v in row.items() if key != "kind"}
                ended = True
            elif kind == "header":
                raise ScenarioError(f"trace line {k}: second header line")
            else:
                events.append(row)
        if header is None:
            raise ScenarioError("trace does not start with a header line")
        return cls(header, events, footer)

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.header["n"]

    @property
    def horizon(self) -> int:
        return self.header["horizon"]

    @functools.cached_property
    def index(self) -> TraceIndex:
        """The per-node index of the events, built on first use once the
        header is checked: ``schema`` the one this module writes, ``n``,
        ``delta`` and ``horizon`` integers >= 1 (a JSON boolean is not one),
        ``algorithm`` present, ``inputs`` null or one integer per node, and
        ``scheduler`` an object with the four keys
        ``SchedulerPolicy.from_header`` reads. After the build, the footer
        must count the horizon's stages and each node's executes."""
        header = self.header
        for key in ("schema", "n", "delta", "horizon", "algorithm", "inputs", "scheduler"):
            if key not in header:
                raise ScenarioError(f"trace header has no {key!r} key")
        if header["schema"] != TRACE_SCHEMA:
            raise ScenarioError(
                f"trace header: schema must be {TRACE_SCHEMA!r}, got {header['schema']!r}"
            )
        for key in ("n", "delta", "horizon"):
            value = header[key]
            if type(value) is not int or value < 1:
                raise ScenarioError(f"trace header: {key} must be an integer >= 1, got {value!r}")
        n, horizon = header["n"], header["horizon"]
        inputs, sched = header["inputs"], header["scheduler"]
        if inputs is not None and not (
            type(inputs) is list and len(inputs) == n and {int}.issuperset(map(type, inputs))
        ):
            raise ScenarioError(f"trace header: inputs must be null or {n} integers: {inputs!r}")
        if type(sched) is not dict:
            raise ScenarioError(f"trace header: scheduler must be an object, got {sched!r}")
        for key in ("kind", "seed", "p_activate", "fairness_bound"):
            if key not in sched:
                raise ScenarioError(f"trace header: scheduler has no {key!r} key")
        index = TraceIndex.build(n, horizon, self.events)
        # after the build, so that a truncated trace reads as one
        if not self.footer:
            raise ScenarioError("trace has no footer")
        stages, phases = self.footer.get("stages"), self.footer.get("final_phases")
        if type(stages) is not int or stages != horizon:
            raise ScenarioError(
                f"trace footer: stages must be the horizon {horizon}, got {stages!r}"
            )
        counts = [len(executes) for executes in index.executes]
        # n >= 1, so equal lists are not empty, and a boolean is not an int
        if type(phases) is not list or phases != counts or set(map(type, phases)) != {int}:
            raise ScenarioError(
                f"trace footer: final_phases must be each node's executes {counts}, got {phases!r}"
            )
        return index

    def stage_events(self) -> list[dict]:
        return list(self.index.stages)

    def actions(self, node: int | None = None, action: str | None = None) -> Iterator[dict]:
        for ev in self.events:
            if ev["kind"] != "action":
                continue
            if node is not None and ev["node"] != node:
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
    n, delta = graph.n, graph.delta
    schedule = scheduler.schedule(n, horizon)
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

    events: list[dict] = []
    states = [
        NodeState(delta, algo_state=algo.init(u, None if inputs is None else inputs[u]))
        for u in range(n)
    ]
    # Each node's accumulated disconnection set. A set is replaced, never
    # mutated, so it is also the stage-start snapshot every pull and the
    # node's own handshake read; an empty one is the shared _NO_DROPS.
    detectors: list[frozenset[int]] = [_NO_DROPS] * n
    last_init_map: list[dict[int, int]] = [{} for _ in range(n)]
    guard_checks = 0

    for t, activated in enumerate(schedule):
        edges = graph.edges_at(t)
        newly_dropped = disconnections_at(graph, t)
        for u in range(n):
            if newly_dropped[u]:
                detectors[u] = detectors[u] | newly_dropped[u]

        events.append(
            {
                "kind": "stage",
                "t": t,
                "edges": [list(e) for e in sorted(edges)],
                "activated": activated,
                "disconnects": [
                    [u, sorted(newly_dropped[u])] for u in range(n) if newly_dropped[u]
                ],
            }
        )

        # Guard complementarity is a model property, so it is checked for
        # every node every stage, not just the activated ones.
        kinds = [enabled_action(state) for state in states]
        guard_checks += n

        replacements: dict[int, NodeState] = {}
        writes: list[tuple[int, int]] = []  # (target node, target port)
        for u in activated:
            if kinds[u] is ActionKind.HANDSHAKE:
                occupied = sorted(ports.occupied(t, u).items())
                # port -> (neighbor, the neighbor's port back to u)
                behind = {port: (v, ports.port_of(t, v, u)) for port, v in occupied}
                reads = {
                    port: pull_view(states[v], remote_port, detectors[v])
                    for port, (v, remote_port) in behind.items()
                }
                new_state, write_ports, log = handshake(states[u], reads, detectors[u])
                for port in write_ports:
                    if port not in behind:
                        raise InternalInvariantError(
                            f"stage {t}: node {u} block-writes through dead port {port}"
                        )
                    writes.append(behind[port])
                event = {
                    "kind": "action",
                    "t": t,
                    "node": u,
                    "action": "handshake",
                    "phase": states[u].phase,
                    **log,
                }
                if log["branch"] == "init":
                    last_init_map[u] = dict(occupied)
                    event["port_map"] = [[p, v] for p, v in occupied]
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
            events.append(event)

        for u, new_state in replacements.items():
            states[u] = new_state
        for v, port in writes:
            apply_remote_block(states[v], port)
        for u in activated:
            detectors[u] = _NO_DROPS

    footer = {
        "stages": horizon,
        "guard_checks": guard_checks,
        "final_phases": [states[u].phase for u in range(n)],
    }
    return RunTrace(header, events, footer)


class FairnessReport(NamedTuple):
    max_gap: int
    bound: int
    worst_node: int
    ok: bool


def fairness_audit(trace: RunTrace) -> FairnessReport:
    """Max activation gap per node, counted from a virtual activation at
    stage -1, compared against the bound the trace header's scheduler
    promises."""
    max_gap, worst, worst_t = 0, 0, -1
    for u, stages in enumerate(trace.index.acts):
        for last, t in zip([-1] + stages, stages):
            # the worst node is the first a stage-by-stage walk finds
            if t - last > max_gap or (t - last == max_gap and t < worst_t):
                max_gap, worst, worst_t = t - last, u, t
    bound = SchedulerPolicy.from_header(trace.header).implied_gap_bound(trace.n, trace.horizon)
    return FairnessReport(max_gap=max_gap, bound=bound, worst_node=worst, ok=max_gap <= bound)
