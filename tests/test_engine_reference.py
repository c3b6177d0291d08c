"""The engine against a brute-force transcription of its docstring's stage
semantics: port maps rebuilt at every stage by ``reference_ports``,
disconnections found by scanning the stage before's maps, detectors kept as
plain sets and turned into bit words only where the synchronizer reads them,
and every read taken from a deep copy of the stage-start states.
The two must give event-for-event equal traces and equal footers on small
drawn graphs, activation sets and algorithms. On the same runs and on the
bundled scenarios, the engine must build only the views and read only the
acks that its handshake events record."""
import copy
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, reference_ports, word
from dynsync import engine
from dynsync.algorithms import make_algorithm
from dynsync.cli import bundled_scenarios, load_config
from dynsync.engine import run
from dynsync.synchronizer import (
    ActionKind,
    NodeState,
    PulledView,
    enabled_action,
    execute_synch,
    handshake,
    serialize_sync_state,
)
from dynsync.trace import SchedulerPolicy
from dynsync.tvg import TimeVaryingGraph, edge


class StartReads:
    """A handshake's reads through its occupied ports, ``behind`` (port ->
    (neighbor, neighbor's port back)), each taken when asked for from a deep
    copy of the stage-start states and detectors."""

    def __init__(self, start, start_detectors, behind):
        self.start, self.start_detectors, self.behind = start, start_detectors, behind

    def views(self):
        return {port: self.view(port) for port in self.behind}

    def view(self, port):
        if port not in self.behind:
            return None
        v, back = self.behind[port]
        seen = copy.deepcopy(self.start[v])
        return PulledView(
            seen.phase,
            seen.synch,
            back,
            1 if back in bits(seen.acked) else 0,
            seen.valid_ports,
            seen.phase_drops,
            word(self.start_detectors[v]),
            seen.algo_state,
        )

    def ack(self, port):
        if port not in self.behind:
            return None
        v, back = self.behind[port]
        return 1 if back in bits(copy.deepcopy(self.start[v]).acked) else 0


def reference_run(graph, script, algo, inputs=None):
    """(events, footer) of a run whose stage t activates the nodes in
    script[t]. Each stage: fold the ports whose edge vanished since the stage
    before into both endpoints' detectors; evaluate every node's enabled
    action; run each activated node's against the stage-start states and
    detectors; land all state replacements, then all remote block writes;
    clear the activated nodes' detectors."""
    n, delta = graph.n, graph.delta
    maps = reference_ports(graph)
    states = [
        NodeState(delta, algo_state=algo.init(u, None if inputs is None else inputs[u]))
        for u in range(n)
    ]
    detectors = [set() for _ in range(n)]
    init_maps = [{} for _ in range(n)]
    events, guard_checks = [], 0
    for t in range(graph.lifetime):
        edges = graph.stages[t]
        dropped = [set() for _ in range(n)]
        if t > 0:
            for u in range(n):
                for port, w in maps[t - 1][u].items():
                    if edge(u, w) not in edges:
                        dropped[u].add(port)
        for u in range(n):
            detectors[u] |= dropped[u]
        activated = sorted(set(script[t]))
        events.append(
            {
                "kind": "stage",
                "t": t,
                "edges": sorted([u, v] for u, v in edges),
                "activated": activated,
                "disconnects": [[u, sorted(dropped[u])] for u in range(n) if dropped[u]],
            }
        )

        start = copy.deepcopy(states)
        start_detectors = copy.deepcopy(detectors)
        actions = [enabled_action(state) for state in start]
        guard_checks += n
        replaced, writes = {}, []
        for u in activated:
            own = copy.deepcopy(start[u])
            if actions[u] is ActionKind.HANDSHAKE:
                behind = {}
                for port, v in maps[t][u].items():
                    (back,) = [q for q, w in maps[t][v].items() if w == u]
                    behind[port] = (v, back)
                reads = StartReads(start, start_detectors, behind)
                new, blocked, log = handshake(own, reads, word(start_detectors[u]))
                writes += [behind[port] for port in blocked]
                # the reference's own fields after the log's, so that the
                # log's copies of them are compared, not taken for granted
                event = {
                    **log,
                    "kind": "action",
                    "t": t,
                    "node": u,
                    "action": "handshake",
                    "phase": own.phase,
                }
                if log["branch"] == "init":
                    init_maps[u] = dict(maps[t][u])
                    event["port_map"] = sorted([p, v] for p, v in maps[t][u].items())
                    event["valid"] = sorted(bits(new.valid_ports))
                    event["invalid"] = sorted(bits(new.invalid_ports))
            else:
                new, log = execute_synch(own, algo)
                phase_bytes, body = serialize_sync_state(new)
                event = {
                    **log,
                    "kind": "action",
                    "t": t,
                    "node": u,
                    "action": "execute",
                    "phase": own.phase,
                    "committed_map": [[p, init_maps[u][p]] for p in log["committed"]],
                    "state": algo.serialize(new.algo_state).hex(),
                    "mem_phase": phase_bytes.hex(),
                    "mem_body": body.hex(),
                    # from the views themselves, not from the log
                    "pulled": [
                        [p, algo.serialize(own.pulled[p].algo_state).hex()]
                        for p in log["committed"]
                    ],
                }
            replaced[u] = new
            events.append(event)

        for u, new in replaced.items():
            states[u] = new
        for v, port in writes:
            states[v].blocked = word(bits(states[v].blocked) | {port})
        for u in activated:
            detectors[u] = set()
    footer = {
        "stages": graph.lifetime,
        "guard_checks": guard_checks,
        "final_phases": [state.phase for state in states],
    }
    return events, footer


@st.composite
def scripted_runs(draw):
    """A graph of up to 4 nodes, delta up to 3 and up to 12 stages, each
    stage's edges drawn pair by pair and kept while both degrees allow, any
    activation sets, and an algorithm with its inputs."""
    n = draw(st.integers(1, 4))
    delta = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    stages = []
    for _ in range(horizon):
        degree = [0] * n
        chosen = set()
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
            if degree[u] < delta and degree[v] < delta:
                degree[u] += 1
                degree[v] += 1
                chosen.add((u, v))
        stages.append(frozenset(chosen))
    script = tuple(tuple(draw(st.sets(st.integers(0, n - 1)))) for _ in range(horizon))
    algo = make_algorithm(draw(st.sampled_from(["counter", "max-flood", "history-hash"])))
    inputs = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)) if algo.takes_inputs else None
    return TimeVaryingGraph(n, delta, tuple(stages)), script, algo, inputs


@settings(max_examples=150, deadline=None)
@given(case=scripted_runs())
def test_run_equals_the_stage_by_stage_reference(case):
    graph, script, algo, inputs = case
    trace = run(graph, SchedulerPolicy(kind="scripted", script=script), algo, inputs=inputs)
    events, footer = reference_run(graph, script, algo, inputs)
    assert trace.events == events
    assert trace.footer == footer


def counted_run(graph, scheduler, algo, inputs=None):
    """(trace, views built, acks read alone) of a run whose every call of
    ``pull_view`` and ``pull_ack`` is counted. A view reads its own ack
    through ``pull_ack``, so the acks read alone are the ``pull_ack`` calls
    that no view made."""
    calls = {"view": 0, "ack": 0}

    def counting(kind, read):
        def counted(*args):
            calls[kind] += 1
            return read(*args)

        return counted

    with mock.patch.object(engine, "pull_view", counting("view", engine.pull_view)), \
            mock.patch.object(engine, "pull_ack", counting("ack", engine.pull_ack)):
        trace = run(graph, scheduler, algo, inputs=inputs)
    return trace, calls["view"], calls["ack"] - calls["view"]


def assert_reads_are_what_the_events_record(trace, views, acks):
    """Views: one per occupied port of each init handshake, one per repull;
    ack reads: one per refreshed port of each continue handshake."""
    handshakes = [ev for ev in trace.events if ev.get("action") == "handshake"]
    inits = [ev for ev in handshakes if ev["branch"] == "init"]
    continues = [ev for ev in handshakes if ev["branch"] == "continue"]
    assert views == sum(len(ev["port_map"]) for ev in inits) + sum(
        len(ev["repulled"]) for ev in continues
    )
    assert acks == sum(len(ev["ack_refreshed"]) for ev in continues)


@settings(max_examples=100, deadline=None)
@given(case=scripted_runs())
def test_a_drawn_run_reads_only_what_its_handshakes_record(case):
    graph, script, algo, inputs = case
    scheduler = SchedulerPolicy(kind="scripted", script=script)
    assert_reads_are_what_the_events_record(*counted_run(graph, scheduler, algo, inputs))


@pytest.mark.parametrize("name", bundled_scenarios())
def test_a_bundled_run_reads_only_what_its_handshakes_record(name):
    config = load_config(name)
    algo, inputs = config.build_algorithm()
    trace, views, acks = counted_run(config.build_graph(), config.build_scheduler(), algo, inputs)
    assert_reads_are_what_the_events_record(trace, views, acks)
    # every scenario has continue handshakes that read acks, not views
    assert acks > 0
