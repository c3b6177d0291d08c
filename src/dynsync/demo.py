"""The model-separation demo: paired two-node executions.

In both executions of a pair the one edge is present for the first two
stages. They differ only in whether node 1 acts before the edge dies, yet
node 0 observes the same bytes in each. ``impossibility_demo`` runs a
registered classic pull protocol, one whose nodes can read but not write
their neighbors' registers, through the pair and reports how it fails:
one endpoint commits alone, or no edge is ever committed.
``extended_model_demo`` runs the synchronizer's handshake on the same
dynamics and extracts a history on which both endpoints agree in each
execution.

The demo runs the engine and the synchronizer, so it lives apart from the
checkers in ``verify``.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, NamedTuple

from .algorithms import make_algorithm
from .engine import run
from .trace import SchedulerPolicy, _dumps
from .tvg import ScenarioError, TimeVaryingGraph
from .verify import extract_H


class Observation(NamedTuple):
    """What one activation of a classic pull node sees: the stage-start bytes
    exposed behind each occupied port, plus the ports flagged dropped since
    its last activation."""

    ports: tuple[tuple[int, str], ...]
    dropped: tuple[int, ...]

    def to_bytes(self) -> bytes:
        return _dumps(
            {"ports": [list(p) for p in self.ports], "dropped": list(self.dropped)}
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
        for u, ports in graph.ports.dropped[t].items():
            detectors[u].update(ports)
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
