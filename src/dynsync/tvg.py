"""Time-varying graphs over a fixed node set, with degree-bounded dynamics
and stable port assignments.

A graph is a per-stage sequence of undirected edge sets over nodes 0..n-1.
Each node owns ``delta`` ports; an incident edge occupies one port and keeps
it for as long as the edge persists. When an edge disappears and later
reappears it may land on a different port.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

Edge = tuple[int, int]


class ScenarioError(ValueError):
    """Raised when a scenario description is structurally invalid."""


def edge(u: int, v: int) -> Edge:
    if u == v:
        raise ScenarioError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


def _validate_edge_set(edges: frozenset[Edge], n: int, delta: int, t: int) -> None:
    degree = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ScenarioError(f"stage {t}: edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ScenarioError(f"stage {t}: self-loop at node {u}")
        degree[u] += 1
        degree[v] += 1
    for u, d in enumerate(degree):
        if d > delta:
            raise ScenarioError(f"stage {t}: node {u} has degree {d} > delta {delta}")


def normalize_edges(pairs) -> frozenset[Edge]:
    """The edge set named by a collection of node-index pairs."""
    if not isinstance(pairs, (list, tuple, set, frozenset)):
        raise ScenarioError(f"an edge set must be an array of pairs, got {pairs!r}")
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and [type(w) for w in pair] == [int, int]):
            raise ScenarioError(f"an edge must be a pair of node indices, got {pair!r}")
    return frozenset(edge(u, v) for u, v in pairs)


@dataclass(frozen=True)
class DynamicsPolicy:
    """How the edge set evolves stage to stage.

    kinds: "static" (initial set forever), "random-churn" (per-stage drops
    then adds, degree bound enforced), "scripted" (explicit per-stage sets).
    """

    kind: str
    seed: int = 0
    p_drop: float = 0.0
    p_add: float = 0.0
    initial: tuple[Edge, ...] = ()
    script: tuple[frozenset[Edge], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("static", "random-churn", "scripted"):
            raise ScenarioError(f"unknown dynamics kind {self.kind!r}")
        if not isinstance(self.seed, int):
            raise ScenarioError(f"dynamics seed must be an integer, got {self.seed!r}")
        if self.kind == "random-churn":
            for name, p in (("p_drop", self.p_drop), ("p_add", self.p_add)):
                if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
                    raise ScenarioError(f"{name} must be in [0,1], got {p!r}")


@dataclass(frozen=True)
class TimeVaryingGraph:
    n: int
    delta: int
    stages: tuple[frozenset[Edge], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ScenarioError(f"need at least one node, got n={self.n}")
        if self.delta < 1:
            raise ScenarioError(f"need delta >= 1, got {self.delta}")
        if not self.stages:
            raise ScenarioError("graph needs at least one stage")
        for t, edges in enumerate(self.stages):
            _validate_edge_set(edges, self.n, self.delta, t)

    @property
    def lifetime(self) -> int:
        return len(self.stages)

    @functools.cached_property
    def ports(self) -> "PortAssignment":
        """The graph's port assignment, built on first use."""
        return assign_ports(self)

    def edges_at(self, t: int) -> frozenset[Edge]:
        if t < 0:
            raise IndexError(t)
        return self.stages[t]

    def neighbors_at(self, t: int, u: int) -> set[int]:
        return {w for a, b in self.edges_at(t) for w in (a, b) if u in (a, b) and w != u}


def generate(policy: DynamicsPolicy, n: int, delta: int, t_max: int) -> TimeVaryingGraph:
    """Build a t_max-stage graph from a dynamics policy. Deterministic in
    (policy, n, delta, t_max)."""
    if t_max < 1:
        raise ScenarioError(f"t_max must be >= 1, got {t_max}")
    if policy.kind == "scripted":
        if len(policy.script) != t_max:
            raise ScenarioError(
                f"scripted dynamics has {len(policy.script)} stages, horizon wants {t_max}"
            )
        return TimeVaryingGraph(n, delta, tuple(policy.script))

    initial = normalize_edges(policy.initial)
    if policy.kind == "static":
        return TimeVaryingGraph(n, delta, (initial,) * t_max)

    # random-churn: from the previous stage, drop each edge with p_drop, then
    # scan non-edges in sorted order and add each with p_add unless the degree
    # bound would break at either endpoint.
    rng = random.Random(policy.seed)
    stages: list[frozenset[Edge]] = [initial]
    _validate_edge_set(initial, n, delta, 0)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(1, t_max):
        prev = stages[-1]
        kept = {e for e in sorted(prev) if rng.random() >= policy.p_drop}
        degree = [0] * n
        for u, v in kept:
            degree[u] += 1
            degree[v] += 1
        for u, v in all_pairs:
            if (u, v) in kept:
                continue
            if rng.random() < policy.p_add and degree[u] < delta and degree[v] < delta:
                kept.add((u, v))
                degree[u] += 1
                degree[v] += 1
        stages.append(frozenset(kept))
    return TimeVaryingGraph(n, delta, tuple(stages))


@dataclass
class PortAssignment:
    """Ground-truth port maps: for every stage and node, which neighbor sits
    behind each occupied port. Available to the engine and verifiers only;
    node-local code never sees node identities."""

    by_stage: list[list[dict[int, int]]] = field(default_factory=list)

    def occupied(self, t: int, u: int) -> dict[int, int]:
        """port -> neighbor for node u at stage t."""
        return self.by_stage[t][u]

    def node_behind(self, t: int, u: int, port: int) -> int:
        return self.occupied(t, u)[port]

    def port_of(self, t: int, u: int, v: int) -> int:
        for port, w in self.occupied(t, u).items():
            if w == v:
                return port
        raise KeyError(f"stage {t}: node {u} has no port for {v}")


def assign_ports(graph: TimeVaryingGraph) -> PortAssignment:
    """Deterministic port assignment: persisting edges keep their ports; each
    new edge takes the lowest free port at each endpoint, new neighbors
    processed in ascending index order."""
    assignment = PortAssignment()
    prev: list[dict[int, int]] = [{} for _ in range(graph.n)]
    for t in range(graph.lifetime):
        edges = graph.edges_at(t)
        current: list[dict[int, int]] = [{} for _ in range(graph.n)]
        for u in range(graph.n):
            for port, w in prev[u].items():
                if edge(u, w) in edges:
                    current[u][port] = w
        neighbors: list[list[int]] = [[] for _ in range(graph.n)]
        for a, b in edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        for u in range(graph.n):
            held = set(current[u].values())
            fresh = sorted(w for w in neighbors[u] if w not in held)
            free = [p for p in range(graph.delta) if p not in current[u]]
            for w, port in zip(fresh, free):
                current[u][port] = w
        assignment.by_stage.append(current)
        prev = current
    return assignment


def disconnections_at(graph: TimeVaryingGraph, t: int) -> list[set[int]]:
    """Per-node set of port indices whose edge was present at stage t-1 and is
    gone at stage t. Empty at t=0."""
    if t == 0:
        return [set() for _ in range(graph.n)]
    edges, ports = graph.edges_at(t), graph.ports
    out: list[set[int]] = []
    for u in range(graph.n):
        gone = {
            port
            for port, w in ports.occupied(t - 1, u).items()
            if edge(u, w) not in edges
        }
        out.append(gone)
    return out
