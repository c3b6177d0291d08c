"""Time-varying graphs over a fixed node set, with degree-bounded dynamics
and stable port assignments.

A graph is a per-stage sequence of undirected edge sets over nodes 0..n-1.
Each node owns ``delta`` ports; an incident edge occupies one port and keeps
it for as long as the edge persists. When an edge disappears and later
reappears it may land on a different port.

``port_step`` is the whole port rule for one stage: from the stage before's
maps and edge set and this stage's edge set it gives this stage's maps and the
ports each node lost, which are the stage's disconnections. ``assign_ports``
folds it over a graph, and ``disconnections_at`` reads the drops it recorded.
"""
from __future__ import annotations

import functools
import random

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


class TimeVaryingGraph:
    def __init__(self, n: int, delta: int, stages: tuple[frozenset[Edge], ...]) -> None:
        self.n = n
        self.delta = delta
        self.stages = stages
        if self.n < 1:
            raise ScenarioError(f"need at least one node, got n={self.n}")
        if self.delta < 1:
            raise ScenarioError(f"need delta >= 1, got {self.delta}")
        if not self.stages:
            raise ScenarioError("graph needs at least one stage")
        # a static graph repeats one edge set object, checked at its first stage
        checked: set[int] = set()
        for t, edges in enumerate(self.stages):
            if id(edges) not in checked:
                checked.add(id(edges))
                _validate_edge_set(edges, self.n, self.delta, t)

    @property
    def lifetime(self) -> int:
        return len(self.stages)

    @functools.cached_property
    def ports(self) -> "PortAssignment":
        """The graph's port assignment, built on first use."""
        return assign_ports(self)

    def neighbors_at(self, t: int, u: int) -> set[int]:
        if t < 0:
            raise IndexError(t)
        return {w for a, b in self.stages[t] for w in (a, b) if u in (a, b) and w != u}


def generate(
    n: int,
    delta: int,
    t_max: int,
    *,
    seed: int,
    p_drop: float,
    p_add: float,
    initial=(),
) -> TimeVaryingGraph:
    """A t_max-stage random-churn graph whose stage 0 is the edge set named
    by the ``initial`` pairs. Each later stage drops each edge of the one
    before with p_drop, then scans non-edges in sorted order and adds each
    with p_add unless the degree bound would break at either endpoint.
    Deterministic in its arguments.

    Every non-edge (u, v), u < v, has one coin, ``rng.random()``, in that
    order. A coin in a row whose lower node u has no free port decides
    nothing, so once u is full the rest of its row's k coins are consumed
    with one ``rng.getrandbits(64 * k)``: CPython's ``random()`` reads two
    32-bit Mersenne Twister words and ``getrandbits(64 * k)`` reads 2k, so
    the stream is the one that draws every coin."""
    if type(seed) is not int:
        raise ScenarioError(f"dynamics seed must be an integer, got {seed!r}")
    for name, p in (("p_drop", p_drop), ("p_add", p_add)):
        if not (type(p) in (int, float) and 0.0 <= p <= 1.0):
            raise ScenarioError(f"{name} must be in [0,1], got {p!r}")
    if t_max < 1:
        raise ScenarioError(f"t_max must be >= 1, got {t_max}")
    rng = random.Random(seed)
    stages: list[frozenset[Edge]] = [normalize_edges(initial)]
    # the loop indexes degrees by node, so stage 0 is checked before it runs
    _validate_edge_set(stages[0], n, delta, 0)
    draw, skip = rng.random, rng.getrandbits
    for _ in range(1, t_max):
        kept = [e for e in sorted(stages[-1]) if draw() >= p_drop]
        degree = [0] * n
        above: dict[int, list[int]] = {}
        for u, v in kept:
            degree[u] += 1
            degree[v] += 1
            above.setdefault(u, []).append(v)
        # row u's coins are its non-edges (u, v), v > u; no later row reads
        # degree[u], so its count is kept in d
        added: list[Edge] = []
        for u in range(n - 1):
            held = above.get(u, ())
            left = n - 1 - u - len(held)  # the row's coins not yet drawn
            d = degree[u]
            if d < delta:
                for v in range(u + 1, n):
                    if v in held:
                        continue
                    left -= 1
                    if draw() < p_add and degree[v] < delta:
                        added.append((u, v))
                        degree[v] += 1
                        d += 1
                        if d == delta:
                            break
            if left:
                skip(64 * left)
        # a frozenset copied from a set gets a table sized to its contents,
        # one built from a list can get one twice as large
        stages.append(frozenset(set(kept + added)))
    return TimeVaryingGraph(n, delta, tuple(stages))


class PortAssignment:
    """Ground-truth port maps: for every stage and node, which neighbor sits
    behind each occupied port, and the inverse, plus the ports each node lost
    at the stage's start. Available to the engine and verifiers only;
    node-local code never sees node identities.

    A node whose edges did not change since the stage before shares that
    stage's map objects, so the maps are read-only."""

    def __init__(self) -> None:
        self.by_stage: list[list[dict[int, int]]] = []
        self.inverse: list[list[dict[int, int]]] = []
        self.dropped: list[dict[int, tuple[int, ...]]] = []

    def occupied(self, t: int, u: int) -> dict[int, int]:
        """port -> neighbor for node u at stage t."""
        return self.by_stage[t][u]

    def port_of(self, t: int, u: int, v: int) -> int:
        try:
            return self.inverse[t][u][v]
        except KeyError:
            raise KeyError(f"stage {t}: node {u} has no port for {v}") from None


def port_step(
    maps: list[dict[int, int]],
    inverse: list[dict[int, int]],
    prev_edges: frozenset[Edge],
    edges: frozenset[Edge],
    delta: int,
) -> tuple[list[dict[int, int]], list[dict[int, int]], dict[int, tuple[int, ...]]]:
    """One stage of the port assignment. From the stage before's maps
    (port -> neighbor per node), their inverses and its edge set, return
    this stage's maps and inverses and the ports each node lost, as a dict
    from node to sorted ports, in ascending node order, holding only the
    nodes that lost one.

    Persisting edges keep their ports. Vanished edges free theirs first, then
    each new edge takes the lowest free port at each endpoint, new neighbors
    in ascending index order. A node that gains more neighbors than it has
    free ports is a ScenarioError. Only the endpoints of changed edges get
    new map objects; the arguments are never mutated."""
    gone, new = prev_edges - edges, edges - prev_edges
    if not (gone or new):
        return maps, inverse, {}
    maps, inverse = maps.copy(), inverse.copy()
    # a node's maps are copied when it first loses or gains an edge
    lost: dict[int, list[int]] = {}
    for u, v in gone:
        for a, b in ((u, v), (v, u)):
            if a not in lost:
                maps[a], inverse[a] = dict(maps[a]), dict(inverse[a])
                lost[a] = []
            port = inverse[a].pop(b)
            del maps[a][port]
            lost[a].append(port)
    fresh: dict[int, list[int]] = {}
    for u, v in new:
        fresh.setdefault(u, []).append(v)
        fresh.setdefault(v, []).append(u)
    for u, neighbors in fresh.items():
        if u not in lost:
            maps[u], inverse[u] = dict(maps[u]), dict(inverse[u])
        by_port, by_neighbor = maps[u], inverse[u]
        neighbors.sort()
        port = 0
        for w in neighbors:
            while port in by_port:
                port += 1
            if port >= delta:
                raise ScenarioError(
                    f"node {u} has no free port for new neighbor {w}: delta is {delta}"
                )
            by_port[port] = w
            by_neighbor[w] = port
    # sorted tuples: a set per node per stage would cost the run's memory
    return maps, inverse, {u: tuple(sorted(lost[u])) for u in sorted(lost)}


def assign_ports(graph: TimeVaryingGraph) -> PortAssignment:
    """The fold of ``port_step`` over the graph's stages, from empty maps
    before stage 0, so that stage 0 loses no port."""
    assignment = PortAssignment()
    maps: list[dict[int, int]] = [{} for _ in range(graph.n)]
    inverse: list[dict[int, int]] = [{} for _ in range(graph.n)]
    prev: frozenset[Edge] = frozenset()
    for edges in graph.stages:
        maps, inverse, dropped = port_step(maps, inverse, prev, edges, graph.delta)
        assignment.by_stage.append(maps)
        assignment.inverse.append(inverse)
        assignment.dropped.append(dropped)
        prev = edges
    return assignment


# only perfbench/spans.py's TIMED_FUNCTIONS reads this, under this module's name
def disconnections_at(graph: TimeVaryingGraph, t: int) -> list[set[int]]:
    """Per-node set of port indices whose edge was present at stage t-1 and is
    gone at stage t. Empty at t=0."""
    if t < 0:
        raise IndexError(t)
    dropped = graph.ports.dropped[t]
    return [set(dropped.get(u, ())) for u in range(graph.n)]
