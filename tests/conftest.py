"""Shared test helpers.

``brute_force_run`` is a from-scratch synchronous executor kept deliberately
separate from the packaged reference runner so the two can cross-check each
other, and ``reference_ports`` a from-scratch port assignment. The builders
below make small random-but-seeded fixtures. ``word`` and ``bits`` convert
between a set of ports and the synchronizer's bit words (bit p for port p),
by plain arithmetic, not by the package's own lookup. ``ViewReads`` serves a
handshake's reads from a plain dict of views.
"""
import random

from dynsync.tvg import edge


def word(ports) -> int:
    """The bit word whose set bits are the given ports."""
    return sum(1 << p for p in set(ports))


def bits(mask: int) -> frozenset[int]:
    """The ports whose bit is set in a bit word."""
    return frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)


class ViewReads(dict):
    """Handshake reads served from a dict of views, port -> PulledView:
    ``views`` copies the dict, ``view`` gives a port's view and ``ack`` its
    ack, each None for a port the dict leaves out."""

    def views(self):
        return dict(self)

    def view(self, port):
        return self.get(port)

    def ack(self, port):
        view = self.get(port)
        return None if view is None else view.ack


def brute_force_run(algo, edge_sets, n, inputs=None):
    """Plain dict-based synchronous execution; result[i][u] is u's state
    after step i."""
    states = {u: algo.init(u, None if inputs is None else inputs[u]) for u in range(n)}
    out = []
    for edges in edge_sets:
        touching = {u: [] for u in range(n)}
        for a, b in edges:
            touching[a].append(b)
            touching[b].append(a)
        states = {
            u: algo.step(
                states[u],
                sorted((states[v] for v in touching[u]), key=algo.serialize),
            )
            for u in range(n)
        }
        out.append(dict(states))
    return out


def random_edge_sets(rng: random.Random, n: int, delta: int, k: int, p: float = 0.4):
    """k random edge sets over n nodes respecting the degree bound."""
    sets = []
    for _ in range(k):
        chosen = set()
        degree = [0] * n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        for u, v in pairs:
            if degree[u] < delta and degree[v] < delta and rng.random() < p:
                chosen.add(edge(u, v))
                degree[u] += 1
                degree[v] += 1
        sets.append(frozenset(chosen))
    return sets


def reference_ports(graph):
    """Port maps rebuilt for every node at every stage from the stage before:
    persisting edges keep their ports, new neighbors in ascending order take
    the lowest free ports."""
    by_stage = []
    prev = [{} for _ in range(graph.n)]
    for t in range(graph.lifetime):
        edges = graph.stages[t]
        current = [{} for _ in range(graph.n)]
        for u in range(graph.n):
            for port, w in prev[u].items():
                if edge(u, w) in edges:
                    current[u][port] = w
        neighbors = [[] for _ in range(graph.n)]
        for a, b in edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        for u in range(graph.n):
            held = set(current[u].values())
            fresh = sorted(w for w in neighbors[u] if w not in held)
            free = [p for p in range(graph.delta) if p not in current[u]]
            for w, port in zip(fresh, free):
                current[u][port] = w
        by_stage.append(current)
        prev = current
    return by_stage
