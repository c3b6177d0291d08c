"""Deterministic single-step synchronous algorithms and their reference
executor.

An algorithm sees, each step, its own state plus the states of its current
neighbors as an unordered collection; step functions must be permutation
invariant. States serialize to canonical bytes, which is also the order the
harness uses when it hands a neighbor collection to ``step``.
"""
from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .tvg import Edge, ScenarioError


class SyncAlgorithm(ABC):
    """One deterministic step per phase; no randomness, no hidden state."""

    name: str = "abstract"

    @abstractmethod
    def init(self, node: int, value: Any = None) -> Any:
        """Initial state for a node, optionally from a per-node input."""

    @abstractmethod
    def step(self, own: Any, neighbors: Sequence[Any]) -> Any:
        """Next state from own state and the unordered neighbor states."""

    @abstractmethod
    def serialize(self, own: Any) -> bytes:
        """Canonical byte form; equal states must serialize identically."""

    def sort_states(self, states: Iterable[Any]) -> list[Any]:
        return sorted(states, key=self.serialize)


class CounterAlgo(SyncAlgorithm):
    """Counts completed steps."""

    name = "counter"

    def init(self, node: int, value: Any = None) -> int:
        return 0

    def step(self, own: int, neighbors: Sequence[int]) -> int:
        return own + 1

    def serialize(self, own: int) -> bytes:
        return int(own).to_bytes(8, "big")


class MaxFloodAlgo(SyncAlgorithm):
    """Floods the maximum input; per-node input defaults to the node index."""

    name = "max-flood"

    def init(self, node: int, value: Any = None) -> int:
        return int(node if value is None else value)

    def step(self, own: int, neighbors: Sequence[int]) -> int:
        return max([own, *neighbors])

    def serialize(self, own: int) -> bytes:
        return str(int(own)).encode("ascii")


DIGEST_SIZE = 16  # bytes; fixed-width collision-resistant digests


class HistoryHashAlgo(SyncAlgorithm):
    """Chains a digest of the sorted multiset of neighbor digests onto the own
    digest. Takes no inputs, so it runs in the strictest anonymous setting;
    byte-equal digests certify identical communication histories."""

    name = "history-hash"

    def init(self, node: int, value: Any = None) -> bytes:
        return hashlib.blake2b(b"genesis", digest_size=DIGEST_SIZE).digest()

    def step(self, own: bytes, neighbors: Sequence[bytes]) -> bytes:
        h = hashlib.blake2b(digest_size=DIGEST_SIZE)
        h.update(own)
        for d in sorted(neighbors):
            h.update(d)
        return h.digest()

    def serialize(self, own: bytes) -> bytes:
        return bytes(own)


def make_algorithm(name: str) -> SyncAlgorithm:
    if name == "counter":
        return CounterAlgo()
    if name == "max-flood":
        return MaxFloodAlgo()
    if name == "history-hash":
        return HistoryHashAlgo()
    raise ScenarioError(f"unknown algorithm {name!r}")


@dataclass
class SyncExecution:
    """A fully synchronous run: per-node states before any step and after each
    step i, where step i uses the i-th graph in the sequence."""

    initial: list[Any]
    after_step: list[list[Any]] = field(default_factory=list)

    def state(self, node: int, step: int) -> Any:
        """State after the given step; step -1 means the initial state."""
        return self.initial[node] if step < 0 else self.after_step[step][node]


def reference_run(
    algo: SyncAlgorithm,
    graphs: Sequence[frozenset[Edge] | Iterable[Edge]],
    n: int,
    inputs: Sequence[Any] | None = None,
) -> SyncExecution:
    """Run the algorithm synchronously: state after step i is produced from
    the states after step i-1 and the step-i graph's neighborhoods."""
    current = [algo.init(u, None if inputs is None else inputs[u]) for u in range(n)]
    execution = SyncExecution(list(current))
    for graph in graphs:
        adjacency: list[list[Any]] = [[] for _ in range(n)]
        for u, v in frozenset(graph):
            adjacency[u].append(current[v])
            adjacency[v].append(current[u])
        current = [
            algo.step(current[u], algo.sort_states(adjacency[u])) for u in range(n)
        ]
        execution.after_step.append(list(current))
    return execution
