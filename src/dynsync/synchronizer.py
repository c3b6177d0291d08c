"""Node-local synchronizer: two guarded actions that simulate one synchronous
step per phase on whatever edges survive a two-round ack/block handshake.

Each node keeps, per port, a one-bit ack it raises after reading a same-phase
neighbor, and a one-bit block register that either endpoint may set once it
has seen the other side's ack; the block register is the only remotely
writable bit. A node stores each register, and each of its other per-port
sets, as a delta-bit word: an int whose bit p stands for port p, so guards
and updates are bit operations. ``ports_of`` turns a word into the sorted
port list an event carries. A node advances its phase (runs the wrapped
algorithm's step) exactly when every port it still waits on is blocked.
Ports whose edge vanished since the phase started are dropped from the wait
set, but a port that was blocked before vanishing still feeds the step.

All reads a node performs during a stage observe other nodes as they were at
the start of that stage; its own writes land at the end of the stage.
"""
from __future__ import annotations

import functools
from enum import Enum
from typing import Any, NamedTuple, Protocol

# _BYTE_PORTS[b] is the set bits of the byte b, ascending; filled on first use
_BYTE_PORTS: list[tuple[int, ...]] = []


def ports_of(mask: int) -> list[int]:
    """The ports whose bit is set in ``mask``, ascending, as a new list.

    One lookup per byte of the word in a 256-entry table, so the table stays
    the same size for any delta."""
    if not _BYTE_PORTS:
        _BYTE_PORTS.extend(tuple(p for p in range(8) if b >> p & 1) for b in range(256))
    if mask < 256:
        return list(_BYTE_PORTS[mask])
    ports: list[int] = []
    base = 0
    while mask:
        ports += [base + p for p in _BYTE_PORTS[mask & 255]]
        mask >>= 8
        base += 8
    return ports


class ProtocolViolation(RuntimeError):
    """The engine fed the node something the model forbids (harness bug)."""


class ActionKind(Enum):
    HANDSHAKE = "handshake"
    EXECUTE = "execute"


class PulledView(NamedTuple):
    """Snapshot of the neighbor behind a port, as of the start of the stage
    the pull happened in. Immutable once pulled except for ack refreshes,
    which replace only ``ack`` and keep the phase-start algorithm snapshot.

    ``valid_ports``, ``phase_drops`` and ``detector`` are the neighbor's
    words (bit p for its port p). ``detector`` is its accumulated
    disconnection word at stage start, before any same-stage activation of
    the neighbor clears it.
    """

    phase: int
    synch: int
    remote_port: int
    ack: int
    valid_ports: int
    phase_drops: int
    detector: int
    algo_state: Any

    def with_ack(self, ack: int) -> "PulledView":
        phase, synch, remote_port, _, valid_ports, phase_drops, detector, algo_state = self
        return PulledView(
            phase, synch, remote_port, ack, valid_ports, phase_drops, detector, algo_state
        )


class NodeState:
    """Synchronizer variables of one anonymous node.

    Every per-port set is a delta-bit word, bit p for port p. acked and
    blocked hold the ports whose ack bit and block register are 1.
    valid_ports is fixed when a phase's first activation runs; invalid_ports
    holds the ports excluded at that moment. phase_drops accumulates ports
    whose edge vanished during the current phase. committed_ports is the edge
    set the last completed phase actually used.
    """

    __slots__ = (
        "delta", "synch", "phase", "acked", "blocked", "invalid_ports", "valid_ports",
        "phase_drops", "committed_ports", "pulled", "algo_state",
    )

    def __init__(
        self,
        delta: int,
        synch: int = 0,
        phase: int = 0,
        acked: int = 0,
        blocked: int = 0,
        invalid_ports: int = 0,
        valid_ports: int = 0,
        phase_drops: int = 0,
        committed_ports: int = 0,
        pulled: dict[int, PulledView] | None = None,
        algo_state: Any = None,
    ) -> None:
        self.delta = delta
        self.synch = synch
        self.phase = phase
        self.acked = acked
        self.blocked = blocked
        self.invalid_ports = invalid_ports
        self.valid_ports = valid_ports
        self.phase_drops = phase_drops
        self.committed_ports = committed_ports
        self.pulled = {} if pulled is None else pulled
        self.algo_state = algo_state

    def clone(self, pulled: dict[int, PulledView] | None = None) -> "NodeState":
        """A copy holding ``pulled`` as its views, or a copy of this state's
        when none is given; every other field is immutable and shared."""
        return NodeState(
            self.delta,
            self.synch,
            self.phase,
            self.acked,
            self.blocked,
            self.invalid_ports,
            self.valid_ports,
            self.phase_drops,
            self.committed_ports,
            dict(self.pulled) if pulled is None else pulled,
            self.algo_state,
        )


def enabled_action(state: NodeState) -> ActionKind:
    """The single enabled action. Guards depend only on stored state, never on
    the current topology, which is why a node is enabled under arbitrary
    dynamics."""
    # Both guards read one test: is every port the node still waits on,
    # valid_ports minus phase_drops, blocked?
    waited_out = not state.valid_ports & ~state.phase_drops & ~state.blocked
    hs, ex = state.synch == 0 or not waited_out, state.synch == 1 and waited_out
    if hs == ex:
        raise ProtocolViolation(f"guards not complementary: handshake={hs} execute={ex}")
    return ActionKind.HANDSHAKE if hs else ActionKind.EXECUTE


def _is_stranger(view: PulledView, phase: int) -> bool:
    """A neighbor to be excluded for this phase: it is ahead, or it is mid
    handshake in the same phase and its own bookkeeping shows this edge was
    not there (or broke) since that handshake began."""
    if view.phase > phase:
        return True
    # bit 0 of the shifted word: the edge is not valid, dropped, or detected
    return (
        view.phase == phase
        and view.synch == 1
        and (~view.valid_ports | view.phase_drops | view.detector) >> view.remote_port & 1 == 1
    )


class Reads(Protocol):
    """What a handshake may read through its node's occupied ports, each as
    of stage start. ``view`` and ``ack`` give None for an unoccupied port."""

    def views(self) -> dict[int, PulledView]:
        """A new dict of a view of every occupied port."""

    def view(self, port: int) -> PulledView | None:
        """The view of the node behind ``port``."""

    def ack(self, port: int) -> int | None:
        """Only the ack bit the node behind ``port`` raised toward this one."""


def _unsupplied(port: int) -> ProtocolViolation:
    return ProtocolViolation(f"port {port} is waited on but unoccupied; engine must supply it")


def handshake(
    state: NodeState,
    reads: Reads,
    detector: int,
) -> tuple[NodeState, tuple[int, ...], dict]:
    """Run the handshake action against stage-start snapshots.

    An init handshake keeps ``reads.views()``, a view of every occupied
    port, as its pulled views. A continue handshake reads nothing through a
    port it no longer waits on; for a waited port it reads ``reads.ack``
    when the stored view is in the current phase, and ``reads.view`` only
    to repull a stale one. A waited port that is unoccupied is a harness
    bug. ``detector`` is this node's accumulated disconnection word at
    stage start. Returns the replacement state, the local ports it blocked,
    through which a remote block write must be sent (their edges are
    necessarily live this stage), and a log payload for the trace.
    """
    phase = state.phase
    log: dict = {}

    if state.synch == 0:
        # Phase start: pull everything in sight, fix the wait set for the
        # whole phase, and begin handshaking.
        new = state.clone(reads.views())
        pulled = new.pulled
        new.phase_drops = 0
        occupied = invalid = 0
        for port, view in pulled.items():
            bit = 1 << port
            occupied |= bit
            if _is_stranger(view, phase):
                invalid |= bit
        new.invalid_ports = invalid
        new.valid_ports = occupied & ~invalid
        new.synch = 1
        waiting = ports_of(new.valid_ports)
        log["branch"] = "init"
    else:
        new = state.clone()
        pulled = new.pulled
        # the wait set once this stage's drops are absorbed: the ports to
        # refresh now and to ack or block below
        new.phase_drops |= detector
        waiting = ports_of(new.valid_ports & ~new.phase_drops)
        refreshed: list[int] = []
        repulled: list[int] = []
        for port in waiting:
            stored = pulled[port]
            if stored.phase < phase:
                # Partner was behind at the last pull; take a full new view.
                read = reads.view(port)
                if read is None:
                    raise _unsupplied(port)
                pulled[port] = read
                repulled.append(port)
            else:
                ack = reads.ack(port)
                if ack is None:
                    raise _unsupplied(port)
                # an unchanged ack keeps the stored view as it is
                if stored.ack != ack:
                    pulled[port] = stored.with_ack(ack)
                refreshed.append(port)
        log["branch"] = "continue"
        log["repulled"] = repulled
        log["ack_refreshed"] = refreshed
        log["drops_absorbed"] = ports_of(detector)

    # Second half of every handshake: raise acks toward same-phase partners,
    # and block (both sides) any port whose partner already acked us.
    blocked = new.blocked
    acks = blocks = 0
    acks_set: list[int] = []
    blocks_set: list[int] = []
    for port in waiting:
        view = pulled[port]
        bit = 1 << port
        if view.phase != phase or blocked & bit:
            continue
        if view.ack == 1:
            blocks_set.append(port)
            blocks |= bit
        else:
            acks_set.append(port)
            acks |= bit
    new.acked |= acks
    new.blocked = blocked | blocks
    log["acks_set"] = acks_set
    log["blocks_set"] = blocks_set
    return new, tuple(blocks_set), log


def execute_synch(state: NodeState, algo) -> tuple[NodeState, dict]:
    """Commit the phase: feed the wrapped algorithm the views behind every
    blocked port of the wait-set origin (a blocked port that later dropped
    still counts), then advance and reset all per-port bits."""
    committed_ports = state.valid_ports & state.blocked
    committed = ports_of(committed_ports)
    neighbor_states = algo.sort_states(state.pulled[p].algo_state for p in committed)
    new = NodeState(
        delta=state.delta,
        phase=state.phase + 1,
        invalid_ports=state.invalid_ports,
        valid_ports=state.valid_ports,
        phase_drops=state.phase_drops,
        committed_ports=committed_ports,
        algo_state=algo.step(state.algo_state, neighbor_states),
    )
    log = {
        "committed": committed,
        "valid": ports_of(state.valid_ports),
        "phase_drops": ports_of(state.phase_drops),
    }
    return new, log


def apply_remote_block(state: NodeState, port: int) -> None:
    """Land a remote block write: a one-way 0 -> 1 transition, applied after
    all local state replacements of the stage."""
    state.blocked |= 1 << port


PHASE_BYTES = 8  # fixed-width pulled-phase record in the canonical encoding
# the canonical encoding stores delta, and each port index, in one byte
MAX_DELTA = 255
# how many distinct settled bodies ``serialize_sync_state`` keeps
FOOTPRINT_MEMO_SIZE = 4096


def _layout(
    delta: int, synch: int, invalid: int, valid: int, drops: int, committed: int
) -> bytearray:
    # port p's record is body[2 + 12p : 14 + 12p]: acked, blocked, present,
    # pulled ack, pulled phase, here all zero; the four words follow as
    # length-prefixed sorted index lists
    body = bytearray(2 + 12 * delta)
    body[0], body[1] = synch, delta
    for members in (invalid, valid, drops, committed):
        ordered = ports_of(members)
        body.append(len(ordered))
        body += bytes(ordered)
    return body


@functools.lru_cache(maxsize=FOOTPRINT_MEMO_SIZE)
def _settled_body(
    delta: int, synch: int, invalid: int, valid: int, drops: int, committed: int
) -> bytes:
    """The body of a state with no pulled views and no ack or block bit,
    such as every state an execute returns; runs repeat few of them."""
    return bytes(_layout(delta, synch, invalid, valid, drops, committed))


def serialize_sync_state(state: NodeState) -> tuple[bytes, bytes]:
    """Canonical encoding of the synchronizer footprint, excluding algorithm
    states: (phase counter in minimal big-endian bytes, fixed-shape body).

    The body holds one 12-byte record per port plus four words as sorted
    index lists, so its size is bounded by 16*delta + 6 for any reachable
    state. Pulled views contribute only the fields consulted after the
    pulling stage: presence, phase, ack. A body without records, which
    depends on delta, synch and the four words alone, comes from a memo
    of the last ``FOOTPRINT_MEMO_SIZE`` distinct ones.
    """
    phase, delta = state.phase, state.delta
    phase_bytes = phase.to_bytes(max(1, (phase.bit_length() + 7) // 8), "big")
    words = (state.invalid_ports, state.valid_ports, state.phase_drops, state.committed_ports)
    if not (state.pulled or state.acked or state.blocked):
        return phase_bytes, _settled_body(delta, state.synch & 1, *words)
    body = _layout(delta, state.synch & 1, *words)
    # ports outside 0..delta-1 have no record
    in_range = (1 << delta) - 1
    for offset, members in ((2, state.acked & in_range), (3, state.blocked & in_range)):
        for port in ports_of(members):
            body[offset + 12 * port] = 1
    for port, view in state.pulled.items():
        if 0 <= port < delta:
            at = 4 + 12 * port
            body[at], body[at + 1] = 1, view.ack
            body[at + 2 : at + 2 + PHASE_BYTES] = view.phase.to_bytes(PHASE_BYTES, "big")
    return phase_bytes, bytes(body)
