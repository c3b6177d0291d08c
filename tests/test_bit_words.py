"""The synchronizer's bit words against a set-based transcription of its
actions: every per-port register and set a frozenset, guards and updates set
algebra, and each port list an event carries a sorted set. On drawn states
with delta up to 4 and ports both inside 0..delta-1 and above it, the two
must give equal decoded states, write ports, logs (key order included) and
footprint bytes, and raise the same errors."""
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

import dynsync
from conftest import ViewReads, bits, word
from dynsync import synchronizer
from dynsync.algorithms import make_algorithm
from dynsync.synchronizer import (
    FOOTPRINT_MEMO_SIZE,
    PHASE_BYTES,
    ActionKind,
    NodeState,
    ProtocolViolation,
    PulledView,
    apply_remote_block,
    enabled_action,
    execute_synch,
    handshake,
    ports_of,
    serialize_sync_state,
)

WORDS = ("acked", "blocked", "invalid_ports", "valid_ports", "phase_drops", "committed_ports")


class SetView(NamedTuple):
    phase: int
    synch: int
    remote_port: int
    ack: int
    valid_ports: frozenset[int]
    phase_drops: frozenset[int]
    detector: frozenset[int]
    algo_state: Any


def decode_view(view: PulledView) -> SetView:
    return SetView(
        view.phase, view.synch, view.remote_port, view.ack,
        bits(view.valid_ports), bits(view.phase_drops), bits(view.detector), view.algo_state,
    )


def encode_view(view: SetView) -> PulledView:
    return PulledView(
        view.phase, view.synch, view.remote_port, view.ack,
        word(view.valid_ports), word(view.phase_drops), word(view.detector), view.algo_state,
    )


def decode(state: NodeState) -> dict:
    """A node state as a dict whose per-port fields are sets."""
    out = {name: getattr(state, name) for name in NodeState.__slots__}
    out.update({name: bits(out[name]) for name in WORDS})
    out["pulled"] = {p: decode_view(v) for p, v in state.pulled.items()}
    return out


def encode(state: dict) -> NodeState:
    fields = dict(state, pulled={p: encode_view(v) for p, v in state["pulled"].items()})
    fields.update({name: word(state[name]) for name in WORDS})
    return NodeState(**fields)


# The set transcription. Each function takes and returns the dicts above.


def set_enabled_action(s: dict) -> ActionKind:
    waited_out = s["valid_ports"] - s["phase_drops"] <= s["blocked"]
    hs, ex = s["synch"] == 0 or not waited_out, s["synch"] == 1 and waited_out
    if hs == ex:
        raise ProtocolViolation(f"guards not complementary: handshake={hs} execute={ex}")
    return ActionKind.HANDSHAKE if hs else ActionKind.EXECUTE


def set_is_stranger(view: SetView, phase: int) -> bool:
    if view.phase > phase:
        return True
    return (
        view.phase == phase
        and view.synch == 1
        and (
            view.remote_port not in view.valid_ports
            or view.remote_port in (view.phase_drops | view.detector)
        )
    )


def set_handshake(s: dict, reads: dict, detector: frozenset[int]):
    new = dict(s, pulled=dict(s["pulled"]))
    log: dict = {"action": "handshake", "phase": s["phase"]}
    if s["synch"] == 0:
        new["pulled"] = dict(reads)
        new["phase_drops"] = frozenset()
        new["invalid_ports"] = frozenset(
            p for p, view in reads.items() if set_is_stranger(view, s["phase"])
        )
        new["valid_ports"] = frozenset(reads) - new["invalid_ports"]
        new["synch"] = 1
        waiting = sorted(new["valid_ports"])
        log["branch"] = "init"
        log["valid"] = sorted(new["valid_ports"])
        log["invalid"] = sorted(new["invalid_ports"])
    else:
        new["phase_drops"] = new["phase_drops"] | detector
        waiting = sorted(new["valid_ports"] - new["phase_drops"])
        refreshed, repulled = [], []
        for port in waiting:
            if port not in reads:
                raise ProtocolViolation(
                    f"port {port} is waited on but unoccupied; engine must supply it"
                )
            stored = new["pulled"][port]
            if stored.phase < new["phase"]:
                new["pulled"][port] = reads[port]
                repulled.append(port)
            else:
                new["pulled"][port] = stored._replace(ack=reads[port].ack)
                refreshed.append(port)
        log["branch"] = "continue"
        log["repulled"] = repulled
        log["ack_refreshed"] = refreshed
        log["drops_absorbed"] = sorted(detector)
    acks_set, blocks_set = [], []
    for port in waiting:
        view = new["pulled"][port]
        if view.phase != new["phase"] or port in new["blocked"]:
            continue
        (blocks_set if view.ack == 1 else acks_set).append(port)
    new["acked"] = new["acked"].union(acks_set)
    new["blocked"] = new["blocked"].union(blocks_set)
    log["acks_set"] = acks_set
    log["blocks_set"] = blocks_set
    return new, tuple(blocks_set), log


def set_execute(s: dict, algo):
    committed = sorted(s["valid_ports"] & s["blocked"])
    neighbor_states = algo.sort_states(s["pulled"][p].algo_state for p in committed)
    new = dict(
        s,
        synch=0,
        phase=s["phase"] + 1,
        acked=frozenset(),
        blocked=frozenset(),
        committed_ports=frozenset(committed),
        pulled={},
        algo_state=algo.step(s["algo_state"], neighbor_states),
    )
    phase_bytes, body = set_serialize(new)
    log = {
        "action": "execute",
        "phase": s["phase"],
        "committed": committed,
        "valid": sorted(s["valid_ports"]),
        "phase_drops": sorted(s["phase_drops"]),
        "pulled": [[p, algo.serialize(s["pulled"][p].algo_state).hex()] for p in committed],
        "state": algo.serialize(new["algo_state"]).hex(),
        "mem_phase": phase_bytes.hex(),
        "mem_body": body.hex(),
    }
    return new, log


def set_serialize(s: dict) -> tuple[bytes, bytes]:
    phase, delta = s["phase"], s["delta"]
    phase_bytes = phase.to_bytes(max(1, (phase.bit_length() + 7) // 8), "big")
    body = bytearray(2 + 12 * delta)
    body[0], body[1] = s["synch"] & 1, delta
    for offset, members in ((2, s["acked"]), (3, s["blocked"])):
        for port in members:
            if 0 <= port < delta:
                body[offset + 12 * port] = 1
    for port, view in s["pulled"].items():
        if 0 <= port < delta:
            at = 4 + 12 * port
            body[at], body[at + 1] = 1, view.ack
            body[at + 2 : at + 2 + PHASE_BYTES] = view.phase.to_bytes(PHASE_BYTES, "big")
    for name in ("invalid_ports", "valid_ports", "phase_drops", "committed_ports"):
        ordered = sorted(s[name])
        body.append(len(ordered))
        body += bytes(ordered)
    return phase_bytes, bytes(body)


def outcome(action, *args):
    """("ok", result), or the name and message of the error raised."""
    try:
        return "ok", action(*args)
    except (ProtocolViolation, KeyError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def set_views(draw, phase, port, ports):
    """A view a phase behind, level or ahead. The remote port's bit in each
    of its three sets is drawn on its own, so that every stranger test
    meets each outcome."""
    remote_port = draw(port)

    def with_remote_bit():
        rest = draw(ports)
        return rest | {remote_port} if draw(st.booleans()) else rest - {remote_port}

    return SetView(
        phase=draw(st.integers(max(0, phase - 1), phase + 1)),
        synch=draw(st.integers(0, 1)),
        remote_port=remote_port,
        ack=draw(st.integers(0, 1)),
        valid_ports=with_remote_bit(),
        phase_drops=with_remote_bit(),
        detector=with_remote_bit(),
        algo_state=draw(st.integers(0, 9)),
    )


@st.composite
def set_states(draw):
    """(state, port strategy, view strategy): a set-form state whose ports
    run to delta + 2, and whose pulled views cover at least its valid ports,
    as a reachable state's do."""
    delta = draw(st.integers(1, 4))
    phase = draw(st.integers(0, 3))
    port = st.integers(0, delta + 2)
    ports = st.frozensets(port)
    views = set_views(phase, port, ports)
    state = {
        "delta": delta,
        "synch": draw(st.integers(0, 2)),
        "phase": phase,
        **{name: draw(ports) for name in WORDS},
        "pulled": draw(st.dictionaries(port, views)),
        "algo_state": draw(st.integers(0, 9)),
    }
    for p in sorted(state["valid_ports"]):
        if p not in state["pulled"]:
            state["pulled"][p] = draw(views)
    return state, port, views


def assert_same_state(got: NodeState, want: dict) -> None:
    assert decode(got) == want
    assert serialize_sync_state(got) == set_serialize(want)


@settings(max_examples=150, deadline=None)
@given(case=set_states())
def test_enabled_action_and_footprint_equal_the_set_transcription(case):
    """Including the raise when the guards agree, which synch = 2 brings."""
    state, _, _ = case
    node = encode(state)
    assert outcome(enabled_action, node) == outcome(set_enabled_action, state)
    assert serialize_sync_state(node) == set_serialize(state)


@settings(max_examples=250, deadline=None)
@given(case=set_states(), data=st.data())
def test_handshake_equals_the_set_transcription(case, data):
    """Both branches, with drawn detectors absorbed into phase_drops, and the
    raise for a waited port that the reads leave out."""
    state, port, views = case
    occupied = data.draw(st.frozensets(port)) | state["valid_ports"]
    occupied -= data.draw(st.frozensets(port, max_size=1))
    reads = {p: data.draw(views) for p in sorted(occupied)}
    detector = data.draw(st.frozensets(port))
    node = encode(state)
    want = outcome(set_handshake, state, reads, detector)
    served = ViewReads({p: encode_view(v) for p, v in reads.items()})
    got = outcome(handshake, node, served, word(detector))
    assert decode(node) == state  # the input state is left alone
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok"
    (new, writes, log), (want_new, want_writes, want_log) = got[1], want[1]
    assert_same_state(new, want_new)
    assert writes == want_writes
    assert list(log.items()) == list(want_log.items())


@settings(max_examples=150, deadline=None)
@given(case=set_states(), algo=st.sampled_from(["counter", "max-flood"]))
def test_execute_synch_equals_the_set_transcription(case, algo):
    state, _, _ = case
    algo = make_algorithm(algo)
    new, log = execute_synch(encode(state), algo)
    want_new, want_log = set_execute(state, algo)
    assert_same_state(new, want_new)
    assert list(log.items()) == list(want_log.items())


def memo_calls() -> int:
    info = synchronizer._settled_body.cache_info()
    return info.hits + info.misses


@settings(max_examples=150, deadline=None)
@given(case=set_states(), algo=st.sampled_from(["counter", "max-flood"]))
def test_a_post_execute_footprint_comes_from_the_memo_and_equals_the_transcription(case, algo):
    state, _, _ = case
    algo = make_algorithm(algo)
    new, _ = execute_synch(encode(state), algo)
    want_new, _ = set_execute(state, algo)
    before = memo_calls()
    assert serialize_sync_state(new) == set_serialize(want_new)
    assert memo_calls() == before + 1


@settings(max_examples=100, deadline=None)
@given(case=set_states(), phases=st.lists(st.integers(0, 2**70), min_size=2, max_size=2))
def test_a_memoized_body_is_shared_across_phases_and_the_phase_bytes_are_not(case, phases):
    state, _, _ = case
    settled = dict(state, acked=frozenset(), blocked=frozenset(), pulled={})
    (phase_a, body_a), (phase_b, body_b) = (
        serialize_sync_state(encode(dict(settled, phase=phase))) for phase in phases
    )
    assert body_a is body_b
    assert (phase_a, body_a) == set_serialize(dict(settled, phase=phases[0]))
    assert (phase_b, body_b) == set_serialize(dict(settled, phase=phases[1]))


def test_the_footprint_memo_holds_no_more_than_its_bound():
    delta = 16
    for committed in range(FOOTPRINT_MEMO_SIZE + 100):
        state = NodeState(delta, phase=committed, committed_ports=committed)
        assert serialize_sync_state(state) == set_serialize(decode(state))
    assert synchronizer._settled_body.cache_info().currsize == FOOTPRINT_MEMO_SIZE


@settings(max_examples=100, deadline=None)
@given(case=set_states(), data=st.data())
def test_apply_remote_block_equals_the_set_transcription(case, data):
    state, port, _ = case
    target = data.draw(port)
    node = encode(state)
    apply_remote_block(node, target)
    assert_same_state(node, dict(state, blocked=state["blocked"] | {target}))


@settings(max_examples=300, deadline=None)
@given(mask=st.integers(0, 2**255 - 1))
def test_ports_of_lists_the_set_bits_in_a_fresh_list(mask):
    ports = ports_of(mask)
    assert ports == sorted(bits(mask))
    ports.append(-1)
    assert ports_of(mask) == sorted(bits(mask))


def test_port_lookup_is_filled_on_first_use_and_stays_bounded():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dynsync.cli; "
        "from dynsync import synchronizer as s; assert not s._BYTE_PORTS; "
        "s.ports_of(2**255 - 1); s.ports_of(5); print(len(s._BYTE_PORTS))"
    )
    src = Path(dynsync.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["256"]
