import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ViewReads, bits, word
from dynsync.algorithms import CounterAlgo
from dynsync.synchronizer import (
    PHASE_BYTES,
    ActionKind,
    NodeState,
    ProtocolViolation,
    PulledView,
    apply_remote_block,
    enabled_action,
    execute_synch,
    handshake,
    serialize_sync_state,
)


def view(
    phase=0,
    synch=0,
    remote_port=0,
    ack=0,
    valid=(),
    drops=(),
    detector=(),
    algo_state=0,
):
    return PulledView(
        phase=phase,
        synch=synch,
        remote_port=remote_port,
        ack=ack,
        valid_ports=word(valid),
        phase_drops=word(drops),
        detector=word(detector),
        algo_state=algo_state,
    )


def test_fresh_state_wants_a_handshake():
    s = NodeState(3, algo_state=0)
    assert (s.delta, s.synch, s.phase) == (3, 0, 0)
    assert s.acked == s.blocked == 0
    assert enabled_action(s) is ActionKind.HANDSHAKE


def docstring_guards(state):
    """(handshake guard, execute guard) as the module docstring states them:
    a node advances exactly when every port it still waits on (valid_ports
    minus phase_drops) is blocked, so it handshakes while synch is 0 or some
    waited port is unblocked, and executes when synch is 1 and none is."""
    blocked = bits(state.blocked)
    waited_out = all(p in blocked for p in bits(state.valid_ports) - bits(state.phase_drops))
    return state.synch == 0 or not waited_out, state.synch == 1 and waited_out


@settings(max_examples=300, deadline=None)
@given(
    synch=st.integers(0, 1),
    delta=st.integers(1, 5),
    data=st.data(),
)
def test_property_exactly_one_action_enabled(synch, delta, data):
    """For every reachable flag combination the two guards disagree, so the
    node always has exactly one action available, and it is the one whose
    guard holds."""
    ports = st.sets(st.integers(0, delta - 1))
    valid = data.draw(ports)
    drops = data.draw(ports)
    blocked = data.draw(ports)
    s = NodeState(delta, algo_state=0)
    s.synch = synch
    s.valid_ports = word(valid)
    s.phase_drops = word(drops)
    s.blocked = word(blocked)
    hs, ex = docstring_guards(s)
    assert hs != ex
    assert enabled_action(s) is (ActionKind.HANDSHAKE if hs else ActionKind.EXECUTE)


@settings(max_examples=300, deadline=None)
@given(synch=st.integers(0, 2), delta=st.integers(1, 5), data=st.data())
def test_property_enabled_action_is_the_guard_that_holds(synch, delta, data):
    """``enabled_action`` names the one of the docstring's two guards that
    holds, and raises when they agree (only a synch value other than 0 or 1
    makes them agree)."""
    ports = st.sets(st.integers(0, delta - 1))
    s = NodeState(delta, algo_state=0)
    s.synch = synch
    s.valid_ports = word(data.draw(ports))
    s.phase_drops = word(data.draw(ports))
    s.acked = word(data.draw(ports))
    s.blocked = word(data.draw(ports))
    hs, ex = docstring_guards(s)
    if hs == ex:
        with pytest.raises(ProtocolViolation, match="guards not complementary"):
            enabled_action(s)
    else:
        assert enabled_action(s) is (ActionKind.HANDSHAKE if hs else ActionKind.EXECUTE)


class TestPulledView:
    def test_is_immutable(self):
        v = view(phase=2, ack=0)
        with pytest.raises(AttributeError):
            v.ack = 1
        with pytest.raises(TypeError):
            v[3] = 1
        assert v.ack == 0

    def test_with_ack_changes_only_ack(self):
        v = view(phase=3, synch=1, remote_port=2, valid=(0, 2), drops=(1,), detector=(2,))
        w = v.with_ack(1)
        assert type(w) is PulledView
        assert (w.ack, v.ack) == (1, 0)
        assert w._replace(ack=0) == v
        for name in PulledView._fields:
            if name != "ack":
                assert getattr(w, name) is getattr(v, name)


class TestInitBranch:
    def test_pulls_everything_and_fixes_wait_set(self):
        s = NodeState(2, algo_state=0)
        reads = ViewReads({0: view(remote_port=1), 1: view(remote_port=0)})
        new, writes, log = handshake(s, reads, 0)
        assert log["branch"] == "init"
        assert new.synch == 1
        assert new.pulled == reads
        assert bits(new.valid_ports) == {0, 1}
        assert bits(new.invalid_ports) == set()
        assert writes == ()

    @pytest.mark.parametrize(
        "neighbor,stranger",
        [
            (dict(phase=1), True),  # already ahead
            (dict(phase=0, synch=1, remote_port=0, valid=()), True),  # never saw us
            (dict(phase=0, synch=1, remote_port=0, valid=(0,), drops=(0,)), True),
            (dict(phase=0, synch=1, remote_port=0, valid=(0,), detector=(0,)), True),
            (dict(phase=0, synch=1, remote_port=0, valid=(0,)), False),  # clean same-phase
            (dict(phase=0, synch=0), False),  # not yet started its phase
        ],
    )
    def test_stranger_classification(self, neighbor, stranger):
        s = NodeState(1, algo_state=0)
        new, _, _ = handshake(s, ViewReads({0: view(**neighbor)}), 0)
        assert (0 in bits(new.invalid_ports)) is stranger
        assert (0 in bits(new.valid_ports)) is (not stranger)

    def test_same_stage_partner_with_ack_gets_blocked_immediately(self):
        s = NodeState(1, algo_state=0)
        new, writes, log = handshake(s, ViewReads({0: view(valid=(0,), ack=1)}), 0)
        assert 0 in bits(new.blocked)
        assert writes == (0,)
        assert log["blocks_set"] == [0]

    def test_partner_without_ack_gets_acked(self):
        s = NodeState(1, algo_state=0)
        new, writes, log = handshake(s, ViewReads({0: view()}), 0)
        assert 0 in bits(new.acked)
        assert 0 not in bits(new.blocked)
        assert writes == ()
        assert log["acks_set"] == [0]

    def test_phase_drops_reset_at_phase_start(self):
        s = NodeState(1, algo_state=0)
        s.phase_drops = word({0})
        new, _, _ = handshake(s, ViewReads({}), 0)
        assert bits(new.phase_drops) == set()


class TestContinueBranch:
    def started(self):
        s = NodeState(2, algo_state=0)
        reads = ViewReads({0: view(algo_state=10), 1: view(algo_state=20)})
        new, _, _ = handshake(s, reads, 0)
        return new

    def test_stale_view_fully_repulled(self):
        s = self.started()
        s.phase = 1  # as if the node advanced while port 0's partner lagged
        s.synch = 1
        fresh = view(phase=1, ack=1, algo_state=99)
        new, _, log = handshake(s, ViewReads({0: fresh, 1: view(phase=1, algo_state=77)}), 0)
        assert log["branch"] == "continue"
        assert set(log["repulled"]) == {0, 1}
        assert new.pulled[0] == fresh

    def test_current_view_only_refreshes_ack(self):
        s = self.started()
        bait = view(ack=1, algo_state=999)  # same phase, newer algorithm state
        new, _, log = handshake(s, ViewReads({0: bait, 1: view()}), 0)
        assert log["ack_refreshed"] == [0, 1]
        assert new.pulled[0].ack == 1
        # the phase-start snapshot must survive the refresh
        assert new.pulled[0].algo_state == 10

    def test_detector_absorbed_into_phase_drops(self):
        s = self.started()
        new, _, log = handshake(s, ViewReads({1: view()}), word({0}))
        assert bits(new.phase_drops) == {0}
        assert log["drops_absorbed"] == [0]
        # port 0 is excused, so only port 1 needed a read

    def test_reads_only_what_each_waited_port_needs(self):
        """A stale stored view is repulled whole, a current one needs only
        its partner's ack, and a port no longer waited on is not read."""
        calls = []

        class Recording(ViewReads):
            def view(self, port):
                calls.append(("view", port))
                return super().view(port)

            def ack(self, port):
                calls.append(("ack", port))
                return super().ack(port)

        s = NodeState(3, algo_state=0)
        s, _, _ = handshake(s, ViewReads({p: view() for p in range(3)}), 0)
        s.phase = 1  # as if the node advanced while its partners lagged
        s.pulled[1] = view(phase=1)
        reads = Recording({p: view(phase=1, ack=1) for p in range(3)})
        new, _, log = handshake(s, reads, word({2}))
        assert calls == [("view", 0), ("ack", 1)]
        assert (log["repulled"], log["ack_refreshed"]) == ([0], [1])
        assert new.pulled[0] == reads[0]
        assert new.pulled[1] == view(phase=1, ack=1)

    def test_waited_port_missing_from_reads_is_a_harness_bug(self):
        s = self.started()
        with pytest.raises(ProtocolViolation):
            handshake(s, ViewReads({1: view()}), 0)
        s.phase = 1  # port 0's view is stale now, so it would be repulled
        with pytest.raises(ProtocolViolation, match="port 0 is waited on but unoccupied"):
            handshake(s, ViewReads({1: view(phase=1)}), 0)

    def test_second_round_blocks_after_seeing_ack(self):
        s = self.started()
        new, writes, log = handshake(s, ViewReads({0: view(ack=1), 1: view()}), 0)
        assert 0 in bits(new.blocked)
        assert writes == (0,)
        assert 1 in bits(new.acked)
        assert log["blocks_set"] == [0]
        assert log["acks_set"] == [1]


class TestExecute:
    def test_blocked_then_dropped_port_still_feeds_the_step(self):
        algo = CounterAlgo()
        s = NodeState(2, algo_state=algo.init(0))
        s.synch = 1
        s.valid_ports = word({0, 1})
        s.phase_drops = word({1})  # dropped after its block was set
        s.blocked = word({0, 1})
        s.pulled = {0: view(algo_state=0), 1: view(algo_state=0)}
        assert enabled_action(s) is ActionKind.EXECUTE
        new, log = execute_synch(s, algo)
        assert log["committed"] == [0, 1]
        assert log["valid"] == [0, 1]
        assert log["phase_drops"] == [1]

    def test_unblocked_invalid_port_excluded(self):
        algo = CounterAlgo()
        s = NodeState(2, algo_state=algo.init(0))
        s.synch = 1
        s.valid_ports = word({0})
        s.blocked = word({0, 1})  # port 1 blocked but never valid this phase
        s.pulled = {0: view()}
        new, log = execute_synch(s, algo)
        assert log["committed"] == [0]

    def test_advances_phase_and_resets_everything(self):
        algo = CounterAlgo()
        s = NodeState(1, algo_state=algo.init(0))
        s.synch = 1
        s.valid_ports = word({0})
        s.acked = word({0})
        s.blocked = word({0})
        s.pulled = {0: view(algo_state=5)}
        new, _ = execute_synch(s, algo)
        assert (new.phase, new.synch) == (1, 0)
        assert new.algo_state == 1
        assert new.pulled == {}
        assert 0 not in bits(new.acked) and 0 not in bits(new.blocked)
        assert bits(new.committed_ports) == {0}
        # the pre-step state is untouched; the engine swaps it in atomically
        assert s.phase == 0 and s.pulled

    def test_isolated_node_steps_alone(self):
        algo = CounterAlgo()
        s = NodeState(1, algo_state=algo.init(0))
        s.synch = 1
        new, log = execute_synch(s, algo)
        assert new.algo_state == 1
        assert log["committed"] == []


def test_two_nodes_handshake_to_execution_in_three_stages():
    """The canonical dance: ack round, block round, then both execute."""
    algo = CounterAlgo()
    a = NodeState(1, algo_state=algo.init(0))
    b = NodeState(1, algo_state=algo.init(1))

    def read(other):
        return ViewReads({0: view(phase=other.phase, synch=other.synch, remote_port=0,
                                  ack=int(0 in bits(other.acked)),
                                  valid=bits(other.valid_ports),
                                  drops=bits(other.phase_drops),
                                  algo_state=other.algo_state)})

    # stage 0: both init against each other's stage-start image
    ra, rb = read(b), read(a)
    a, wa, _ = handshake(a, ra, 0)
    b, wb, _ = handshake(b, rb, 0)
    assert wa == wb == ()
    assert 0 in bits(a.acked) and 0 in bits(b.acked)

    # stage 1: both see the other's ack and block both sides
    ra, rb = read(b), read(a)
    a, wa, _ = handshake(a, ra, 0)
    b, wb, _ = handshake(b, rb, 0)
    assert wa == (0,) and wb == (0,)
    apply_remote_block(b, 0)
    apply_remote_block(a, 0)
    assert 0 in bits(a.blocked) and 0 in bits(b.blocked)

    # stage 2: both are enabled to execute and advance together
    assert enabled_action(a) is ActionKind.EXECUTE
    assert enabled_action(b) is ActionKind.EXECUTE
    a, la = execute_synch(a, algo)
    b, lb = execute_synch(b, algo)
    assert a.phase == b.phase == 1
    assert la["committed"] == lb["committed"] == [0]


class TestSerialization:
    def test_golden_layout(self):
        s = NodeState(1, algo_state=None)
        s.synch = 1
        s.phase = 5
        s.acked = word({0})
        s.valid_ports = word({0})
        s.pulled = {0: view(phase=5)}
        phase_bytes, body = serialize_sync_state(s)
        assert phase_bytes == b"\x05"
        assert body.hex() == (
            "0101"  # synch, delta
            "01000100" + "0000000000000005"  # port 0: ack, block, has view, view ack, view phase
            "00" "0100" "00" "00"  # invalid, valid={0}, drops, committed
        )

    def test_phase_counter_is_minimal_big_endian(self):
        s = NodeState(1, algo_state=None)
        for phase, want in ((0, b"\x00"), (255, b"\xff"), (256, b"\x01\x00")):
            s.phase = phase
            assert serialize_sync_state(s)[0] == want

    @settings(max_examples=200, deadline=None)
    @given(
        delta=st.integers(1, 6),
        phase=st.integers(0, 2**48),
        data=st.data(),
    )
    def test_property_body_bounded_and_phase_compact(self, delta, phase, data):
        """Body stays within 16*delta + 6 bytes and the phase encoding wastes
        at most 8 bits, for every reachable flag/set combination."""
        occupied = data.draw(st.sets(st.integers(0, delta - 1)))
        valid = data.draw(st.sets(st.sampled_from(sorted(occupied)))) if occupied else set()
        s = NodeState(delta, algo_state=None)
        s.synch = data.draw(st.integers(0, 1))
        s.phase = phase
        s.invalid_ports = word(occupied - valid)
        s.valid_ports = word(valid)
        s.phase_drops = word(data.draw(st.sets(st.sampled_from(sorted(valid))))) if valid else 0
        s.committed_ports = word(valid)
        for p in occupied:
            s.pulled[p] = view(phase=phase)
        phase_bytes, body = serialize_sync_state(s)
        assert len(body) <= 16 * delta + 6
        # phase.bit_length() equals ceil(log2(phase + 1)) for every phase >= 0
        assert 8 * len(phase_bytes) <= phase.bit_length() + 8


def reference_serialize(state):
    """The footprint encoding built port by port: for each port in 0..delta-1
    its acked and blocked bits, whether a view is pulled, and the view's ack
    and phase, then the four sets as sorted lists."""
    phase = state.phase
    phase_bytes = phase.to_bytes(max(1, (phase.bit_length() + 7) // 8), "big")
    body = bytearray([state.synch & 1, state.delta])
    for port in range(state.delta):
        view = state.pulled.get(port)
        present, ack, pulled_phase = (0, 0, 0) if view is None else (1, view.ack, view.phase)
        body += bytes((port in bits(state.acked), port in bits(state.blocked), present, ack))
        body += pulled_phase.to_bytes(PHASE_BYTES, "big")
    for members in (
        state.invalid_ports,
        state.valid_ports,
        state.phase_drops,
        state.committed_ports,
    ):
        ordered = sorted(bits(members))
        body.append(len(ordered))
        body += bytes(ordered)
    return phase_bytes, bytes(body)


@settings(max_examples=200, deadline=None)
@given(delta=st.integers(1, 6), phase=st.integers(0, 2**64 - 1), data=st.data())
def test_property_serialization_equals_the_per_port_reference(delta, phase, data):
    """Equal bytes for any state: acked and blocked bits above delta - 1 and
    pulled views at ports outside 0..delta-1, which both encoders ignore,
    pulled phases up to 2**64 - 1, and the emptied state an execute leaves,
    which is the one ``run`` serializes. A word has no negative ports, so its
    out-of-range bits are the six above delta - 1."""
    any_port = st.integers(-3, delta + 2)
    ports = st.builds(word, st.frozensets(st.integers(0, delta - 1)))
    s = NodeState(delta, synch=data.draw(st.integers(0, 1)), phase=phase, algo_state=0)
    s.acked = word(data.draw(st.frozensets(st.integers(0, delta + 5))))
    s.blocked = word(data.draw(st.frozensets(st.integers(0, delta + 5))))
    s.invalid_ports, s.valid_ports = data.draw(ports), data.draw(ports)
    s.phase_drops, s.committed_ports = data.draw(ports), data.draw(ports)
    views = st.builds(view, phase=st.integers(0, 2**64 - 1), ack=st.integers(0, 1))
    s.pulled = data.draw(st.dictionaries(any_port, views))
    assert serialize_sync_state(s) == reference_serialize(s)
    # execute feeds the step the views behind the blocked valid ports
    for port in bits(s.valid_ports & s.blocked):
        s.pulled.setdefault(port, view(phase=phase))
    after, _ = execute_synch(s, CounterAlgo())
    assert not (after.acked or after.blocked or after.pulled)
    assert serialize_sync_state(after) == reference_serialize(after)
