import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsync.algorithms import make_algorithm
from dynsync.engine import RunTrace, SchedulerPolicy, fairness_audit, run
from dynsync.tvg import (
    DynamicsPolicy,
    ScenarioError,
    TimeVaryingGraph,
    generate,
)


def static_run(edges, n, delta, horizon, scheduler=None, algo_name="counter"):
    g = generate(DynamicsPolicy(kind="static", initial=tuple(edges)), n, delta, horizon)
    scheduler = scheduler or SchedulerPolicy(kind="all-active")
    return run(g, scheduler, make_algorithm(algo_name))


class TestScheduler:
    def test_all_active(self):
        pol = SchedulerPolicy(kind="all-active")
        assert pol.select(4, 3, random.Random(0), [-1, -1, -1]) == [0, 1, 2]

    def test_sequential_round_robin(self):
        pol = SchedulerPolicy(kind="sequential")
        picks = [pol.select(t, 3, random.Random(0), [0, 0, 0]) for t in range(6)]
        assert picks == [[0], [1], [2], [0], [1], [2]]

    def test_scripted_validates_range(self):
        pol = SchedulerPolicy(kind="scripted", script=((5,),))
        with pytest.raises(ScenarioError):
            pol.select(0, 3, random.Random(0), [-1, -1, -1])

    def test_scripted_past_end_rejected(self):
        pol = SchedulerPolicy(kind="scripted", script=((0,),))
        with pytest.raises(ScenarioError):
            pol.select(1, 1, random.Random(0), [-1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            SchedulerPolicy(kind="adversary")

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), bound=st.integers(1, 6), p=st.floats(0.0, 0.9))
    def test_property_random_subset_respects_fairness_bound(self, seed, bound, p):
        """Even at p_activate 0 every node is force-activated within the bound."""
        n, horizon = 5, 60
        pol = SchedulerPolicy(kind="random-subset", seed=seed, p_activate=p, fairness_bound=bound)
        rng = random.Random(seed)
        last = [-1] * n
        for t in range(horizon):
            for u in pol.select(t, n, rng, last):
                assert t - last[u] <= bound
                last[u] = t
        assert all(t - last[u] <= bound for u in range(n) for t in [horizon - 1])


class TestTraceFormat:
    def test_round_trip_is_byte_identical(self):
        trace = static_run([(0, 1)], 2, 1, 10)
        data = trace.to_jsonl()
        again = RunTrace.from_jsonl(data)
        assert again.to_jsonl() == data
        assert again.header == trace.header
        assert again.footer == trace.footer

    def test_rejects_headerless_input(self):
        with pytest.raises(ScenarioError):
            RunTrace.from_jsonl(b'{"kind":"stage"}\n')

    def test_replay_is_deterministic(self):
        a = static_run([(0, 1), (1, 2)], 3, 2, 20, SchedulerPolicy(kind="random-subset", seed=4))
        b = static_run([(0, 1), (1, 2)], 3, 2, 20, SchedulerPolicy(kind="random-subset", seed=4))
        assert a.to_jsonl() == b.to_jsonl()

    def test_run_lasts_exactly_the_graph_lifetime(self):
        g = TimeVaryingGraph(2, 1, (frozenset({(0, 1)}),) * 5)
        trace = run(g, SchedulerPolicy(kind="all-active"), make_algorithm("counter"))
        assert trace.header["horizon"] == trace.footer["stages"] == g.lifetime == 5
        assert len(trace.index.stages) == 5
        assert trace.header["frozen_from"] is None


class TestCadence:
    def test_two_static_nodes_reach_phase_one_at_stage_two(self):
        trace = static_run([(0, 1)], 2, 1, 3)
        # stage 0 both ack, stage 1 both block, stage 2 both execute
        assert [ev["action"] for ev in trace.actions(node=0)] == [
            "handshake",
            "handshake",
            "execute",
        ]
        assert trace.index.phase_at(0, 3) == trace.index.phase_at(1, 3) == 1

    def test_static_all_active_phase_boundary_every_three_stages(self):
        trace = static_run([(0, 1), (1, 2), (0, 2)], 3, 2, 30)
        # r_i: first stage at whose start every node has completed i phases
        assert trace.index.phase_starts == [3 * i for i in range(11)]

    def test_isolated_node_needs_two_stages_per_phase(self):
        trace = static_run([], 1, 1, 10)
        assert len(trace.index.executes[0]) == 5
        kinds = [ev["action"] for ev in trace.actions(node=0)]
        assert kinds == ["handshake", "execute"] * 5

    def test_guard_checked_for_every_node_every_stage(self):
        trace = static_run([(0, 1)], 2, 1, 12)
        assert trace.footer["guard_checks"] == 2 * 12


class TestStageSemantics:
    def test_reads_are_stage_start_snapshots(self):
        """Two nodes activated in the same stage must not see each other's
        same-stage acks, which forces the dance to take two stages."""
        trace = static_run([(0, 1)], 2, 1, 3)
        stage0 = [ev for ev in trace.actions(action="handshake") if ev["t"] == 0]
        assert all(ev["acks_set"] == [0] and ev["blocks_set"] == [] for ev in stage0)
        stage1 = [ev for ev in trace.actions(action="handshake") if ev["t"] == 1]
        assert all(ev["blocks_set"] == [0] for ev in stage1)

    def test_disconnect_folded_into_both_endpoints(self):
        stages = (frozenset({(0, 1)}), frozenset(), frozenset())
        g = TimeVaryingGraph(2, 1, stages)
        trace = run(g, SchedulerPolicy(kind="all-active"), make_algorithm("counter"))
        drop_events = [ev for ev in trace.stage_events() if ev["disconnects"]]
        assert drop_events[0]["t"] == 1
        assert drop_events[0]["disconnects"] == [[0, [0]], [1, [0]]]
        # both nodes were mid-phase, so the drop lands in their wait bookkeeping
        cont = [ev for ev in trace.actions(action="handshake") if ev["t"] == 1]
        assert all(ev["drops_absorbed"] == [0] for ev in cont)

    def test_detector_cleared_only_for_activated_nodes(self):
        stages = (frozenset({(0, 1)}), frozenset(), frozenset(), frozenset())
        g = TimeVaryingGraph(2, 1, stages)
        script = ((0, 1), (0,), (1,), ())
        trace = run(g, SchedulerPolicy(kind="scripted", script=script), make_algorithm("counter"))
        # node 1 sleeps through stage 1, so it absorbs the drop at stage 2
        ev1 = next(ev for ev in trace.actions(node=1) if ev["t"] == 2)
        assert ev1["drops_absorbed"] == [0]

    def test_init_event_logs_ground_truth_port_map(self):
        trace = static_run([(0, 1), (1, 2)], 3, 2, 6)
        first = trace.index.inits[1][0]
        assert first["port_map"] == [[0, 0], [1, 2]]
        assert first["valid"] == [0, 1]
        assert first["invalid"] == []

    def test_execute_event_carries_memory_shape(self):
        trace = static_run([(0, 1)], 2, 1, 6)
        ev = trace.index.executes[0][0]
        assert set(ev) >= {"committed_map", "state", "pulled", "mem_phase", "mem_body"}
        assert ev["committed_map"] == [[0, 1]]


class TestFairnessAudit:
    def test_all_active_gap_is_one(self):
        trace = static_run([(0, 1)], 2, 1, 8)
        report = fairness_audit(trace)
        assert report.max_gap == 1 and report.ok

    def test_bound_violation_detected(self):
        script = ((0,), (0,), (0,), (0, 1))
        g = TimeVaryingGraph(2, 1, (frozenset({(0, 1)}),) * 4)
        trace = run(g, SchedulerPolicy(kind="scripted", script=script), make_algorithm("counter"))
        trace.header["scheduler"].update(kind="random-subset", fairness_bound=2)
        report = fairness_audit(trace)
        assert not report.ok
        assert report.max_gap == 4 and report.worst_node == 1


class TestRunValidation:
    def test_graph_without_stages_rejected(self):
        """A run lasts its graph's lifetime, so a zero-stage run is ruled
        out where the graph is built."""
        with pytest.raises(ScenarioError):
            TimeVaryingGraph(2, 1, ())

    def test_short_script_rejected_up_front(self):
        g = TimeVaryingGraph(2, 1, (frozenset(),) * 5)
        with pytest.raises(ScenarioError):
            run(g, SchedulerPolicy(kind="scripted", script=((0,),)), make_algorithm("counter"))

    def test_inputs_must_cover_all_nodes(self):
        g = TimeVaryingGraph(3, 1, (frozenset(),))
        with pytest.raises(ScenarioError):
            run(g, SchedulerPolicy(kind="all-active"), make_algorithm("max-flood"), inputs=[1, 2])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_random_runs_complete_with_monotone_min_phase(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    delta = rng.randint(1, 3)
    g = generate(
        DynamicsPolicy(kind="random-churn", seed=seed, p_drop=0.3, p_add=0.3),
        n,
        delta,
        40,
    )
    sched = SchedulerPolicy(kind="random-subset", seed=seed + 1, p_activate=0.5, fairness_bound=4)
    trace = run(g, sched, make_algorithm("history-hash"))
    starts = trace.index.phase_starts
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert trace.footer["final_phases"] == [len(events) for events in trace.index.executes]
