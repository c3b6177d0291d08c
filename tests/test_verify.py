import random

import pytest

import dynsync.engine as engine_mod
from conftest import random_edge_sets
from dynsync.algorithms import make_algorithm
from dynsync.cli import build_weak_nontriviality
from dynsync.demo import extended_model_demo, impossibility_demo
from dynsync.engine import SchedulerPolicy, run
from dynsync.tvg import ScenarioError, TimeVaryingGraph, generate
from dynsync.verify import (
    SymmetryViolation,
    check_correctness,
    check_liveness,
    check_pulled_consistency,
    check_sandwich,
    check_strong_nontriviality,
    extract_H,
)


def run_static(edges, n, delta, horizon, algo_name="counter", scheduler=None):
    g = TimeVaryingGraph(n, delta, (frozenset(edges),) * horizon)
    algo = make_algorithm(algo_name)
    trace = run(g, scheduler or SchedulerPolicy(kind="all-active"), algo)
    return trace, g.ports, algo


def run_churn(seed, n=5, delta=2, horizon=80, algo_name="history-hash"):
    g = generate(n, delta, horizon, seed=seed, p_drop=0.3, p_add=0.35)
    algo = make_algorithm(algo_name)
    sched = SchedulerPolicy(kind="random-subset", seed=seed + 1, p_activate=0.5, fairness_bound=4)
    return run(g, sched, algo), g.ports, algo


class TestExtract:
    def test_static_two_nodes(self):
        trace, ports, _ = run_static([(0, 1)], 2, 1, 9)
        ex = extract_H(trace, ports)
        assert ex.completed == [3, 3]
        assert ex.steps == [frozenset({(0, 1)})] * 3

    def test_one_sided_commit_raises(self):
        trace, _, _ = run_static([(0, 1)], 2, 1, 6)
        ev = trace.index.executes[1][0]
        ev["committed_map"] = []  # forge: node 1 denies the phase-0 edge
        with pytest.raises(SymmetryViolation):
            extract_H(trace)

    def test_port_map_cross_check(self):
        trace, ports, _ = run_static([(0, 1), (1, 2)], 3, 2, 6)
        extract_H(trace, ports)  # agreeing ground truth is accepted
        ev = trace.index.inits[1][0]
        ev["port_map"] = [[0, 2], [1, 0]]  # swapped, contradicts the assignment
        with pytest.raises(ScenarioError):
            extract_H(trace, ports)


class TestCorrectness:
    def test_passes_on_faithful_run(self):
        trace, ports, algo = run_static([(0, 1), (1, 2)], 3, 2, 15, "history-hash")
        report = check_correctness(trace, algo, extracted=extract_H(trace, ports))
        assert report.ok and report.compared_phases == 5

    def test_detects_corrupted_state(self):
        trace, ports, algo = run_static([(0, 1)], 2, 1, 9, "history-hash")
        trace.index.executes[1][1]["state"] = "00" * 16
        report = check_correctness(trace, algo, extracted=extract_H(trace, ports))
        assert not report.ok
        assert report.divergence[0] == 1 and report.divergence[1] == 1

    def test_detects_stale_snapshot(self):
        trace, _, algo = run_static([(0, 1)], 2, 1, 9, "history-hash")
        ev = trace.index.executes[0][1]
        ev["pulled"] = [[0, "11" * 16]]
        report = check_pulled_consistency(trace, algo)
        assert not report.ok
        assert "stale snapshot" in report.failures[0]

    def test_sandwich_holds_and_violations_are_caught(self):
        trace, _, _ = run_static([(0, 1)], 2, 1, 9)
        assert check_sandwich(trace).ok
        ev = trace.index.executes[0][0]
        ev["committed"] = []  # forge: waited-on port missing from the commit
        report = check_sandwich(trace)
        assert not report.ok and "not all committed" in report.failures[0]


class TestStrongNontriviality:
    def test_static_graph_commits_every_edge_every_phase(self):
        # nobody is ever a stranger in a static graph, so H_i is the full set
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        trace, ports, _ = run_static(edges, 4, 2, 24)
        ex = extract_H(trace, ports)
        assert all(step == frozenset(edges) for step in ex.steps)
        assert check_strong_nontriviality(trace, ex).ok

    def test_static_with_lazy_scheduler(self):
        sched = SchedulerPolicy(kind="random-subset", seed=3, p_activate=0.3, fairness_bound=5)
        trace, ports, _ = run_static([(0, 1), (1, 2)], 3, 2, 60, scheduler=sched)
        ex = extract_H(trace, ports)
        assert ex.compared_phases > 3
        assert all(step == frozenset({(0, 1), (1, 2)}) for step in ex.steps)
        assert check_strong_nontriviality(trace, ex).ok

    @pytest.mark.parametrize("seed", range(6))
    def test_churn_oracle_agrees_both_directions(self, seed):
        trace, ports, _ = run_churn(seed)
        ex = extract_H(trace, ports)
        report = check_strong_nontriviality(trace, ex)
        assert report.ok, f"missing={report.missing[:3]} extra={report.extra[:3]}"
        assert report.phases == ex.compared_phases

    def test_vanishing_edge_of_simultaneous_starters_is_not_committed(self):
        """Both endpoints start the phase seeing a live, same-phase partner,
        yet the edge dies one stage later, before the ack exchange finishes.
        Mutual validity at the phase start is not enough; the oracle demands
        survival through the handshake completion."""
        stages = (frozenset({(0, 1)}),) + (frozenset(),) * 5
        g = TimeVaryingGraph(2, 1, stages)
        trace = run(g, SchedulerPolicy(kind="all-active"), make_algorithm("counter"))
        ex = extract_H(trace)
        assert ex.compared_phases >= 2
        assert ex.steps[0] == frozenset()
        assert check_strong_nontriviality(trace, ex).ok

    def test_forged_missing_edge_detected(self):
        trace, _, _ = run_static([(0, 1)], 2, 1, 6)
        for u in (0, 1):
            trace.index.executes[u][0]["committed_map"] = []
        report = check_strong_nontriviality(trace)
        assert not report.ok
        assert (0, 1, 0) in report.missing

    def test_forged_extra_edge_detected(self):
        trace, _, _ = run_static([], 2, 1, 6)
        trace.index.executes[0][0]["committed_map"] = [[0, 1]]
        trace.index.executes[1][0]["committed_map"] = [[0, 0]]
        report = check_strong_nontriviality(trace)
        assert not report.ok
        assert (0, 1, 0) in report.extra


class TestWeakNontriviality:
    def roundtrip(self, n, delta, steps, algo_name="history-hash"):
        graph, scheduler = build_weak_nontriviality(n, delta, steps)
        algo = make_algorithm(algo_name)
        trace = run(graph, scheduler, algo)
        return trace, extract_H(trace, graph.ports), algo

    def test_single_edge_three_stages(self):
        trace, ex, _ = self.roundtrip(2, 1, [[(0, 1)]])
        assert trace.horizon == 3
        assert ex.steps == [frozenset({(0, 1)})]
        assert trace.index.phase_at(0, 3) == trace.index.phase_at(1, 3) == 1

    def test_empty_history_still_drives_phases(self):
        trace, ex, _ = self.roundtrip(3, 1, [[], [], []])
        assert trace.horizon == 9
        assert ex.steps == [frozenset()] * 3
        for u in range(3):
            for i in range(3):
                assert trace.index.phase_at(u, 3 * i + 3) == i + 1

    def test_random_histories_roundtrip_with_reference_states(self):
        rng = random.Random(40)
        for _ in range(5):
            n = rng.randint(2, 8)
            k = rng.randint(1, 6)
            steps = random_edge_sets(rng, n, 3, k)
            trace, ex, algo = self.roundtrip(n, 3, steps)
            assert ex.steps == steps
            assert check_correctness(trace, algo, extracted=ex).ok

    def test_degree_violation_rejected(self):
        with pytest.raises(ScenarioError):
            build_weak_nontriviality(3, 1, [[(0, 1), (1, 2)]])


class TestLiveness:
    def test_static_progress_statistics(self):
        trace, _, _ = run_static([(0, 1), (1, 2), (0, 2)], 3, 2, 30)
        report = check_liveness(trace, target=10)
        assert report.ok and report.reached == 10
        assert report.first_stage == [3 * i for i in range(11)]
        assert report.max_stall == 3
        assert report.stall_ok

    def test_unreachable_target_reported(self):
        trace, _, _ = run_static([(0, 1)], 2, 1, 6)
        report = check_liveness(trace, target=50)
        assert not report.ok
        assert report.reached == 2


class TestMutationSelfTest:
    def test_skipping_the_ack_precondition_is_caught(self, monkeypatch):
        """Fault injection: an engine whose pulls always claim the partner
        already acked commits edges one-sidedly under churn. At least one
        seed must trip a verifier; a harness that stays green against this
        mutant would be vacuous."""
        honest_pull = engine_mod.pull_view

        def lying_pull(neighbor, remote_port, neighbor_detector):
            return honest_pull(neighbor, remote_port, neighbor_detector).with_ack(1)

        caught = 0
        for seed in range(10):
            with monkeypatch.context() as m:
                m.setattr(engine_mod, "pull_view", lying_pull)
                trace, ports, algo = run_churn(seed, horizon=60)
            try:
                ex = extract_H(trace, ports)
            except SymmetryViolation:
                caught += 1
                continue
            ok = (
                check_correctness(trace, algo, extracted=ex).ok
                and check_pulled_consistency(trace, algo).ok
                and check_sandwich(trace).ok
                and check_strong_nontriviality(trace, ex).ok
            )
            caught += 0 if ok else 1
        assert caught > 0

    def test_honest_engine_passes_the_same_gauntlet(self):
        for seed in range(10):
            trace, ports, algo = run_churn(seed, horizon=60)
            ex = extract_H(trace, ports)
            assert check_correctness(trace, algo, extracted=ex).ok
            assert check_pulled_consistency(trace, algo).ok
            assert check_sandwich(trace).ok
            assert check_strong_nontriviality(trace, ex).ok


class TestImpossibilityDemo:
    def test_commit_on_propose_forced_into_disagreement(self):
        record = impossibility_demo("commit-on-propose")
        assert record["observer_streams_identical"]
        assert record["observer_decisions_identical"]
        a, b = record["executions"]["A"]["nodes"], record["executions"]["B"]["nodes"]
        assert [row["decision"] for row in a] == [1, 1]
        assert [row["decision"] for row in b] == [1, None]
        assert "violated in B" in record["verdict"]

    def test_never_propose_is_trivially_consistent(self):
        record = impossibility_demo("never-propose")
        assert record["observer_streams_identical"]
        decisions = {
            key: [row["decision"] for row in record["executions"][key]["nodes"]]
            for key in ("A", "B")
        }
        assert decisions == {"A": [0, 0], "B": [0, 0]}
        assert "trivial" in record["verdict"]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ScenarioError):
            impossibility_demo("two-phase-commit")

    def test_handshake_has_no_dilemma_under_extended_model(self):
        record = extended_model_demo()
        a = record["executions"]["A"]["committed_per_phase"]
        b = record["executions"]["B"]["committed_per_phase"]
        assert a[0] == [[0, 1]]  # both endpoints committed the edge
        assert all(step == [] for step in b)  # both endpoints excluded it
        assert record["agreement_consistent"]
