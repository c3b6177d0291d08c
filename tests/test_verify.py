import functools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynsync.engine as engine_mod
from conftest import random_edge_sets
from dynsync.algorithms import make_algorithm
from dynsync.cli import build_weak_nontriviality, bundled_scenarios, execute_scenario, load_config
from dynsync.demo import extended_model_demo, impossibility_demo
from dynsync.engine import run
from dynsync.trace import RunTrace, SchedulerPolicy
from dynsync.tvg import ScenarioError, TimeVaryingGraph, edge, generate
from dynsync.verify import (
    ExtractedSynch,
    SymmetryViolation,
    check_trace,
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


def reference_extract(trace, ports=None):
    """extract_H's docstring by brute force over the event list. Node u's
    i-th execute commits phase i, and the nodes its committed_map names;
    the map's ports must be the execute's committed list; every init
    handshake carries a port_map, as the trace index requires; every commit
    must be mutual between nodes that both completed the phase; with ports,
    every port_map, its pairs sorted, equals the assignment's; each phase up
    to the minimum completed count is the set of committed edges, no node
    above the degree bound."""
    n, delta = trace.n, trace.header["delta"]
    executes = [
        [ev for ev in trace.events if ev.get("action") == "execute" and ev["node"] == u]
        for u in range(n)
    ]
    completed = [len(evs) for evs in executes]
    for i, ev in enumerate(trace.events):
        if ev.get("branch") == "init" and "port_map" not in ev:
            raise ScenarioError(f"trace event {i} has no 'port_map' key")
        if ev.get("action") == "execute":
            mapped = [p for p, _ in ev["committed_map"]]
            if mapped != ev["committed"]:
                raise ScenarioError(
                    f"node {ev['node']} phase {ev['phase']}: committed_map ports {mapped} "
                    f"are not the committed ports {ev['committed']}"
                )

    def partners(u, i):
        return [v for _, v in executes[u][i]["committed_map"]]

    for u in range(n):
        for i in range(completed[u]):
            for v in partners(u, i):
                if i < completed[v] and u not in partners(v, i):
                    raise SymmetryViolation(
                        f"phase {i}: node {u} committed the edge to {v}, node {v} did not"
                    )
    if ports is not None:
        for ev in trace.events:
            if ev.get("branch") == "init":
                t, u = ev["t"], ev["node"]
                if ev["port_map"] != sorted([p, v] for p, v in ports.by_stage[t][u].items()):
                    raise ScenarioError(
                        f"stage {t}: trace port map for node {u} disagrees with assignment"
                    )
    steps = []
    for i in range(min(completed)):
        edges = frozenset(edge(u, v) for u in range(n) for v in partners(u, i))
        for u in range(n):
            if sum(u in e for e in edges) > delta:
                raise ScenarioError(f"phase {i}: committed graph exceeds degree bound {delta}")
        steps.append(edges)
    return ExtractedSynch(steps=steps, completed=completed)


def extraction_outcome(extract, trace, ports):
    try:
        return extract(trace, ports)
    except (SymmetryViolation, ScenarioError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def forged_runs(draw):
    """A scripted run of up to 5 nodes and 14 stages, then, maybe, one forged
    execute or init: a committed neighbor dropped or added (the node itself
    included) with its port in ``committed`` and ``pulled`` too, a port
    added to the committed_map alone, or a port_map removed or reversed."""
    n = draw(st.integers(1, 5))
    delta = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    stages = []
    for _ in range(horizon):
        degree = [0] * n
        chosen = set()
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
            if degree[u] < delta and degree[v] < delta:
                degree[u] += 1
                degree[v] += 1
                chosen.add((u, v))
        stages.append(frozenset(chosen))
    script = tuple(tuple(draw(st.sets(st.integers(0, n - 1)))) for _ in range(horizon))
    graph = TimeVaryingGraph(n, delta, tuple(stages))
    trace = run(graph, SchedulerPolicy(kind="scripted", script=script), make_algorithm("counter"))
    executes = [ev for ev in trace.events if ev.get("action") == "execute"]
    inits = [ev for ev in trace.events if ev.get("branch") == "init"]
    forge = draw(st.sampled_from(["none", "drop", "add", "map_only", "port_map"]))
    if forge == "drop" and any(ev["committed_map"] for ev in executes):
        ev = draw(st.sampled_from([ev for ev in executes if ev["committed_map"]]))
        at = draw(st.integers(0, len(ev["committed_map"]) - 1))
        del ev["committed_map"][at], ev["committed"][at], ev["pulled"][at]
    elif forge in ("add", "map_only") and executes:
        ev = draw(st.sampled_from(executes))
        port = draw(st.integers(0, delta))
        ev["committed_map"].append([port, draw(st.integers(0, n - 1))])
        if forge == "add":
            ev["committed"].append(port)
            ev["pulled"].append([port, ev["state"]])
    elif forge == "port_map" and inits:
        ev = draw(st.sampled_from(inits))
        if len(ev["port_map"]) > 1:
            ev["port_map"].reverse()
        else:
            del ev["port_map"]
    return trace, graph.ports


class TestExtractReference:
    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_bundled_scenarios(self, name):
        config = load_config(name)
        graph = config.build_graph()
        algo, inputs = config.build_algorithm()
        trace = run(graph, config.build_scheduler(), algo, inputs=inputs)
        assert extract_H(trace, graph.ports) == reference_extract(trace, graph.ports)
        assert extract_H(trace) == reference_extract(trace)

    @settings(max_examples=150, deadline=None)
    @given(case=forged_runs(), with_ports=st.booleans())
    def test_drawn_and_forged_runs(self, case, with_ports):
        trace, ports = case
        ports = ports if with_ports else None
        got = extraction_outcome(extract_H, trace, ports)
        assert got == extraction_outcome(reference_extract, trace, ports)

    def test_committed_map_naming_the_node_itself_is_a_named_error(self):
        trace, ports, _ = run_static([(0, 1)], 2, 2, 9)
        # mutual with node 1 still, so only the self-loop is wrong
        trace.index.executes[0][0]["committed_map"].append([1, 0])
        with pytest.raises(ScenarioError, match=r"^self-loop at node 0$"):
            extract_H(trace, ports)
        verdict = check_trace(trace, {"correctness": True}, ports)
        assert verdict.extracted is None
        assert [tuple(r) for r in verdict] == [
            ("extraction", False, "self-loop at node 0"),
            ("correctness", False, "history extraction failed: self-loop at node 0"),
        ]


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


@functools.cache
def static_triangle_lines():
    return execute_scenario(load_config("static_triangle")).trace.to_jsonl().decode().splitlines()


def forge_state(header, executes):
    ev = executes[1][1]
    want = ev["state"]
    ev["state"] = ("1" if want[0] == "0" else "0") + want[1:]
    return "correctness", f"node 1 phase 1: got {ev['state']}, reference {want}; "


def forge_valid(header, executes):
    ev = executes[0][0]
    ev["valid"] = ev["phase_drops"] = []
    detail = f"node 0 phase 0: committed {sorted(ev['committed'])} outside valid"
    return "correctness", f"states byte-equal over 10 phases; {detail}"


def forge_missing_edge(header, executes):
    # both endpoints drop the edge, so extraction still agrees on phase 0
    for u, v in ((0, 1), (1, 0)):
        ev = executes[u][0]
        ev["committed_map"] = [[p, w] for p, w in ev["committed_map"] if w != v]
        ev["committed"] = [p for p, _ in ev["committed_map"]]
        ev["pulled"] = [entry for entry in ev["pulled"] if entry[0] in ev["committed"]]
    return "strong-nontriviality", "missing [(0, 1, 0)] extra []"


def forge_degree_bound(header, executes):
    header["delta"] = 1
    return "extraction", "phase 0: committed graph exceeds degree bound 1"


@pytest.mark.parametrize(
    "forge", [forge_state, forge_valid, forge_missing_edge, forge_degree_bound]
)
def test_a_failed_check_names_what_failed(forge):
    """Each failure detail check_trace reports, on a forged copy of the
    bundled static_triangle trace."""
    header, *rows = map(json.loads, static_triangle_lines())
    executes = [[] for _ in range(header["n"])]
    for ev in rows:
        if ev.get("action") == "execute":
            executes[ev["node"]].append(ev)
    name, detail = forge(header, executes)
    trace = RunTrace.from_jsonl("\n".join(map(json.dumps, [header, *rows])).encode())
    checks = {"correctness": True} if name == "extraction" else {name: True}
    result = next(r for r in check_trace(trace, checks) if r.name == name)
    assert not result.ok
    # a forged state also makes its neighbors' snapshots of it stale
    assert result.detail.startswith(detail), result.detail


LIVENESS_TAKES = "liveness check takes false or a non-negative integer target"


@pytest.mark.parametrize(
    "checks, message",
    [
        ({"liveness": "3"}, f"{LIVENESS_TAKES}, got '3'"),
        ({"liveness": True}, f"{LIVENESS_TAKES}, got True"),
        (2.5, "checks must be an object"),
        (None, "checks must be an object"),
        ({"bogus": True}, "unknown checks: ['bogus']"),
        ({"fairness": "yes"}, "fairness check takes a boolean, got 'yes'"),
        ({"correctness": 1}, "correctness check takes a boolean, got 1"),
    ],
)
def test_a_bad_check_request_is_named(checks, message):
    trace = RunTrace.from_jsonl("\n".join(static_triangle_lines()).encode())
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        check_trace(trace, checks)


def test_a_snapshot_of_a_partner_short_of_the_phase_is_a_failure():
    """Node 0's phase-1 commit redirected to node 2, which never acts, has
    no boundary state of node 2 to compare the snapshot with."""
    graph = TimeVaryingGraph(3, 2, (frozenset({(0, 1)}),) * 12)
    algo = make_algorithm("counter")
    trace = run(graph, SchedulerPolicy(kind="scripted", script=((0, 1),) * 12), algo)
    ev = trace.index.executes[0][1]
    assert ev["committed_map"] == [[0, 1]] and ev["pulled"][0][0] == 0
    ev["committed_map"] = [[0, 2]]
    report = check_pulled_consistency(trace, algo)
    assert report.failures == [
        "node 0 phase 1 port 0: partner 2 has no recorded boundary for the prior phase"
    ]


class TestMutationSelfTest:
    def test_skipping_the_ack_precondition_is_caught(self, monkeypatch):
        """Fault injection: an engine whose reads always claim the partner
        already acked, in every pulled view and every ack read alone,
        commits edges one-sidedly under churn. Every seed's trace must
        differ from the honest run's, and at least one seed must trip a
        verifier; a harness that stays green against this mutant would be
        vacuous."""
        honest_pull = engine_mod.pull_view

        def lying_pull(neighbor, remote_port, neighbor_detector):
            return honest_pull(neighbor, remote_port, neighbor_detector).with_ack(1)

        caught = 0
        for seed in range(10):
            honest, _, _ = run_churn(seed, horizon=60)
            with monkeypatch.context() as m:
                m.setattr(engine_mod, "pull_view", lying_pull)
                m.setattr(engine_mod, "pull_ack", lambda neighbor, remote_port: 1)
                trace, ports, algo = run_churn(seed, horizon=60)
            assert trace.events != honest.events
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
