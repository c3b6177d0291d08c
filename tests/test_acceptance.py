"""Acceptance gate: one test per stated criterion, each printing a single
pass/fail line. The shared fleet of fifty seeded churn scenarios is built
once and reused by the criteria that quantify over it."""
import dataclasses
import json
import random

import pytest

from conftest import brute_force_run, random_edge_sets
from dynsync.algorithms import make_algorithm, reference_run
from dynsync.cli import EXIT_OK, build_weak_nontriviality, main
from dynsync.demo import extended_model_demo, impossibility_demo
from dynsync.engine import run
from dynsync.trace import SchedulerPolicy
from dynsync.tvg import TimeVaryingGraph, generate
from dynsync.verify import (
    check_correctness,
    check_liveness,
    check_sandwich,
    check_strong_nontriviality,
    extract_H,
)

FLEET_SIZE = 50
HORIZON = 300
LIVENESS_TARGET = 40


@dataclasses.dataclass
class FleetRun:
    seed: int
    n: int
    delta: int
    trace: object
    algo: object
    extracted: object


@pytest.fixture(scope="module")
def fleet():
    """Fifty churn scenarios: n cycles 2..12, delta cycles 1..4, horizon 300,
    weakly fair random-subset scheduler with activation gap bound 8."""
    runs = []
    for s in range(FLEET_SIZE):
        seed = 1000 + s
        n = 2 + (s % 11)
        delta = 1 + (s % 4)
        graph = generate(n, delta, HORIZON, seed=seed, p_drop=0.25, p_add=0.25)
        algo = make_algorithm("history-hash")
        scheduler = SchedulerPolicy(
            kind="random-subset", seed=seed + 1, p_activate=0.6, fairness_bound=8
        )
        trace = run(graph, scheduler, algo)
        runs.append(
            FleetRun(
                seed=seed,
                n=n,
                delta=delta,
                trace=trace,
                algo=algo,
                extracted=extract_H(trace, graph.ports),  # raises loudly on asymmetry
            )
        )
    return runs


def test_criterion_1_correctness_states_byte_equal_across_fleet(fleet):
    compared = 0
    for r in fleet:
        report = check_correctness(r.trace, r.algo, extracted=r.extracted)
        assert report.ok, f"seed {r.seed}: {report.describe()}"
        assert report.compared_phases == min(r.extracted.completed)
        compared += report.compared_phases
    print(
        f"criterion 1 PASS: {len(fleet)} churn scenarios, "
        f"{compared} phase boundaries byte-equal to the synchronous reference"
    )


def test_criterion_2_commit_symmetry_and_sandwich(fleet):
    commits = 0
    for r in fleet:
        # extraction in the fixture already proved two-sidedness; the wait-set
        # sandwich is checked at every phase commit of every node
        report = check_sandwich(r.trace)
        assert report.ok, f"seed {r.seed}: {report.failures[:2]}"
        commits += report.checked
    print(
        f"criterion 2 PASS: 0 symmetry violations, wait-set sandwich held at "
        f"all {commits} phase commits"
    )


def test_criterion_3_strong_nontriviality(fleet):
    rng = random.Random(2024)
    static_cases = 0
    for _ in range(20):
        n = rng.randint(2, 10)
        delta = rng.randint(1, 4)
        edges = random_edge_sets(rng, n, delta, 1)[0]
        graph = TimeVaryingGraph(n, delta, (edges,) * 100)
        scheduler = SchedulerPolicy(
            kind="random-subset",
            seed=rng.randint(0, 10**6),
            p_activate=rng.uniform(0.3, 0.8),
            fairness_bound=rng.randint(2, 8),
        )
        trace = run(graph, scheduler, make_algorithm("history-hash"))
        extracted = extract_H(trace, graph.ports)
        assert extracted.compared_phases > 0
        assert all(step == edges for step in extracted.steps), "static edge set not reproduced"
        assert check_strong_nontriviality(trace, extracted).ok
        static_cases += 1

    churn_pairs = 0
    for r in fleet:
        report = check_strong_nontriviality(r.trace, r.extracted)
        assert report.ok, (
            f"seed {r.seed}: missing={report.missing[:3]} extra={report.extra[:3]}"
        )
        churn_pairs += report.pairs_checked
    print(
        f"criterion 3 PASS: {static_cases} static scenarios committed their full edge set "
        f"every phase; churn oracle agreed on {churn_pairs} pair-phase checks with 0 violations"
    )


def test_criterion_4_weak_nontriviality_roundtrip():
    rng = random.Random(77)
    for case in range(20):
        n = rng.randint(2, 10)
        delta = rng.randint(1, 3)
        k = rng.randint(1, 8)
        steps = random_edge_sets(rng, n, delta, k)
        graph, scheduler = build_weak_nontriviality(n, delta, steps)
        algo = make_algorithm("history-hash")
        trace = run(graph, scheduler, algo)
        extracted = extract_H(trace, graph.ports)
        assert extracted.steps == steps, f"case {case}: history not reproduced"
        for u in range(n):
            for i in range(k):
                assert trace.index.phase_at(u, 3 * i + 3) == i + 1
        assert check_correctness(trace, algo, extracted=extracted).ok
    print(
        "criterion 4 PASS: 20 random edge histories (n<=10, k<=8) round-tripped with "
        "every node at phase i+1 after stage 3i+2 and states matching the reference run"
    )


def test_criterion_5_liveness_and_single_enabled_action(fleet):
    worst = min(len(r.trace.index.phase_starts) - 1 for r in fleet)
    for r in fleet:
        starts = r.trace.index.phase_starts
        assert all(a < b for a, b in zip(starts, starts[1:])), f"seed {r.seed}: regression"
        report = check_liveness(r.trace, LIVENESS_TARGET)
        assert report.ok, f"seed {r.seed}: reached only {report.reached}"
        # the engine evaluates both guards for every node at every stage and
        # raises if they ever agree; the footer proves full coverage
        assert r.trace.footer["guard_checks"] == r.n * HORIZON
    print(
        f"criterion 5 PASS: all {len(fleet)} scenarios reached min phase >= "
        f"{LIVENESS_TARGET} (worst {worst}), min phase monotone, exactly one action "
        f"enabled at every node-stage"
    )


def test_criterion_6_impossibility_demo():
    on_propose = impossibility_demo("commit-on-propose")
    assert on_propose["observer_streams_identical"]
    b_nodes = [row["decision"] for row in on_propose["executions"]["B"]["nodes"]]
    assert b_nodes == [1, None], "expected a one-sided commit in execution B"

    abstainer = impossibility_demo("never-propose")
    assert abstainer["observer_streams_identical"]
    assert all(
        row["decision"] == 0
        for key in ("A", "B")
        for row in abstainer["executions"][key]["nodes"]
    )

    handshake = extended_model_demo()
    assert handshake["executions"]["A"]["committed_per_phase"][0] == [[0, 1]]
    assert all(step == [] for step in handshake["executions"]["B"]["committed_per_phase"])
    assert handshake["agreement_consistent"]
    print(
        "criterion 6 PASS: classic pull protocols face the dilemma on identical "
        "observation streams (one-sided commit or triviality); the ack-block handshake "
        "agrees two-sidedly in both executions"
    )


def test_criterion_7_memory_shape(fleet):
    boundaries = 0
    for r in fleet:
        for u in range(r.n):
            for ev in r.trace.index.executes[u]:
                body = bytes.fromhex(ev["mem_body"])
                phase_bytes = bytes.fromhex(ev["mem_phase"])
                counter = ev["phase"] + 1  # value after the commit
                assert len(body) <= 16 * r.delta + 6
                assert len(body) <= 22 * r.delta  # c*delta form, c = 22
                # bit_length(p) == ceil(log2(p + 1)), so the allowance is 8 bits
                assert 8 * len(phase_bytes) <= counter.bit_length() + 8
                assert int.from_bytes(phase_bytes, "big") == counter
                boundaries += 1
    print(
        f"criterion 7 PASS: synchronizer footprint within 16*delta+6 bytes plus a "
        f"minimal phase counter at all {boundaries} phase boundaries"
    )


def test_criterion_8_bundled_scenarios_deterministic(tmp_path, capsys):
    for name in ("static_triangle", "edge_agreement_cases", "churn_mesh"):
        dirs = (tmp_path / f"{name}-1", tmp_path / f"{name}-2")
        for d in dirs:
            assert main(["run", name, "--out", str(d), "-q"]) == EXIT_OK
        for suffix in (".trace.jsonl", ".h.json", ".report.txt"):
            first = (dirs[0] / f"{name}{suffix}").read_bytes()
            second = (dirs[1] / f"{name}{suffix}").read_bytes()
            assert first == second, f"{name}{suffix} differs between runs"
    capsys.readouterr()  # drop the CLI's own quiet-mode result lines
    print(
        "criterion 8 PASS: all 3 bundled scenarios exit 0 and re-run to "
        "byte-identical traces, histories, and reports"
    )


def test_criterion_9_reference_oracle_and_permutation_invariance():
    rng = random.Random(99)
    instances = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        k = rng.randint(1, 4)
        algo = make_algorithm(rng.choice(["counter", "max-flood", "history-hash"]))
        graphs = random_edge_sets(rng, n, rng.randint(1, 3), k)
        ref = reference_run(algo, graphs, n)
        brute = brute_force_run(algo, graphs, n)
        for i in range(k):
            for u in range(n):
                assert algo.serialize(ref.after_step[i][u]) == algo.serialize(brute[i][u])
        instances += 1

    trials = 0
    algos = [make_algorithm(name) for name in ("counter", "max-flood", "history-hash")]
    for _ in range(1000):
        algo = rng.choice(algos)
        own = algo.init(rng.randint(0, 9), rng.randint(0, 99))
        neighbors = [algo.init(rng.randint(0, 9), rng.randint(0, 99)) for _ in range(rng.randint(0, 5))]
        shuffled = list(neighbors)
        rng.shuffle(shuffled)
        base = algo.step(own, algo.sort_states(neighbors))
        moved = algo.step(own, algo.sort_states(shuffled))
        assert algo.serialize(base) == algo.serialize(moved)
        trials += 1
    print(
        f"criterion 9 PASS: reference runner byte-equal to the brute-force executor on "
        f"{instances} instances; neighbor-order invariance held on {trials} shuffled trials"
    )
