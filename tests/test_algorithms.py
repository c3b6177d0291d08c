import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_run, random_edge_sets
from dynsync.algorithms import (
    DIGEST_SIZE,
    CounterAlgo,
    HistoryHashAlgo,
    MaxFloodAlgo,
    make_algorithm,
    reference_run,
)
from dynsync.tvg import ScenarioError


class TestCounter:
    def test_counts_steps(self):
        algo = CounterAlgo()
        s = algo.init(0)
        for want in (1, 2, 3):
            s = algo.step(s, [])
            assert s == want

    def test_serialization_fixed_width(self):
        algo = CounterAlgo()
        assert algo.serialize(0) == bytes(8)
        assert len(algo.serialize(2**40)) == 8


class TestMaxFlood:
    def test_input_defaults_to_node_index(self):
        algo = MaxFloodAlgo()
        assert algo.init(5) == 5
        assert algo.init(5, 17) == 17

    def test_no_temporal_path_means_no_flood(self):
        # both edges exist only at step 0, so the max at node 2 reaches node 1
        # in that step but node 0 only hears node 1's old value
        algo = MaxFloodAlgo()
        graphs = [frozenset({(0, 1), (1, 2)})]
        ref = reference_run(algo, graphs, 3)
        assert ref.after_step[0][2] == 2
        assert ref.after_step[0][1] == 2
        assert ref.after_step[0][0] == 1  # strictly below the global max

    def test_floods_along_temporal_path(self):
        algo = MaxFloodAlgo()
        graphs = [frozenset({(1, 2)}), frozenset({(0, 1)})]
        ref = reference_run(algo, graphs, 3)
        assert ref.after_step[1][0] == 2


class TestHistoryHash:
    def test_digest_size_constant(self):
        algo = HistoryHashAlgo()
        s = algo.init(3)
        assert len(s) == DIGEST_SIZE
        assert len(algo.step(s, [algo.init(1)])) == DIGEST_SIZE

    def test_genesis_is_anonymous(self):
        # identical start everywhere: no node index, no input leaks in
        algo = HistoryHashAlgo()
        assert algo.init(0) == algo.init(7) == algo.init(0, value=99)

    def test_divergent_histories_divergent_digests(self):
        algo = HistoryHashAlgo()
        g = algo.init(0)
        assert algo.step(g, [g]) != algo.step(g, [])
        assert algo.step(g, [g]) != algo.step(g, [g, g])

    def test_neighbor_order_is_canonicalized(self):
        algo = HistoryHashAlgo()
        own = algo.init(0)
        others = [algo.init(i) for i in (1, 2, 3)]
        fwd = algo.step(own, algo.sort_states(others))
        rev = algo.step(own, algo.sort_states(list(reversed(others))))
        assert fwd == rev


class TestRegistry:
    @pytest.mark.parametrize("name", ["counter", "max-flood", "history-hash"])
    def test_known_names(self, name):
        assert make_algorithm(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError):
            make_algorithm("paxos")


class TestReferenceRun:
    def test_initial_state_is_step_minus_one(self):
        algo = MaxFloodAlgo()
        ref = reference_run(algo, [frozenset()], 2, inputs=[7, 9])
        assert ref.initial[0] == 7
        assert ref.after_step[0][1] == 9

    def test_agrees_with_brute_force_on_random_instances(self):
        # independent executors, byte-level agreement
        rng = random.Random(5)
        for trial in range(40):
            n = rng.randint(2, 6)
            k = rng.randint(1, 4)
            algo = make_algorithm(rng.choice(["counter", "max-flood", "history-hash"]))
            graphs = random_edge_sets(rng, n, rng.randint(1, 3), k)
            ref = reference_run(algo, graphs, n)
            brute = brute_force_run(algo, graphs, n)
            for i in range(k):
                for u in range(n):
                    assert algo.serialize(ref.after_step[i][u]) == algo.serialize(brute[i][u]), (
                        f"trial {trial} node {u} step {i}"
                    )


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), algo_name=st.sampled_from(["max-flood", "history-hash"]))
def test_property_relabeling_nodes_relabels_states(seed, algo_name):
    """Renaming nodes commutes with execution: the algorithms only see state
    multisets, never identities."""
    rng = random.Random(seed)
    n, k = rng.randint(2, 6), rng.randint(1, 4)
    algo = make_algorithm(algo_name)
    graphs = random_edge_sets(rng, n, 2, k)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = [
        frozenset((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g) for g in graphs
    ]
    inputs = [rng.randint(0, 50) for _ in range(n)]
    base = reference_run(algo, graphs, n, inputs=inputs)
    moved = reference_run(algo, relabeled, n, inputs=[inputs[perm.index(u)] for u in range(n)])
    last, moved_last = base.after_step[k - 1], moved.after_step[k - 1]
    for u in range(n):
        assert algo.serialize(last[u]) == algo.serialize(moved_last[perm[u]])
