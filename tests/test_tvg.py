import copy
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynsync.tvg as tvg_mod
from conftest import random_edge_sets, reference_ports
from dynsync.cli import ScenarioConfig
from dynsync.tvg import (
    ScenarioError,
    TimeVaryingGraph,
    assign_ports,
    disconnections_at,
    edge,
    generate,
    normalize_edges,
    port_step,
)


def churn(n=6, delta=2, seed=7, t_max=100, p_drop=0.5, p_add=0.5):
    return generate(n, delta, t_max, seed=seed, p_drop=p_drop, p_add=p_add)


class TestEdges:
    def test_edge_normalizes_order(self):
        assert edge(3, 1) == (1, 3)
        assert edge(1, 3) == (1, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ScenarioError):
            edge(2, 2)

    def test_normalize_edges_dedupes(self):
        assert normalize_edges([[0, 1], [1, 0]]) == frozenset({(0, 1)})


class TestGraphValidation:
    def test_node_out_of_range_rejected(self):
        with pytest.raises(ScenarioError):
            TimeVaryingGraph(3, 2, (frozenset({(0, 3)}),))

    def test_degree_bound_violation_rejected(self):
        # node 1 has degree 2 but delta is 1
        star = frozenset({(0, 1), (1, 2)})
        with pytest.raises(ScenarioError):
            TimeVaryingGraph(3, 1, (star,))

    def test_each_distinct_stage_is_checked_once(self, monkeypatch):
        ok, star = frozenset({(0, 1)}), frozenset({(0, 1), (1, 2)})
        with pytest.raises(ScenarioError, match=r"^stage 2: node 1 has degree 2 > delta 1$"):
            TimeVaryingGraph(3, 1, (ok, frozenset({(0, 1)}), star, ok))
        # a repeated edge set is named at its first stage
        with pytest.raises(ScenarioError, match=r"^stage 1: node 1 has degree 2 > delta 1$"):
            TimeVaryingGraph(3, 1, (ok, star, star))
        checked = []
        monkeypatch.setattr(tvg_mod, "_validate_edge_set", lambda *args: checked.append(args[3]))
        TimeVaryingGraph(3, 1, (ok,) * 5 + (frozenset({(1, 2)}), ok))
        assert checked == [0, 5]

    def test_stage_past_lifetime_rejected(self):
        g = TimeVaryingGraph(2, 1, (frozenset(), frozenset({(0, 1)})))
        assert g.lifetime == 2
        assert g.neighbors_at(1, 0) == {1}
        for t in (-1, 2):
            with pytest.raises(IndexError):
                g.neighbors_at(t, 0)

    def test_neighbors_at(self):
        g = TimeVaryingGraph(3, 2, (frozenset({(0, 1), (1, 2)}),))
        assert g.neighbors_at(0, 1) == {0, 2}
        assert g.neighbors_at(0, 0) == {1}


class TestGenerate:
    def test_churn_respects_degree_bound_everywhere(self):
        g = churn()
        for t in range(100):
            degree = [0] * 6
            for u, v in g.stages[t]:
                degree[u] += 1
                degree[v] += 1
            assert max(degree) <= 2, f"stage {t} breaks the bound"

    def test_churn_deterministic_in_seed(self):
        assert churn(seed=9).stages == churn(seed=9).stages
        assert churn(seed=9).stages != churn(seed=10).stages

    def test_churn_actually_churns(self):
        g = churn()
        assert len({s for s in g.stages}) > 10

    def test_scripted_length_must_match(self):
        config = ScenarioConfig.from_dict(
            {
                "n": 2,
                "delta": 1,
                "horizon": 2,
                "dynamics": {"kind": "scripted", "stages": [[]]},
                "scheduler": {"kind": "all-active"},
                "algorithm": {"name": "counter"},
            }
        )
        with pytest.raises(ScenarioError, match="scripted dynamics has 1 stages, horizon wants 2"):
            config.build_graph()

    def test_bad_probability_rejected(self):
        with pytest.raises(ScenarioError, match="p_drop must be in"):
            generate(2, 1, 5, seed=0, p_drop=1.5, p_add=0.0)


def reference_generate(n, delta, t_max, *, seed, p_drop, p_add, initial=()):
    """The stages of ``generate`` as its docstring states them: one coin per
    edge of the stage before, in sorted order, for the drops, then every pair
    tested for membership and one coin per non-edge, in sorted order, for the
    adds."""
    rng = random.Random(seed)
    stages = [normalize_edges(initial)]
    for _ in range(1, t_max):
        kept = {e for e in sorted(stages[-1]) if rng.random() >= p_drop}
        degree = [0] * n
        for u, v in kept:
            degree[u] += 1
            degree[v] += 1
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in kept:
                    continue
                if rng.random() < p_add and degree[u] < delta and degree[v] < delta:
                    kept.add((u, v))
                    degree[u] += 1
                    degree[v] += 1
        stages.append(frozenset(kept))
    return tuple(stages)


def valid_initial(data, n, delta):
    """A drawn edge set within the degree bound, some pairs given as (v, u)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    degree = [0] * n
    initial = []
    for u, v in chosen:
        if degree[u] < delta and degree[v] < delta:
            degree[u] += 1
            degree[v] += 1
            initial.append([v, u] if data.draw(st.booleans()) else [u, v])
    return initial


PROBABILITY = st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0))


class TestGenerateReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        delta=st.integers(1, 4),
        t_max=st.integers(1, 30),
        seed=st.integers(0, 2**32),
        p_drop=PROBABILITY,
        p_add=PROBABILITY,
        data=st.data(),
    )
    def test_property_equals_the_per_pair_reference(
        self, n, delta, t_max, seed, p_drop, p_add, data
    ):
        initial = valid_initial(data, n, delta)
        args = dict(seed=seed, p_drop=p_drop, p_add=p_add, initial=initial)
        assert generate(n, delta, t_max, **args).stages == reference_generate(
            n, delta, t_max, **args
        )

    def test_churn_wide_size_equals_the_reference(self):
        initial = random_edge_sets(random.Random(64), 64, 4, 1)[0]
        args = dict(seed=17, p_drop=0.2, p_add=0.2, initial=initial)
        g = generate(64, 4, 100, **args)
        assert g.stages == reference_generate(64, 4, 100, **args)
        assert len(set(g.stages)) == 100  # every stage differs from the others

    @pytest.mark.parametrize("n, delta", [(128, 1), (128, 2), (160, 2)])
    def test_saturated_rows_equal_the_reference(self, n, delta):
        # p_add = 1 fills every row that can fill, so most rows skip their
        # coins, from a dense start and from an empty one
        initial = random_edge_sets(random.Random(n + delta), n, delta, 1, p=0.9)[0]
        for p_drop, start in ((0.1, initial), (0.5, initial), (0.3, ())):
            args = dict(seed=n * delta, p_drop=p_drop, p_add=1, initial=start)
            want = reference_generate(n, delta, 4, **args)
            assert generate(n, delta, 4, **args).stages == want

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**32 + 5])
    def test_getrandbits_of_64k_bits_consumes_k_coins(self, seed):
        # the row skip rests on this: random() reads two 32-bit words and
        # getrandbits(64 * k) reads 2k
        for k in range(71):
            coins, skipped = random.Random(seed), random.Random(seed)
            for _ in range(k):
                coins.random()
            skipped.getrandbits(64 * k)
            assert skipped.random() == coins.random(), k

    def test_coins_drawn_one_by_one_are_few_and_the_rest_are_skipped(self, monkeypatch):
        class Counting(random.Random):
            coins = bits = 0

            def random(self):
                Counting.coins += 1
                return super().random()

            def getrandbits(self, k):
                Counting.bits += k
                return super().getrandbits(k)

        monkeypatch.setattr(tvg_mod, "random", types.SimpleNamespace(Random=Counting))
        n, t_max = 256, 10
        args = dict(seed=3, p_drop=0.2, p_add=0.2)
        g = generate(n, 4, t_max, **args)
        assert Counting.coins < 0.15 * (n * (n - 1) // 2) * (t_max - 1)
        assert Counting.bits % 64 == 0  # whole coins only
        assert g.stages == reference_generate(n, 4, t_max, **args)


class TestPorts:
    def test_graph_builds_its_ports_once(self):
        g = churn(seed=5, t_max=30)
        assert g.ports is g.ports
        assert g.ports.by_stage == assign_ports(g).by_stage

    def test_ports_in_range_and_consistent(self):
        g = churn()
        ports = assign_ports(g)
        for t in range(g.lifetime):
            for u in range(g.n):
                occ = ports.occupied(t, u)
                assert all(0 <= p < g.delta for p in occ)
                assert set(occ.values()) == g.neighbors_at(t, u)
                for p, v in occ.items():
                    assert ports.occupied(t, v)[ports.port_of(t, v, u)] == u
                    assert ports.port_of(t, u, v) == p

    def test_persisting_edge_keeps_its_ports(self):
        g = churn(seed=13)
        ports = assign_ports(g)
        for t in range(1, g.lifetime):
            for e in g.stages[t - 1] & g.stages[t]:
                u, v = e
                assert ports.port_of(t, u, v) == ports.port_of(t - 1, u, v)
                assert ports.port_of(t, v, u) == ports.port_of(t - 1, v, u)

    def test_new_neighbors_take_lowest_free_ports_in_index_order(self):
        stages = (
            frozenset({(0, 3)}),
            frozenset({(0, 1), (0, 2), (0, 3)}),
        )
        ports = assign_ports(TimeVaryingGraph(4, 3, stages))
        # node 3 held port 0 at stage 0 and keeps it; 1 and 2 arrive together
        # and fill the remaining ports in ascending node order
        assert ports.occupied(1, 0) == {0: 3, 1: 1, 2: 2}

    def test_vacated_port_is_reusable(self):
        stages = (
            frozenset({(0, 1)}),
            frozenset(),
            frozenset({(0, 2)}),
        )
        ports = assign_ports(TimeVaryingGraph(3, 1, stages))
        assert ports.occupied(0, 0) == {0: 1}
        assert ports.occupied(2, 0) == {0: 2}


@pytest.fixture(scope="module")
def seeded_graphs():
    """200 seeded churn graphs: n from 1, delta from 1, and each of p_drop
    and p_add cycling through 0, 1 and a random value."""
    rng = random.Random(20)
    graphs = []
    for i in range(200):
        n, delta = rng.randint(1, 9), rng.randint(1, 4)
        p_drop = (0, 1, rng.random())[i % 3]
        p_add = (0, 1, rng.random())[i // 3 % 3]
        initial = random_edge_sets(rng, n, delta, 1, p=0.6)[0]
        graphs.append(
            generate(
                n, delta, rng.randint(1, 30), seed=i, p_drop=p_drop, p_add=p_add, initial=initial
            )
        )
    assert {1} < {g.n for g in graphs} and {1} < {g.delta for g in graphs}
    return graphs


class TestIncrementalPorts:
    def test_equal_the_per_node_reference(self, seeded_graphs):
        for g in seeded_graphs:
            assert assign_ports(g).by_stage == reference_ports(g)

    def test_port_of_equals_a_scan_of_the_map(self, seeded_graphs):
        for g in seeded_graphs:
            ports, reference = g.ports, reference_ports(g)
            for t in range(g.lifetime):
                for u in range(g.n):
                    for v in range(g.n):
                        found = [p for p, w in reference[t][u].items() if w == v]
                        if found:
                            assert ports.port_of(t, u, v) == found[0]
                        else:
                            with pytest.raises(KeyError) as info:
                                ports.port_of(t, u, v)
                            assert info.value.args == (f"stage {t}: node {u} has no port for {v}",)

    def test_disconnections_equal_their_definition(self, seeded_graphs):
        # ports whose edge was present at t-1 and is gone at t, both as
        # disconnections_at gives them and as the fold recorded them: sorted
        # tuples, only for the nodes that lost a port, in node order
        for g in seeded_graphs:
            reference = reference_ports(g)
            assert disconnections_at(g, 0) == [set() for _ in range(g.n)]
            assert g.ports.dropped[0] == {}
            for t in range(1, g.lifetime):
                want = [
                    {p for p, w in reference[t - 1][u].items() if edge(u, w) not in g.stages[t]}
                    for u in range(g.n)
                ]
                assert disconnections_at(g, t) == want
                recorded = g.ports.dropped[t]
                assert recorded == {u: tuple(sorted(ports)) for u, ports in enumerate(want) if ports}
                assert list(recorded) == sorted(recorded)
            assert len(g.ports.dropped) == g.lifetime

    def test_the_fold_of_port_step_is_the_assignment_and_leaves_its_inputs(self, seeded_graphs):
        for g in seeded_graphs:
            maps, inverse = [{} for _ in range(g.n)], [{} for _ in range(g.n)]
            prev, before = frozenset(), copy.deepcopy((maps, inverse))
            for t, edges in enumerate(g.stages):
                step = port_step(maps, inverse, prev, edges, g.delta)
                assert (maps, inverse) == before
                maps, inverse, dropped = step
                before, prev = copy.deepcopy((maps, inverse)), edges
                assert (maps, inverse, dropped) == (
                    g.ports.by_stage[t], g.ports.inverse[t], g.ports.dropped[t]
                )

    def test_more_new_neighbors_than_free_ports_is_named(self):
        maps, inverse = [{} for _ in range(4)], [{} for _ in range(4)]
        before = copy.deepcopy((maps, inverse))
        star = frozenset({(0, 1), (0, 2)})
        named = r"^node 0 has no free port for new neighbor 2: delta is 1$"
        with pytest.raises(ScenarioError, match=named):
            port_step(maps, inverse, frozenset(), star, 1)
        assert (maps, inverse) == before
        # a held port counts: node 1 keeps port 0 for node 0 and has one left
        maps, inverse, _ = port_step(maps, inverse, frozenset(), frozenset({(0, 1)}), 2)
        held, fan = frozenset({(0, 1)}), frozenset({(1, 2), (1, 3)})
        named = r"^node 1 has no free port for new neighbor 3: delta is 2$"
        with pytest.raises(ScenarioError, match=named):
            port_step(maps, inverse, held, held | fan, 2)
        # a port freed at this stage is free again
        maps, _, dropped = port_step(maps, inverse, held, fan, 2)
        assert dropped == {0: (0,), 1: (0,)} and maps[1] == {0: 2, 1: 3}

    def test_static_graph_holds_one_map_per_node(self):
        edges = frozenset({(0, 1), (1, 2), (0, 3)})
        g = TimeVaryingGraph(5, 2, (edges,) * 40)
        for t in range(g.lifetime):
            for u in range(g.n):
                assert g.ports.occupied(t, u) is g.ports.occupied(0, u)
                assert g.ports.inverse[t][u] is g.ports.inverse[0][u]

    def test_unchanged_nodes_share_the_previous_map(self):
        stages = (frozenset({(0, 1), (2, 3)}), frozenset({(0, 1), (2, 4)}))
        ports = assign_ports(TimeVaryingGraph(5, 2, stages))
        assert ports.occupied(1, 0) is ports.occupied(0, 0)
        assert ports.occupied(1, 1) is ports.occupied(0, 1)
        assert ports.occupied(1, 2) is not ports.occupied(0, 2)
        assert ports.occupied(0, 2) == {0: 3} and ports.occupied(1, 2) == {0: 4}


class TestDisconnections:
    def test_boundary_drop_reported_once(self):
        stages = (frozenset({(0, 1)}), frozenset(), frozenset())
        g = TimeVaryingGraph(2, 1, stages)
        assert disconnections_at(g, 0) == [set(), set()]
        assert disconnections_at(g, 1) == [{0}, {0}]
        assert disconnections_at(g, 2) == [set(), set()]

    def test_matches_presence_delta_on_churn(self):
        g = churn(seed=21, t_max=60)
        ports = g.ports
        for t in range(1, 60):
            drops = disconnections_at(g, t)
            gone = g.stages[t - 1] - g.stages[t]
            expect = [set() for _ in range(g.n)]
            for u, v in gone:
                expect[u].add(ports.port_of(t - 1, u, v))
                expect[v].add(ports.port_of(t - 1, v, u))
            assert drops == expect


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    delta=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    p_drop=st.floats(0.0, 1.0),
    p_add=st.floats(0.0, 1.0),
)
def test_property_churn_all_invariants(n, delta, seed, p_drop, p_add):
    """Degree bound, port stability, and drop accounting hold for any churn
    parameters, not just the tuned ones."""
    g = generate(n, delta, 25, seed=seed, p_drop=p_drop, p_add=p_add)
    ports = assign_ports(g)
    for t in range(25):
        degree = [0] * n
        for u, v in g.stages[t]:
            degree[u] += 1
            degree[v] += 1
        assert max(degree, default=0) <= delta
        if t:
            for u, v in g.stages[t - 1] & g.stages[t]:
                assert ports.port_of(t, u, v) == ports.port_of(t - 1, u, v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_assignment_is_a_matching_to_ports(seed):
    rng = random.Random(seed)
    n, delta = rng.randint(2, 7), rng.randint(1, 3)
    g = generate(n, delta, 20, seed=seed, p_drop=0.3, p_add=0.5)
    ports = assign_ports(g)
    for t in range(20):
        for u in range(n):
            occ = ports.occupied(t, u)
            # injective both ways: one neighbor per port, one port per neighbor
            assert len(set(occ.values())) == len(occ)
