import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsync.cli import ScenarioConfig
from dynsync.tvg import (
    ScenarioError,
    TimeVaryingGraph,
    assign_ports,
    disconnections_at,
    edge,
    generate,
    normalize_edges,
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

    def test_stage_past_lifetime_rejected(self):
        g = TimeVaryingGraph(2, 1, (frozenset(), frozenset({(0, 1)})))
        assert g.lifetime == 2
        assert g.edges_at(1) == frozenset({(0, 1)})
        with pytest.raises(IndexError):
            g.edges_at(2)

    def test_neighbors_at(self):
        g = TimeVaryingGraph(3, 2, (frozenset({(0, 1), (1, 2)}),))
        assert g.neighbors_at(0, 1) == {0, 2}
        assert g.neighbors_at(0, 0) == {1}


class TestGenerate:
    def test_churn_respects_degree_bound_everywhere(self):
        g = churn()
        for t in range(100):
            degree = [0] * 6
            for u, v in g.edges_at(t):
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
                    assert ports.node_behind(t, u, p) == v
                    assert ports.port_of(t, u, v) == p

    def test_persisting_edge_keeps_its_ports(self):
        g = churn(seed=13)
        ports = assign_ports(g)
        for t in range(1, g.lifetime):
            for e in g.edges_at(t - 1) & g.edges_at(t):
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
            gone = g.edges_at(t - 1) - g.edges_at(t)
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
        for u, v in g.edges_at(t):
            degree[u] += 1
            degree[v] += 1
        assert max(degree, default=0) <= delta
        if t:
            for u, v in g.edges_at(t - 1) & g.edges_at(t):
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
