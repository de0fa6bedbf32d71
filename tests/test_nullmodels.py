"""Random-graph generators, degree-preserving rewiring, assessment rule."""

import random

import pytest

from lexnet.errors import (
    BadLatticeDegreeError,
    DegenerateGraphError,
    TooFewEdgesError,
    TooManyEdgesError,
)
from lexnet.graph import digraph_from_ugraph
from lexnet.metrics import global_clustering, rich_club_members
from lexnet.nullmodels import (
    AssessmentThresholds,
    degree_preserving_rewire,
    erdos_renyi_gnm,
    watts_strogatz,
)

from conftest import assess, degree_multiset, make_ugraph, random_ugraph


class TestErdosRenyi:
    def test_maximal_m_is_complete(self):
        ug = erdos_renyi_gnm(5, 10, seed=1)
        assert ug.edge_count == 10
        assert all(ug.degree(v) == 4 for v in ug.node_ids())

    def test_zero_edges(self):
        assert erdos_renyi_gnm(5, 0, seed=1).edge_count == 0

    def test_deterministic(self):
        a = erdos_renyi_gnm(52, 200, seed=9)
        b = erdos_renyi_gnm(52, 200, seed=9)
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        a = erdos_renyi_gnm(52, 200, seed=9)
        b = erdos_renyi_gnm(52, 200, seed=10)
        assert list(a.edges()) != list(b.edges())

    def test_exact_edge_count_across_seeds(self):
        for seed in range(50):
            assert erdos_renyi_gnm(12, 17, seed).edge_count == 17

    def test_too_many_edges(self):
        with pytest.raises(TooManyEdgesError):
            erdos_renyi_gnm(4, 7, seed=0)


class TestWattsStrogatz:
    def test_pure_lattice_transitivity(self):
        ug = watts_strogatz(10, 4, 0.0, seed=0)
        assert global_clustering(ug).transitivity == pytest.approx(0.5, abs=1e-12)

    def test_full_rewiring_preserves_edge_count(self):
        ug = watts_strogatz(20, 4, 1.0, seed=3)
        assert ug.edge_count == 20 * 4 // 2
        assert sum(ug.degree(v) for v in ug.node_ids()) == 20 * 4

    def test_cycle_is_triangle_free(self):
        ug = watts_strogatz(6, 2, 0.0, seed=0)
        assert global_clustering(ug).transitivity == 0.0

    def test_bad_lattice_degree(self):
        with pytest.raises(BadLatticeDegreeError):
            watts_strogatz(10, 3, 0.1, seed=0)
        with pytest.raises(BadLatticeDegreeError):
            watts_strogatz(10, 10, 0.1, seed=0)

    def test_deterministic(self):
        a = watts_strogatz(30, 6, 0.2, seed=5)
        b = watts_strogatz(30, 6, 0.2, seed=5)
        assert list(a.edges()) == list(b.edges())

    def test_edge_count_invariant_for_all_p(self):
        for p in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
            for seed in range(5):
                ug = watts_strogatz(17, 6, p, seed=seed)
                assert ug.edge_count == 17 * 6 // 2


class TestRewire:
    def test_degree_sequence_preserved(self):
        rng = random.Random(21)
        for _ in range(50):
            ug = random_ugraph(rng, rng.randint(4, 12))
            if ug.edge_count < 2:
                continue
            rewired = degree_preserving_rewire(ug, 10 * ug.edge_count, seed=rng.randrange(10**6))
            for v in ug.node_ids():
                assert rewired.degree(v) == ug.degree(v)
            assert rewired.edge_count == ug.edge_count

    def test_complete_graph_unchanged(self):
        ug = make_ugraph("abcde", [(a, b) for a in "abcde" for b in "abcde" if a < b])
        rewired = degree_preserving_rewire(ug, 100, seed=4)
        assert list(rewired.edges()) == list(ug.edges())

    def test_path_swap_outcome(self):
        # path a-b-c-d: the only accepted swap of {a,b} and {c,d} produces
        # {b,d} and {a,c} (the {a,d}/{c,b} pairing duplicates {b,c} and is
        # rejected), keeping the degree multiset {1,1,2,2}
        ug = make_ugraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        for seed in range(100):
            rewired = degree_preserving_rewire(ug, 1, seed=seed)
            assert degree_multiset(rewired) == [1, 1, 2, 2]
            if list(rewired.edges()) != list(ug.edges()):
                assert set(rewired.edges()) == {(0, 2), (1, 2), (1, 3)}
                break
        else:
            pytest.fail("no accepted swap in 100 seeds")

    def test_too_few_edges(self):
        ug = make_ugraph("ab", [("a", "b")])
        with pytest.raises(TooFewEdgesError):
            degree_preserving_rewire(ug, 10, seed=0)

    def test_deterministic(self):
        ug = random_ugraph(random.Random(5), 10, 20)
        a = degree_preserving_rewire(ug, 200, seed=8)
        b = degree_preserving_rewire(ug, 200, seed=8)
        assert list(a.edges()) == list(b.edges())


class TestAssessment:
    def test_fixture_is_concentrated(self, fixture_graph):
        club = rich_club_members(fixture_graph, 5, 6)
        result = assess(fixture_graph, club, samples=25, seed=42)
        assert result.verdict == "concentrated_world"
        assert result.rich_club_present is True

    def test_ws_without_club_is_small_world(self):
        ws = watts_strogatz(52, 6, 0.1, seed=0)
        g = digraph_from_ugraph(ws)
        result = assess(g, None, samples=25, seed=0)
        assert result.verdict == "small_world_like"
        assert result.rich_club_present is False

    def test_er_is_never_concentrated(self):
        for seed in range(10):
            er = erdos_renyi_gnm(52, 156, seed=seed)
            g = digraph_from_ugraph(er)
            club = rich_club_members(g, 5, 6)
            result = assess(g, club, samples=20, seed=seed)
            assert result.verdict in ("sparse_random_like", "inconclusive")

    def test_verdict_is_pure_function_of_inputs(self, fixture_graph):
        club = rich_club_members(fixture_graph, 5, 6)
        a = assess(fixture_graph, club, samples=10, seed=3)
        b = assess(fixture_graph, club, samples=10, seed=3)
        assert a == b

    def test_degenerate(self):
        from lexnet.graph import DiGraph

        g = DiGraph(["a", "b"])
        g.add_edge(0, 1)
        with pytest.raises(DegenerateGraphError):
            assess(g, None, samples=5, seed=0)

    def test_thresholds_are_configurable(self, fixture_graph):
        club = rich_club_members(fixture_graph, 5, 6)
        strict = AssessmentThresholds(degree_fraction=0.99)
        result = assess(
            fixture_graph, club, samples=10, seed=3, thresholds=strict
        )
        assert result.verdict != "concentrated_world"
