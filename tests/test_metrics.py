"""Degrees, roles, rankings, rich club, clustering, paths, centrality."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexnet.errors import DegenerateGraphError, LexnetError
from lexnet.metrics import (
    Role,
    average_path_length,
    betweenness_scores,
    classify_role,
    degree_centrality,
    degree_profile,
    density,
    global_clustering,
    harmonic_closeness_scores,
    mean_std,
    normalized_rich_club,
    phi_at,
    phi_table,
    rich_club_members,
    top_cited,
    top_citing,
)
from lexnet.nullmodels import degree_preserving_rewire, erdos_renyi_gnm, watts_strogatz

from conftest import (
    brute_force_betweenness,
    brute_force_phi,
    make_digraph,
    make_ugraph,
    random_digraph,
    random_ugraph,
    reference_average_path_length,
    reference_betweenness,
    reference_harmonic_closeness,
    reference_transitivity,
    rewired_phis,
    ugraphs,
)


def _shaped_graphs():
    """Graphs whose shape stresses the distance sweep, by name."""
    return {
        "single": make_ugraph("a", []),
        "pair": make_ugraph("ab", [("a", "b")]),
        "pair_apart": make_ugraph("ab", []),
        "edgeless": make_ugraph("abcde", []),
        "path": make_ugraph("abcdefg", list(zip("abcdef", "bcdefg"))),
        "star": make_ugraph("habcde", [("h", x) for x in "abcde"]),
        "complete": make_ugraph("abcdef", [(a, b) for a in "abcdef" for b in "abcdef" if a < b]),
        "isolated_nodes": make_ugraph("abcdef", [("b", "c"), ("c", "d")]),
        "disconnected": make_ugraph("abcdefg", [("a", "b"), ("c", "d"), ("d", "e"), ("f", "g")]),
        # two largest components of three nodes; the one holding node 0 counts
        "tied_largest": make_ugraph("abcdefg", [("e", "f"), ("f", "g"), ("a", "b"), ("a", "c")]),
        "tied_largest_shapes": make_ugraph("abcdefgh", [("a", "b"), ("b", "c"), ("c", "d"),
                                                        ("e", "f"), ("e", "g"), ("e", "h")]),
    }


def _seeded_graphs():
    rng = random.Random(71)
    graphs = [random_ugraph(rng, n, rng.randint(1, min(2 * n, n * (n - 1) // 2)))
              for n in range(2, 41) for _ in range(2)]
    graphs.append(erdos_renyi_gnm(300, 900, seed=71))
    graphs.append(erdos_renyi_gnm(400, 150, seed=71))
    graphs.append(watts_strogatz(200, 6, 0.05, seed=71))
    return graphs


class TestDensity:
    def test_complete_three_node(self):
        g = make_digraph("abc", [(a, b) for a in "abc" for b in "abc" if a != b])
        assert density(g) == 1.0

    def test_edgeless(self):
        from lexnet.graph import DiGraph

        assert density(DiGraph([f"c{i}" for i in range(52)])) == 0.0

    def test_arithmetic(self):
        from lexnet.graph import DiGraph

        pairs = [(u, v) for u in range(52) for v in range(52) if u != v]
        g = DiGraph([f"c{i}" for i in range(52)], {(f"c{u}", f"c{v}"): 1 for u, v in pairs[:265]})
        assert density(g) == pytest.approx(265 / 2652, abs=1e-15)

    def test_single_node_degenerate(self):
        from lexnet.graph import DiGraph

        with pytest.raises(DegenerateGraphError):
            density(DiGraph(["a"]))


class TestRoles:
    def test_source_only(self):
        assert classify_role(0, 4) == Role.SOURCE_ONLY

    def test_isolated(self):
        assert classify_role(0, 0) == Role.ISOLATED

    def test_pendant_beats_source_only(self):
        assert classify_role(0, 1) == Role.PENDANT
        assert classify_role(1, 0) == Role.PENDANT

    def test_sink_only(self):
        assert classify_role(3, 0) == Role.SINK_ONLY

    def test_ordinary(self):
        assert classify_role(1, 1) == Role.ORDINARY

    def test_profile_covers_every_node_once(self):
        rng = random.Random(2)
        for _ in range(20):
            g = random_digraph(rng, 8, rng.randint(0, 20) or 1)
            profile = degree_profile(g)
            assert [s.node for s in profile] == list(range(8))
            assert sum(s.in_degree for s in profile) == g.arc_count
            assert sum(s.out_degree for s in profile) == g.arc_count


class TestRankings:
    def test_top_citing_hand_count(self):
        g = make_digraph("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")])
        ranking = top_citing(g, 1)
        assert [g.slug(v) for v in ranking.nodes] == ["a"]
        assert g.out_degree(ranking.nodes[0]) == 3

    def test_all_zero_ties_break_by_slug(self):
        from lexnet.graph import DiGraph

        g = DiGraph(["zeta", "alpha", "mid"])
        ranking = top_citing(g, 2)
        assert [g.slug(v) for v in ranking.nodes] == ["alpha", "mid"]
        assert ranking.truncated_tie is True

    def test_star_hub_most_cited(self):
        g = make_digraph(
            "habcde", [("a", "h"), ("b", "h"), ("c", "h"), ("d", "h"), ("e", "h")]
        )
        ranking = top_cited(g, 1)
        assert [g.slug(v) for v in ranking.nodes] == ["h"]
        assert ranking.truncated_tie is False

    def test_bad_k(self):
        g = make_digraph("ab", [("a", "b")])
        with pytest.raises(LexnetError, match=r"k must be in 1\.\.2, got 0"):
            top_citing(g, 0)
        with pytest.raises(LexnetError, match=r"k must be in 1\.\.2, got 3"):
            top_cited(g, 3)

    def test_relabeling_permutes_rankings(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_digraph(rng, 7, 14)
            perm = list(range(7))
            rng.shuffle(perm)
            h = make_digraph(
                [g.slug(perm.index(i)) for i in range(7)],
                [(g.slug(s), g.slug(t), w) for s, t, w in g.arcs()],
            )
            for ranker, deg in ((top_citing, "out"), (top_cited, "in")):
                a = ranker(g, 3)
                b = ranker(h, 3)
                assert [g.slug(v) for v in a.nodes] == [h.slug(v) for v in b.nodes]
                assert a.truncated_tie == b.truncated_tie


class TestRichClubMembers:
    def _overlap_one_graph(self):
        # 5 top citing (s0..s3 + hub), 6 top cited (c0..c4 + hub); union 10
        slugs = [f"s{i}" for i in range(4)] + ["hub"] + [f"c{i}" for i in range(5)] + [
            f"f{i}" for i in range(12)
        ]
        arcs = []
        citing = [f"s{i}" for i in range(4)] + ["hub"]
        cited = [f"c{i}" for i in range(5)] + ["hub"]
        fillers = [f"f{i}" for i in range(12)]
        for i, src in enumerate(citing):
            targets = (cited + fillers)[: 8 + i]
            for t in targets:
                if t != src:
                    arcs.append((src, t))
        for j, dst in enumerate(cited):
            sources = fillers[: 4 + j]
            for s in sources:
                arcs.append((s, dst))
        return make_digraph(slugs, set(arcs))

    def test_union_of_five_and_six_with_overlap_one(self):
        g = self._overlap_one_graph()
        club = rich_club_members(g, 5, 6)
        assert len(club.members) == 10
        assert len(club.overlap) == 1
        assert g.slug(next(iter(club.overlap))) == "hub"

    def test_disjoint_sets_union(self):
        slugs = ["x", "y", "p", "q", "r", "f1", "f2"]
        arcs = [("x", t) for t in ("p", "q", "r", "f1")] + [
            ("y", t) for t in ("p", "q", "r", "f2")
        ]
        g = make_digraph(slugs, arcs)
        club = rich_club_members(g, 2, 3)
        assert sorted(g.slug(v) for v in club.top_citing) == ["x", "y"]
        assert sorted(g.slug(v) for v in club.top_cited) == ["p", "q", "r"]
        assert len(club.members) == 5
        assert not club.overlap

    def test_full_capture(self):
        g = make_digraph("abc", [("a", "b"), ("b", "a"), ("a", "c")])
        club = rich_club_members(g, 1, 1)
        # every arc touches a or b
        assert club.quotation_capture == 1.0
        assert club.quotation_capture_weighted == 1.0

    def test_capture_monotone_under_superset(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_digraph(rng, 9, 24)
            small = rich_club_members(g, 2, 2)
            large = rich_club_members(g, 4, 4)
            assert set(small.members) <= set(large.members)
            assert large.quotation_capture >= small.quotation_capture - 1e-15


class TestRichClubCoefficient:
    """phi(k) at one k, read from the table as normalized_rich_club reads it."""

    def test_complete_four(self):
        ug = make_ugraph("abcd", [(a, b) for a in "abcd" for b in "abcd" if a < b])
        assert phi_table(ug).get(2) == 1.0

    def test_star_undefined(self):
        ug = make_ugraph("habcd", [("h", x) for x in "abcd"])
        assert phi_table(ug).get(1) is None

    def test_bridge_fixture(self, bridge_ugraph):
        assert phi_table(bridge_ugraph).get(2) == 1.0

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(30):
            ug = random_ugraph(rng, rng.randint(3, 10))
            max_deg = max(map(len, ug.adj))
            table = phi_table(ug)
            for k in range(max_deg + 2):  # past the maximum degree phi is undefined
                expected = brute_force_phi(ug, k)
                actual = table.get(k)
                if expected is None:
                    assert actual is None
                else:
                    assert actual == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_relabeling(self):
        rng = random.Random(43)
        for _ in range(10):
            ug = random_ugraph(rng, 8)
            perm = list(range(8))
            rng.shuffle(perm)
            relabeled = make_ugraph(
                [f"m{i}" for i in range(8)],
                [(perm[u], perm[v]) for u, v in ug.edges()],
            )
            assert phi_table(ug) == phi_table(relabeled)


class TestPhiTable:
    @staticmethod
    def per_k(ug):
        max_deg = max(map(len, ug.adj))
        return {k: brute_force_phi(ug, k) for k in range(max_deg + 1)}

    # 2.0 * e / (n (n - 1)) and the recount's e / (n (n - 1) / 2) round
    # the same exact quotient, so the values are equal, not just close
    def test_matches_brute_force_on_seeded_graphs(self):
        for ug in _seeded_graphs():
            assert phi_table(ug) == self.per_k(ug)

    @given(ugraphs())
    @settings(max_examples=200, derandomize=True)
    def test_matches_brute_force_property(self, ug):
        assert phi_table(ug) == self.per_k(ug)

    @given(ugraphs(), st.integers(0, 2**32))
    @settings(max_examples=200, derandomize=True)
    def test_one_k_alone_is_the_table_entry_property(self, ug, seed):
        # on the graph and on a rewiring of it, whose rich nodes are the same
        graphs = [ug]
        if ug.edge_count >= 2:
            graphs.append(degree_preserving_rewire(ug, 10 * ug.edge_count, seed))
        for graph in graphs:
            table = phi_table(graph)
            for k in range(max(table) + 2):
                if table.get(k) is None:
                    assert phi_at(graph, k) is None
                else:
                    assert phi_at(graph, k) == table[k] == brute_force_phi(graph, k)

    def test_edgeless_has_only_k_zero(self):
        assert phi_table(make_ugraph("abc", [])) == {0: None}

    def test_star(self):
        # k=0: all five nodes, 4 of 10 pairs linked; k>=1 leaves the hub alone
        ug = make_ugraph("habcd", [("h", x) for x in "abcd"])
        assert phi_table(ug) == {0: 0.4, 1: None, 2: None, 3: None, 4: None}


class TestMeanStd:
    def test_adds_left_to_right(self):
        # ten additions of 0.1 round down to 0.9999999999999999; the
        # compensated sum() of Python 3.12+ gives exactly 1.0, so a mean of 0.1
        assert mean_std([0.1] * 10)[0] == 0.09999999999999999

    def test_sample_stddev(self):
        # deviations -4/3, -1/3 and 5/3 square to 42/9; over k - 1 = 2 that is 7/3
        mean, stddev = mean_std([1.0, 2.0, 4.0])
        assert mean == pytest.approx(7 / 3, abs=1e-15)
        assert stddev == pytest.approx(math.sqrt(7 / 3), abs=1e-15)
        assert mean_std([0.5]) == (0.5, 0.0)


class TestNormalizedRichClub:
    def test_bridge_fixture_norm_above_one(self, bridge_ugraph):
        result = normalized_rich_club(bridge_ugraph, 2, rewired_phis(bridge_ugraph, 2, 200, seed=7))
        assert result.phi == 1.0
        assert result.phi_null_mean < 1.0
        assert result.phi_norm > 1.0

    def test_complete_graph_norm_is_one(self):
        ug = make_ugraph("abcde", [(a, b) for a in "abcde" for b in "abcde" if a < b])
        result = normalized_rich_club(ug, 3, rewired_phis(ug, 3, 20, seed=3))
        assert result.phi == 1.0
        assert result.phi_norm == 1.0
        assert result.sample_stddev == 0.0

    def test_deterministic(self, bridge_ugraph):
        a = normalized_rich_club(bridge_ugraph, 2, rewired_phis(bridge_ugraph, 2, 50, seed=11))
        b = normalized_rich_club(bridge_ugraph, 2, rewired_phis(bridge_ugraph, 2, 50, seed=11))
        assert a == b

    def test_undefined_is_none(self):
        ug = make_ugraph("habcd", [("h", x) for x in "abcd"])
        assert normalized_rich_club(ug, 1, rewired_phis(ug, 1, 5, seed=1)) is None

    def test_negative_k_is_undefined(self):
        # every node's degree exceeds k, yet phi_table has no entry for k < 0
        ug = make_ugraph("abcd", [(a, b) for a in "abcd" for b in "abcd" if a < b])
        assert phi_table(ug).get(-1) is None
        assert normalized_rich_club(ug, -1, [1.0]) is None

    def test_no_nulls_raises(self, bridge_ugraph):
        with pytest.raises(ValueError, match="at least one graph"):
            normalized_rich_club(bridge_ugraph, 2, [])


class TestClustering:
    def test_triangle(self):
        ug = make_ugraph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert global_clustering(ug) == 1.0

    def test_path(self):
        ug = make_ugraph("abc", [("a", "b"), ("b", "c")])
        assert global_clustering(ug) == 0.0

    def test_bridge_fixture(self, bridge_ugraph):
        assert global_clustering(bridge_ugraph) == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(_shaped_graphs()))
    def test_matches_pair_scan_on_shapes(self, name):
        ug = _shaped_graphs()[name]
        assert global_clustering(ug) == reference_transitivity(ug)

    def test_matches_pair_scan_on_seeded_graphs(self):
        graphs = _seeded_graphs()
        for seed in range(20):
            graphs.append(erdos_renyi_gnm(52, 241, seed))
            graphs.append(watts_strogatz(52, 8, 0.1, seed))
        for ug in graphs:
            assert global_clustering(ug) == reference_transitivity(ug)

    @given(ugraphs())
    @settings(max_examples=200, derandomize=True)
    def test_matches_pair_scan_property(self, ug):
        assert global_clustering(ug) == reference_transitivity(ug)


class TestPathLength:
    def test_path_of_three(self):
        ug = make_ugraph("abc", [("a", "b"), ("b", "c")])
        assert average_path_length(ug) == pytest.approx(4 / 3, abs=1e-15)

    def test_complete(self):
        ug = make_ugraph("abcde", [(a, b) for a in "abcde" for b in "abcde" if a < b])
        assert average_path_length(ug) == 1.0

    def test_isolated_vertex_lowers_fraction(self):
        # the mean covers the largest component only, so c does not count
        ug = make_ugraph("abc", [("a", "b")])
        assert average_path_length(ug) == 1.0

    def test_degenerate(self):
        from lexnet.graph import UGraph

        with pytest.raises(DegenerateGraphError):
            average_path_length(UGraph([set()]))

    def test_tied_largest_components_pick_the_smallest_node(self):
        # a-b-c-d (mean 5/3) and a star on e (mean 3/2): both have 4 nodes
        ug = _shaped_graphs()["tied_largest_shapes"]
        assert average_path_length(ug) == 10 / 6

    @pytest.mark.parametrize("name", sorted(set(_shaped_graphs()) - {"single"}))
    def test_matches_per_source_search_on_shapes(self, name):
        ug = _shaped_graphs()[name]
        assert average_path_length(ug) == reference_average_path_length(ug)

    def test_matches_per_source_search_on_seeded_graphs(self):
        for ug in _seeded_graphs():
            assert average_path_length(ug) == reference_average_path_length(ug)

    @given(ugraphs())
    @settings(max_examples=200, derandomize=True)
    def test_matches_per_source_search_property(self, ug):
        if ug.node_count < 2:
            with pytest.raises(DegenerateGraphError):
                average_path_length(ug)
        else:
            assert average_path_length(ug) == reference_average_path_length(ug)


class TestCentrality:
    def test_star_hub_betweenness_maximal(self):
        g = make_digraph("habcd", [("h", x) for x in "abcd"])
        scores = betweenness_scores(g.undirected_projection())
        hub = g.id_of("h")
        assert all(scores[hub] > scores[v] for v in g.node_ids() if v != hub)

    def test_complete_graph_zero_betweenness(self):
        g = make_digraph("abcd", [(a, b) for a in "abcd" for b in "abcd" if a != b])
        assert set(betweenness_scores(g.undirected_projection())) == {0.0}

    def test_path_middle_matches_enumeration(self):
        g = make_digraph("abc", [("a", "b"), ("b", "c")])
        ug = g.undirected_projection()
        expected = brute_force_betweenness(ug)
        actual = betweenness_scores(ug)
        assert actual == pytest.approx(expected, abs=1e-12)
        assert actual[g.id_of("b")] == 1.0

    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(59)
        for _ in range(25):
            ug = random_ugraph(rng, rng.randint(3, 8))
            expected = brute_force_betweenness(ug)
            actual = betweenness_scores(ug)
            for a, e in zip(actual, expected):
                assert a == pytest.approx(e, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(_shaped_graphs()))
    def test_betweenness_matches_stored_predecessors_on_shapes(self, name):
        ug = _shaped_graphs()[name]
        assert betweenness_scores(ug) == reference_betweenness(ug)

    def test_betweenness_matches_stored_predecessors_on_seeded_graphs(self):
        for ug in _seeded_graphs():
            assert betweenness_scores(ug) == reference_betweenness(ug)

    @given(ugraphs())
    @settings(max_examples=200, derandomize=True)
    def test_betweenness_matches_stored_predecessors_property(self, ug):
        assert betweenness_scores(ug) == reference_betweenness(ug)

    def test_closeness_in_unit_interval(self):
        rng = random.Random(61)
        for _ in range(10):
            g = random_digraph(rng, 8, 16)
            scores = harmonic_closeness_scores(g.undirected_projection())
            assert all(0.0 <= v <= 1.0 for v in scores)

    @pytest.mark.parametrize("name", sorted(_shaped_graphs()))
    def test_closeness_matches_per_source_search_on_shapes(self, name):
        ug = _shaped_graphs()[name]
        assert harmonic_closeness_scores(ug) == reference_harmonic_closeness(ug)

    def test_closeness_matches_per_source_search_on_seeded_graphs(self):
        for ug in _seeded_graphs():
            assert harmonic_closeness_scores(ug) == reference_harmonic_closeness(ug)

    @given(ugraphs())
    @settings(max_examples=200, derandomize=True)
    def test_closeness_matches_per_source_search_property(self, ug):
        assert harmonic_closeness_scores(ug) == reference_harmonic_closeness(ug)

    def test_degree_centrality(self):
        g = make_digraph("abc", [("a", "b"), ("b", "a"), ("a", "c")])
        scores = degree_centrality(g)
        assert scores[g.id_of("a")] == pytest.approx(3 / 4)
