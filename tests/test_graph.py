"""Graph primitives: construction, degrees, subgraphs, components, distances."""

import random

import pytest
from hypothesis import given, settings

from lexnet.errors import LexnetError
from lexnet.graph import DiGraph, UGraph, distance_counts
from lexnet.nullmodels import erdos_renyi_gnm

from conftest import (
    digraph_from_ugraph,
    make_digraph,
    make_ugraph,
    random_digraph,
    random_ugraph,
    reference_bfs,
    ugraph,
    ugraphs,
    union_find_components,
)


class TestConstruction:
    def test_52_labels(self):
        g = DiGraph([f"code_{i:02d}" for i in range(52)])
        assert g.node_count == 52
        assert g.arc_count == 0

    def test_single_label(self):
        g = DiGraph(["only"])
        assert g.node_count == 1
        assert g.arc_count == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(LexnetError, match="slug 'a' appears twice"):
            DiGraph(["a", "a"])

    def test_empty_label_set_rejected(self):
        with pytest.raises(LexnetError, match="a graph needs at least one node"):
            DiGraph([])

    def test_empty_slug_rejected(self):
        with pytest.raises(ValueError, match="slug must be non-empty"):
            DiGraph(["a", ""])


class TestAddEdge:
    def test_weight_accumulates(self):
        g = DiGraph(["a", "b"])
        g.add_edge(0, 1, 1)
        g.add_edge(0, 1, 2)
        assert list(g.arcs()) == [(0, 1, 3)]
        assert g.arc_count == 1
        assert g.in_degree(1) == 1

    def test_self_loop_rejected(self):
        g = DiGraph(["a", "b"])
        with pytest.raises(LexnetError, match=r"self-citation on node 0 \('a'\)"):
            g.add_edge(0, 0, 1)

    def test_two_node_density(self):
        from lexnet.metrics import density

        g = DiGraph(["a", "b"])
        g.add_edge(0, 1)
        assert g.arc_count == 1
        assert density(g) == 0.5

    def test_unknown_node(self):
        g = DiGraph(["a", "b"])
        with pytest.raises(LexnetError, match=r"node id 5 outside 0\.\.1"):
            g.add_edge(0, 5)


class TestUGraph:
    def test_wraps_its_neighbour_sets(self):
        adj = [{1, 2}, {0}, {0}]
        ug = UGraph(adj)
        assert ug.adj is adj
        assert (ug.node_count, ug.edge_count) == (3, 2)
        assert list(ug.edges()) == [(0, 1), (0, 2)]

    def test_hand_built_graph_counts_a_repeated_edge_once(self):
        ug = ugraph(3, [(2, 1), (1, 2), (0, 1), (1, 2)])
        assert ug.adj == [{1}, {0, 2}, {1}]
        assert list(ug.edges()) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize(("n", "edges", "message"), [
        (2, [(0, 1), (1, 1)], "self-loop on node 1"),
        (2, [(0, 2)], r"node id 2 outside 0\.\.1"),
        (2, [(-1, 0)], r"node id -1 outside 0\.\.1"),
        (2, [(0, 1.0)], r"node id 1\.0 outside 0\.\.1"),
        (0, [], "a graph needs at least one node"),
    ])
    def test_hand_built_graph_rejects(self, n, edges, message):
        with pytest.raises(LexnetError, match=message):
            ugraph(n, edges)

    def test_projection_is_the_checked_graph_of_its_arcs(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(1, 12), rng.randint(0, 40))
            want = ugraph(g.node_count, [(s, t) for s, t, _ in g.arcs()])
            assert g.undirected_projection().adj == want.adj


class TestDegrees:
    def test_source_only_pattern(self):
        # cites four codes, never cited itself
        g = make_digraph("abcde", [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")])
        v = g.id_of("a")
        assert g.out_degree(v) == 4
        assert g.in_degree(v) == 0

    def test_isolated(self):
        g = make_digraph("ab", [("a", "b")])
        g2 = make_digraph("abc", [("a", "b")])
        assert g2.in_degree(g2.id_of("c")) == 0
        assert g2.out_degree(g2.id_of("c")) == 0

    def test_complete_three_node(self):
        g = make_digraph("abc", [(a, b) for a in "abc" for b in "abc" if a != b])
        for v in g.node_ids():
            assert g.in_degree(v) == 2
            assert g.out_degree(v) == 2

    def test_degree_sums_equal_arcs(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_digraph(rng, rng.randint(2, 9), rng.randint(1, 12))
            total_in = sum(g.in_degree(v) for v in g.node_ids())
            total_out = sum(g.out_degree(v) for v in g.node_ids())
            assert total_in == total_out == g.arc_count


class TestRemoveNodes:
    def test_remove_ten_of_fifty_two(self):
        g = DiGraph([f"c{i:02d}" for i in range(52)])
        reduced = g.remove_nodes(set(range(10)))
        assert reduced.node_count == 42
        assert reduced.slugs == g.slugs[10:]

    def test_remove_nothing_is_identity(self):
        g = make_digraph("abc", [("a", "b"), ("b", "c")])
        same = g.remove_nodes(set())
        assert same.node_count == 3
        assert sorted(same.arcs()) == sorted(g.arcs())
        assert same.slugs == g.slugs

    def test_pendant_becomes_isolated(self):
        # b's only neighbor is a; removing a leaves b isolated (checked by recount)
        g = make_digraph("abc", [("b", "a"), ("a", "c"), ("c", "a")])
        reduced = g.remove_nodes({g.id_of("a")})
        b = reduced.id_of("b")
        assert reduced.in_degree(b) == 0 and reduced.out_degree(b) == 0

    def test_no_surviving_edge_touches_victims(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_digraph(rng, 8, 20)
            victims = set(rng.sample(range(8), 3))
            reduced = g.remove_nodes(victims)
            assert reduced.node_count == 5
            old_arcs = {(s, t) for s, t, _ in g.arcs()}
            for s, t, _ in reduced.arcs():
                old_s, old_t = g.id_of(reduced.slug(s)), g.id_of(reduced.slug(t))
                assert old_s not in victims and old_t not in victims
                assert (old_s, old_t) in old_arcs


class TestInducedSubgraph:
    """The subgraph induced by a node set is remove_nodes of its complement."""

    @staticmethod
    def induced(g, keep):
        return g.remove_nodes(set(g.node_ids()) - keep)

    def test_keep_all(self, bridge_digraph):
        sub = self.induced(bridge_digraph, set(bridge_digraph.node_ids()))
        assert sorted(sub.arcs()) == sorted(bridge_digraph.arcs())

    def test_two_unconnected(self, bridge_digraph):
        sub = self.induced(
            bridge_digraph, {bridge_digraph.id_of("a"), bridge_digraph.id_of("e")}
        )
        assert sub.arc_count == 0

    def test_bridge_endpoints_keep_only_bridge(self, bridge_digraph):
        keep = {bridge_digraph.id_of("c"), bridge_digraph.id_of("d")}
        sub = self.induced(bridge_digraph, keep)
        arcs = list(sub.arcs())
        assert len(arcs) == 1
        s, t, _ = arcs[0]
        assert sub.slug(s) == "c" and sub.slug(t) == "d"


class TestProjection:
    def test_reciprocal_arcs_collapse(self):
        g = make_digraph("ab", [("a", "b"), ("b", "a")])
        ug = g.undirected_projection()
        assert ug.edge_count == 1

    def test_edgeless(self):
        g = DiGraph([f"c{i}" for i in range(52)])
        ug = g.undirected_projection()
        assert ug.node_count == 52 and ug.edge_count == 0

    def test_complete_three_node(self):
        g = make_digraph("abc", [(a, b) for a in "abc" for b in "abc" if a != b])
        assert g.arc_count == 6
        assert g.undirected_projection().edge_count == 3

    def test_projection_of_symmetrized_graph_is_stable(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_digraph(rng, 7, 12)
            sym = DiGraph(g.slugs)
            arcs = {(s, t) for s, t, _ in g.arcs()}
            for s, t, w in g.arcs():
                sym.add_edge(s, t, w)
                if (t, s) not in arcs:
                    sym.add_edge(t, s, w)
            assert list(sym.undirected_projection().edges()) == list(
                g.undirected_projection().edges()
            )


def _components(ug):
    """Node sets of the distinct reach masks of one sweep.

    Nodes are grouped by their mask, and each mask must hold exactly the
    nodes that carry it.
    """
    _, reach = distance_counts(ug.adj)
    holders: dict[int, list[int]] = {}
    for v, mask in enumerate(reach):
        holders.setdefault(mask, []).append(v)
    assert all(mask == sum(1 << v for v in nodes) for mask, nodes in holders.items())
    return {frozenset(nodes) for nodes in holders.values()}


class TestComponents:
    """Weak components of a digraph, read from the reach masks of its projection."""

    def test_two_triangles(self):
        g = make_digraph("abcdef", [("a", "b"), ("b", "c"), ("c", "a"),
                                    ("d", "e"), ("e", "f"), ("f", "d")])
        comps = _components(g.undirected_projection())
        assert sorted(len(c) for c in comps) == [3, 3]

    def test_isolated_vertex_is_singleton(self):
        g = make_digraph("abc", [("a", "b")])
        assert _components(g.undirected_projection()) == {
            frozenset({0, 1}),
            frozenset({2}),
        }

    def test_connected_graph_single_component(self, bridge_digraph):
        assert len(_components(bridge_digraph.undirected_projection())) == 1

    def test_components_partition_nodes(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_digraph(rng, 9, rng.randint(1, 10))
            comps = _components(g.undirected_projection())
            seen = [v for c in comps for v in c]
            assert sorted(seen) == list(range(9))

    def test_matches_union_find(self):
        rng = random.Random(29)
        graphs = [random_ugraph(rng, n, m) for n, m in ((12, 5), (30, 20), (60, 70), (200, 150))]
        graphs.append(erdos_renyi_gnm(20_000, 6_000, seed=29))
        for ug in graphs:
            assert _components(ug) == union_find_components(ug)

    @given(ugraphs())
    @settings(max_examples=200, derandomize=True)
    def test_matches_union_find_property(self, ug):
        assert _components(ug) == union_find_components(ug)


def _histograms(ug):
    """Per node, the number of nodes at distance 1, 2, ... by one search each."""
    rows = []
    for source in range(ug.node_count):
        dist = reference_bfs(ug.adj, source)[1]
        rows.append([dist.count(d) for d in range(1, max(dist) + 1)])
    return rows


def _mask(nodes):
    return sum(1 << v for v in nodes)


class TestBfs:
    """distance_counts: the breadth-first search from every source at once."""

    def test_path(self):
        ug = make_ugraph("abc", [("a", "b"), ("b", "c")])
        assert distance_counts(ug.adj) == ([[1, 1], [2], [1, 1]], [0b111] * 3)

    def test_isolated_source(self):
        ug = make_ugraph("abc", [("a", "b")])
        counts, reach = distance_counts(ug.adj)
        assert counts[2] == [] and reach[2] == 0b100
        assert counts[0] == counts[1] == [1] and reach[0] == reach[1] == 0b011

    def test_bridge_fixture_from_a(self, bridge_ugraph):
        counts, reach = distance_counts(bridge_ugraph.adj)
        # from a: b, c at 1; d at 2; e, f at 3
        assert counts[0] == [2, 1, 2]
        assert set(reach) == {0b111111}

    def test_neighbor_distances_differ_by_at_most_one(self):
        # adjacent nodes share a component and their eccentricities differ by <= 1
        rng = random.Random(17)
        for _ in range(20):
            g = random_digraph(rng, 9, rng.randint(2, 18))
            ug = g.undirected_projection()
            counts, reach = distance_counts(ug.adj)
            for u, v in ug.edges():
                assert reach[u] == reach[v]
                assert abs(len(counts[u]) - len(counts[v])) <= 1

    def test_matches_per_source_search(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(2, 40)
            ug = random_ugraph(rng, n, rng.randint(1, min(2 * n, n * (n - 1) // 2)))
            counts, reach = distance_counts(ug.adj)
            assert counts == _histograms(ug)
            component = {v: c for c in union_find_components(ug) for v in c}
            assert reach == [_mask(component[v]) for v in range(ug.node_count)]

    @given(ugraphs())
    @settings(max_examples=200, derandomize=True)
    def test_matches_per_source_search_property(self, ug):
        counts, reach = distance_counts(ug.adj)
        assert counts == _histograms(ug)
        assert reach == [_mask(reference_bfs(ug.adj, v)[0]) for v in range(ug.node_count)]


def test_digraph_from_ugraph_one_arc_per_edge(bridge_ugraph):
    g = digraph_from_ugraph(bridge_ugraph)
    assert g.arc_count == bridge_ugraph.edge_count
    for s, t, w in g.arcs():
        assert s < t and w == 1


@pytest.mark.parametrize("n", [1, 10, 11, 101])
def test_digraph_from_ugraph_slugs_sort_in_node_order(n):
    # rank ties among baseline nodes are broken by slug, so slug order must be id order
    g = digraph_from_ugraph(ugraph(n, []))
    slugs = [g.slug(v) for v in g.node_ids()]
    assert slugs == sorted(slugs)
    assert slugs[-1] == f"v{n - 1}"
    assert len(set(map(len, slugs))) == 1
