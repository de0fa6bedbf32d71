"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import strategies as st

from lexnet.graph import DiGraph, NodeLabel, UGraph


@st.composite
def ugraphs(draw, max_nodes: int = 12) -> UGraph:
    """Hypothesis strategy: small simple graphs, often disconnected."""
    n = draw(st.integers(1, max_nodes))
    ug = UGraph([f"n{i:02d}" for i in range(n)])
    node = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if u != v:
            ug.add_edge(u, v)
    return ug


def make_digraph(slugs, arcs):
    """Build a DiGraph from slug names and (source, target[, count]) triples."""
    g = DiGraph([NodeLabel(s) for s in slugs])
    for arc in arcs:
        if len(arc) == 2:
            s, t = arc
            g.add_edge(g.id_of(s), g.id_of(t))
        else:
            s, t, c = arc
            g.add_edge(g.id_of(s), g.id_of(t), c)
    return g


def make_ugraph(slugs, edges):
    ug = UGraph([NodeLabel(s) for s in slugs])
    index = {ug.slug(v): v for v in ug.node_ids()}
    for u, v in edges:
        ug.add_edge(index[u] if isinstance(u, str) else u, index[v] if isinstance(v, str) else v)
    return ug


@pytest.fixture
def bridge_digraph():
    """Two directed triangles a->b->c->a and d->e->f->d joined by c->d."""
    return make_digraph(
        "abcdef",
        [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d"), ("c", "d")],
    )


@pytest.fixture
def bridge_ugraph(bridge_digraph):
    return bridge_digraph.undirected_projection()


def random_ugraph(rng: random.Random, n: int, m: int | None = None) -> UGraph:
    """Uniform random simple graph used to drive property tests."""
    pairs = list(combinations(range(n), 2))
    if m is None:
        m = rng.randint(1, len(pairs))
    ug = UGraph([f"n{i:02d}" for i in range(n)])
    for u, v in rng.sample(pairs, m):
        ug.add_edge(u, v)
    return ug


def random_digraph(rng: random.Random, n: int, arcs: int) -> DiGraph:
    g = DiGraph([f"n{i:02d}" for i in range(n)])
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for u, v in rng.sample(pairs, min(arcs, len(pairs))):
        g.add_edge(u, v, rng.randint(1, 3))
    return g


# -- independent oracles -------------------------------------------------------


def brute_force_betweenness(ug: UGraph) -> list[float]:
    """Betweenness by explicit enumeration of every shortest path.

    Simple paths are enumerated by depth-first search, filtered to the
    minimum length per pair, and interior nodes are credited with their
    fraction; the result is normalized by (n-1)(n-2)/2 like the
    implementation under test but shares no code with it.
    """
    n = ug.node_count
    acc = [0.0] * n
    for s, t in combinations(range(n), 2):
        paths = _all_simple_paths(ug, s, t)
        if not paths:
            continue
        shortest = min(len(p) for p in paths)
        best = [p for p in paths if len(p) == shortest]
        for v in range(n):
            if v in (s, t):
                continue
            through = sum(1 for p in best if v in p)
            acc[v] += through / len(best)
    if n < 3:
        return [0.0] * n
    norm = (n - 1) * (n - 2) / 2
    return [a / norm for a in acc]


def _all_simple_paths(ug: UGraph, s: int, t: int) -> list[tuple[int, ...]]:
    paths = []
    stack = [(s, (s,))]
    while stack:
        v, path = stack.pop()
        if v == t:
            paths.append(path)
            continue
        for w in ug.neighbors(v):
            if w not in path:
                stack.append((w, path + (w,)))
    return paths


def reference_bfs(adj, source: int) -> tuple[list[int], list[int]]:
    """One breadth-first search: visiting order and distances (-1 unreached)."""
    dist = [-1] * len(adj)
    dist[source] = 0
    order = [source]
    for v in order:
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
    return order, dist


def reference_average_path_length(ug: UGraph) -> tuple[float, float]:
    """Average path length by one breadth-first search per source.

    Same conventions as the implementation under test (largest component,
    ties to the smallest node id; reachable fraction over all pairs) but
    finds components and distances on its own.
    """
    n = ug.node_count
    adj = ug.adjacency()
    dists = [reference_bfs(adj, s)[1] for s in range(n)]
    components = {frozenset(v for v, d in enumerate(row) if d >= 0) for row in dists}
    largest = max(components, key=lambda c: (len(c), -min(c)))
    reachable_pairs = sum(len(c) * (len(c) - 1) // 2 for c in components)
    fraction = reachable_pairs / (n * (n - 1) // 2)
    if len(largest) < 2:
        return 0.0, fraction
    total = sum(d for s in largest for d in dists[s] if d > 0)
    pairs = len(largest) * (len(largest) - 1) // 2
    return total / 2 / pairs, fraction


def reference_harmonic_closeness(ug: UGraph) -> list[float]:
    """Harmonic closeness summing 1/d over each search's visiting order."""
    n = ug.node_count
    if n < 2:
        return [0.0] * n
    adj = ug.adjacency()
    scores = []
    for source in range(n):
        order, dist = reference_bfs(adj, source)
        total = 0.0
        for w in order[1:]:
            total += 1.0 / dist[w]
        scores.append(total / (n - 1))
    return scores


def union_find_components(ug: UGraph) -> set[frozenset[int]]:
    """Connected components by union-find over the edge list."""
    parent = list(range(ug.node_count))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in ug.edges():
        parent[find(u)] = find(v)
    groups: dict[int, set[int]] = {}
    for v in ug.node_ids():
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


def brute_force_phi(ug: UGraph, k: int) -> float | None:
    """Rich-club coefficient by direct recount of the induced subgraph."""
    rich = [v for v in ug.node_ids() if len(ug.neighbors(v)) > k]
    if len(rich) < 2:
        return None
    internal = sum(1 for u, v in combinations(rich, 2) if ug.has_edge(u, v))
    possible = len(rich) * (len(rich) - 1) // 2
    return internal / possible


def assess(g: DiGraph, club, samples: int, seed: int, **kwargs):
    """Assess g as the pipeline does: cohesion of club (None: no club) feeds the verdict."""
    from lexnet.nullmodels import club_cohesion, concentrated_world_assessment
    from lexnet.seeding import derive_seed

    ug = g.undirected_projection()
    present = club is not None and club_cohesion(
        g, ug, club, samples, derive_seed(seed, "phi-norm")
    )[0]
    return concentrated_world_assessment(g, ug, present, samples, seed, **kwargs)


def degree_multiset(ug: UGraph) -> list[int]:
    return sorted(ug.degree(v) for v in ug.node_ids())


@pytest.fixture(scope="session")
def fixture_graph():
    """The bundled 52-code fixture, run through the real extraction path."""
    from lexnet.extraction import CodeDocument, build_edge_list, load_registry
    from lexnet.fixture import fixture_corpus, fixture_registry_text
    from lexnet.report import parse_edge_list, write_node_sidecar

    registry = load_registry(fixture_registry_text())
    corpus = [CodeDocument(slug, text) for slug, text in fixture_corpus().items()]
    edge_list = build_edge_list(corpus, registry)
    return parse_edge_list(edge_list.to_tsv(), write_node_sidecar(registry.slugs()))
