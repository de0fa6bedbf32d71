"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import heapq
import random
import unicodedata
from collections import deque
from itertools import combinations

import pytest
from hypothesis import strategies as st

from lexnet.communities import CnmMerge, CnmTrace
from lexnet.errors import (
    BadLatticeDegreeError,
    EmptyGraphError,
    TooFewEdgesError,
    TooManyEdgesError,
)
from lexnet.extraction import _APOSTROPHES, _LIGATURES
from lexnet.graph import DiGraph, UGraph
from lexnet.metrics import ClusteringSummary


@st.composite
def ugraphs(draw, max_nodes: int = 12) -> UGraph:
    """Hypothesis strategy: small simple graphs, often disconnected."""
    n = draw(st.integers(1, max_nodes))
    ug = UGraph(n)
    node = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if u != v:
            ug.add_edge(u, v)
    return ug


def make_digraph(slugs, arcs):
    """Build a DiGraph from slug names and (source, target[, count]) triples."""
    g = DiGraph(list(slugs))
    for arc in arcs:
        if len(arc) == 2:
            s, t = arc
            g.add_edge(g.id_of(s), g.id_of(t))
        else:
            s, t, c = arc
            g.add_edge(g.id_of(s), g.id_of(t), c)
    return g


def make_ugraph(slugs, edges):
    ug = UGraph(len(slugs))
    index = {slug: v for v, slug in enumerate(slugs)}
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
    ug = UGraph(n)
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


def reference_betweenness(ug: UGraph) -> list[float]:
    """Brandes betweenness with stored predecessor lists and an explicit stack.

    The same float operations in the same order as the implementation
    under test, which recognizes predecessors by distance instead.
    """
    n = ug.node_count
    adj = [sorted(nbrs) for nbrs in ug.adjacency()]
    raw = [0.0] * n
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        dist = [-1] * n
        sigma[s] = 1.0
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                raw[w] += delta[w]
    if n < 3:
        return [0.0] * n
    norm = (n - 1) * (n - 2)
    return [b / norm for b in raw]


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


# -- reference generators --------------------------------------------------------
# The null-model generators as they were before their random draws were
# inlined, kept verbatim: the library versions must make the same draws
# and so give edge-for-edge equal graphs.


def reference_erdos_renyi_gnm(n: int, m: int, seed: int) -> UGraph:
    """Uniform simple graph with exactly n nodes and m edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise TooManyEdgesError(f"m={m} exceeds the simple-graph maximum {max_edges}")
    if m < 0:
        raise ValueError("m must be non-negative")
    rng = random.Random(seed)
    ug = UGraph(n)
    if m == 0:
        return ug
    if max_edges <= 4 * m:
        # dense request: sample directly from the materialized pair list
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for u, v in rng.sample(pairs, m):
            ug.add_edge(u, v)
        return ug
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or ug.has_edge(u, v):
            continue
        ug.add_edge(u, v)
        added += 1
    return ug


def reference_watts_strogatz(n: int, k_even: int, p: float, seed: int) -> UGraph:
    """Ring lattice of degree k_even with each lattice edge rewired with prob p.

    A rewired edge keeps its source endpoint and moves the other end to a
    uniform target that creates neither a self-loop nor a duplicate; if no
    such target exists the edge is left in place.
    """
    if k_even % 2 != 0 or k_even < 2 or k_even >= n:
        raise BadLatticeDegreeError(f"lattice degree must be even and in 2..n-1, got {k_even}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    ug = UGraph(n)
    half = k_even // 2
    for j in range(1, half + 1):
        for i in range(n):
            ug.add_edge(i, (i + j) % n)
    for j in range(1, half + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            if ug.degree(i) >= n - 1:
                continue  # i is joined to everything else already
            while True:
                w = rng.randrange(n)
                if w != i and not ug.has_edge(i, w):
                    break
            ug.remove_edge(i, old)
            ug.add_edge(i, w)
    return ug


def reference_rewire(ug: UGraph, swap_attempts: int, seed: int) -> UGraph:
    """Randomize by repeated double edge swaps; degrees are exactly preserved.

    Each attempt draws two distinct edges and an orientation, and swaps
    endpoints only when the replacement creates no self-loop and no
    duplicate edge; failed attempts leave the graph unchanged.
    """
    m = ug.edge_count
    if m < 2:
        raise TooFewEdgesError(f"rewiring needs at least 2 edges, got {m}")
    rng = random.Random(seed)
    edges = list(ug.edges())
    adj = ug.adjacency()
    for _ in range(swap_attempts):
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
        a, b = edges[i]
        if rng.random() < 0.5:
            a, b = b, a
        c, d = edges[j]
        # proposed replacement: {a, d} and {c, b}
        if a == d or c == b:
            continue
        if d in adj[a] or b in adj[c]:
            continue
        adj[a].discard(b)
        adj[b].discard(a)
        adj[c].discard(d)
        adj[d].discard(c)
        adj[a].add(d)
        adj[d].add(a)
        adj[c].add(b)
        adj[b].add(c)
        edges[i] = (a, d) if a < d else (d, a)
        edges[j] = (c, b) if c < b else (b, c)
    result = UGraph(ug.node_count)
    for u, v in edges:
        result.add_edge(u, v)
    return result


# -- reference kernels ----------------------------------------------------------
# Library functions as they were before a speed-up that must not change
# their results, kept verbatim apart from their names.


def reference_normalize_text(text: str) -> str:
    """normalize_text with the combining-mark filter run on every text."""
    for ch in _APOSTROPHES:
        text = text.replace(ch, "'")
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    lowered = stripped.lower()
    for ligature, expansion in _LIGATURES.items():
        lowered = lowered.replace(ligature, expansion)
    for ch in _APOSTROPHES:
        lowered = lowered.replace(ch, "'")
    return " ".join(lowered.split())


def reference_triangles_per_node(ug: UGraph) -> list[int]:
    """Triangles per node by testing every sorted neighbor pair of a copy."""
    adj = ug.adjacency()
    counts = [0] * ug.node_count
    for v in range(ug.node_count):
        nbrs = sorted(adj[v])
        t = 0
        for i in range(len(nbrs)):
            a = adj[nbrs[i]]
            for j in range(i + 1, len(nbrs)):
                if nbrs[j] in a:
                    t += 1
        counts[v] = t
    return counts


def reference_global_clustering(ug: UGraph) -> ClusteringSummary:
    """global_clustering over reference_triangles_per_node and checked degrees."""
    tri = reference_triangles_per_node(ug)
    triangle_total = sum(tri) // 3
    triples = 0
    local = []
    for v in ug.node_ids():
        d = ug.degree(v)
        if d >= 2:
            pairs = d * (d - 1) // 2
            triples += pairs
            local.append(tri[v] / pairs)
    transitivity = 3.0 * triangle_total / triples if triples else 0.0
    average_local = sum(local) / len(local) if local else 0.0
    return ClusteringSummary(transitivity, average_local)


# -- reference greedy modularity ---------------------------------------------------


def reference_cnm_trace(ug: UGraph) -> CnmTrace:
    """The greedy merge loop that re-keys every neighbor pair after a merge.

    After each merge it pushes one fresh entry per neighbor of the merged
    community and drops any entry whose degree sums went out of date, so
    every fresh pop holds its true key. Kept as it was before the library
    loop learned to push only the pairs a merge changed: both must give
    equal traces.
    """
    m = ug.edge_count
    if m == 0:
        raise EmptyGraphError("community detection needs at least one edge")
    n = ug.node_count
    inv_m = 1.0 / m
    inv_2m2 = 1.0 / (2.0 * m * m)
    two_m = 2.0 * m

    comm_deg: dict[int, int] = {}
    label: dict[int, int] = {}
    nbr: dict[int, dict[int, int]] = {}
    q = 0.0
    for v in range(n):
        d = ug.degree(v)
        comm_deg[v] = d
        label[v] = v
        nbr[v] = {}
        q -= (d / two_m) ** 2
    for u, v in ug.edges():
        nbr[u][v] = 1
        nbr[v][u] = 1

    # heap entries: (-dq, label_a, label_b, a, b, e_ab, deg_a, deg_b) with
    # label_a < label_b; an entry is stale as soon as either community's
    # degree sum changed (every merge strictly increases it).
    heap: list[tuple] = []
    for u, v in ug.edges():
        du = comm_deg[u]
        dv = comm_deg[v]
        dq = inv_m - du * dv * inv_2m2
        heap.append((-dq, u, v, u, v, 1, du, dv))
    heapq.heapify(heap)

    q_initial = q
    best_q = q
    best_index = 0
    merge_rows: list[tuple[int, int, float, float]] = []
    heappop = heapq.heappop
    heappush = heapq.heappush
    deg_of = comm_deg.get

    while heap:
        neg_dq, la, lb, a, b, e, da, db = heappop(heap)
        if deg_of(a) != da or deg_of(b) != db:
            continue
        if nbr[a].get(b) != e:
            continue
        dq = e * inv_m - da * db * inv_2m2
        q += dq

        if len(nbr[a]) <= len(nbr[b]):
            small, big = a, b
        else:
            small, big = b, a
        small_nbrs = nbr.pop(small)
        big_nbrs = nbr[big]
        del small_nbrs[big]
        del big_nbrs[small]
        for x, ex in small_nbrs.items():
            x_nbrs = nbr[x]
            del x_nbrs[small]
            merged = big_nbrs.get(x, 0) + ex
            big_nbrs[x] = merged
            x_nbrs[big] = merged
        d_big = da + db
        comm_deg[big] = d_big
        del comm_deg[small]
        label[big] = la  # la < lb by construction
        del label[small]

        merge_rows.append((la, lb, dq, q))
        if q > best_q:
            best_q = q
            best_index = len(merge_rows)

        for x, ex in big_nbrs.items():
            dx = comm_deg[x]
            lx = label[x]
            ndq = ex * inv_m - d_big * dx * inv_2m2
            if la < lx:
                heappush(heap, (-ndq, la, lx, big, x, ex, d_big, dx))
            else:
                heappush(heap, (-ndq, lx, la, x, big, ex, dx, d_big))

    merges = tuple(CnmMerge(*row) for row in merge_rows)
    return CnmTrace(n, m, q_initial, merges, best_index, best_q)


# Report defects that export would otherwise crash on, or carry into its
# output: (keys down to the corrupted field, its new value or DELETE, the
# JSON path the schema violation names). The slug is a fixture code.
DELETE = object()
REPORT_DEFECTS = [
    pytest.param(("rich_club", "members"), 5, "$.rich_club.members", id="members-not-a-list"),
    pytest.param(("rich_club", "members"), [["sante_publique"]], "$.rich_club.members[0]",
                 id="member-is-a-list"),
    pytest.param(("rich_club", "top_citing"), DELETE, "$.rich_club.top_citing", id="no-top-citing"),
    pytest.param(("rich_club", "top_cited"), 7, "$.rich_club.top_cited", id="top-cited-not-a-list"),
    pytest.param(("roles", "sante_publique", "role"), 3, "$.roles.sante_publique.role",
                 id="role-not-a-string"),
    pytest.param(("roles", "sante_publique", "role"), "hub", "$.roles.sante_publique.role",
                 id="unknown-role"),
    pytest.param(("communities", "assignment"), [0, 1], "$.communities.assignment",
                 id="assignment-not-an-object"),
    pytest.param(("communities", "assignment", "not_a_code"), 0,
                 "$.communities.assignment.not_a_code", id="assignment-unknown-slug"),
    pytest.param(("communities", "assignment", "sante_publique"), "0",
                 "$.communities.assignment.sante_publique", id="assignment-not-an-int"),
    pytest.param(("schema_version",), 99, "$.schema_version", id="future-schema-version"),
]


def corrupt(payload: dict, keys: tuple, value) -> None:
    """Set (or, for DELETE, remove) the field at keys in payload, in place."""
    *parents, last = keys
    for key in parents:
        payload = payload[key]
    if value is DELETE:
        del payload[last]
    else:
        payload[last] = value


def assess(g: DiGraph, club, samples: int, seed: int, **config):
    """Assess g as the pipeline does: cohesion of club (None: no club) feeds the verdict.

    Extra keyword arguments are further PipelineConfig fields.
    """
    from lexnet.config import PipelineConfig
    from lexnet.nullmodels import club_cohesion, concentrated_world_assessment

    config = PipelineConfig(null_samples=samples, seed=seed, **config)
    ug = g.undirected_projection()
    present = club is not None and club_cohesion(g, ug, club, config)[0]
    return concentrated_world_assessment(g, ug, present, config)


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
