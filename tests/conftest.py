"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import heapq
import math
import random
import unicodedata
from collections import Counter, deque
from itertools import combinations
from typing import Iterator

import pytest
from hypothesis import strategies as st

from lexnet.communities import CnmMerge, CnmTrace
from lexnet.errors import DegenerateGraphError, LexnetError
from lexnet.extraction import _APOSTROPHES, _LIGATURES
from lexnet.graph import DiGraph, UGraph


def ugraph(n: int, edges) -> UGraph:
    """The simple graph on nodes 0..n-1 with the given (u, v) edges.

    A repeated edge, in either orientation, counts once. A node id
    outside 0..n-1 or a self-loop raises LexnetError, as does n < 1, so a
    graph built by hand meets the contract that UGraph(adj) trusts.
    """
    if n < 1:
        raise LexnetError("a graph needs at least one node")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        for w in (u, v):
            if not isinstance(w, int) or not 0 <= w < n:
                raise LexnetError(f"node id {w!r} outside 0..{n - 1}")
        if u == v:
            raise LexnetError(f"self-loop on node {u}")
        adj[u].add(v)
        adj[v].add(u)
    return UGraph(adj)


@st.composite
def ugraphs(draw, max_nodes: int = 12) -> UGraph:
    """Hypothesis strategy: small simple graphs, often disconnected."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return ugraph(n, [(u, v) for u, v in pairs if u != v])


def make_digraph(slugs, arcs):
    """Build a DiGraph from slug names and (source, target[, count]) triples.

    A count defaults to 1, and the counts of a repeated pair are summed.
    """
    counts: Counter[tuple[str, str]] = Counter()
    for s, t, *count in arcs:
        counts[s, t] += count[0] if count else 1
    return DiGraph(list(slugs), counts)


def digraph_from_ids(slugs, arcs) -> DiGraph:
    """Build a DiGraph from slugs and (source id, target id, count) triples.

    The counts of a repeated pair are summed.
    """
    counts: Counter[tuple[str, str]] = Counter()
    for s, t, c in arcs:
        counts[slugs[s], slugs[t]] += c
    return DiGraph(slugs, counts)


def make_ugraph(slugs, edges):
    """ugraph over the named nodes; an edge end is a slug or a node id."""
    index = {slug: v for v, slug in enumerate(slugs)}
    ends = [tuple(index[w] if isinstance(w, str) else w for w in edge) for edge in edges]
    return ugraph(len(slugs), ends)


def weights_by_slug(g: DiGraph) -> dict[tuple[str, str], int]:
    """The citation count of every arc, keyed by (citing slug, cited slug)."""
    return {(g.slug(s), g.slug(t)): w for s, t, w in g.arcs()}


def digraph_from_ugraph(ug: UGraph) -> DiGraph:
    """Embed an undirected graph as a digraph, one arc per edge (low -> high).

    This is how undirected baseline graphs (Watts-Strogatz, Erdos-Renyi)
    feed analyses defined on digraphs: no reciprocal arcs are invented,
    so arc counts equal edge counts. Node v is labeled ``v<i>``,
    zero-padded to one width so that slug order, which breaks rank ties,
    is node order.
    """
    width = len(str(ug.node_count - 1))
    slugs = [f"v{i:0{width}d}" for i in range(ug.node_count)]
    return digraph_from_ids(slugs, ((u, v, 1) for u, v in ug.edges()))


def planted_digraph(
    rng: random.Random, club: int, sizes, mu: float, out_arcs: int = 4
) -> tuple[DiGraph, list[list[str]]]:
    """A citation digraph with a planted club and planted communities.

    Nodes 0..club-1 form the club: each cites every other member. The
    communities of the given sizes follow, in node order. Each of their
    nodes cites one club member and ``out_arcs`` other nodes; each of
    those arcs leaves the node's community with probability mu, the
    mixing parameter of the LFR benchmark (Lancichinetti, Fortunato &
    Radicchi 2008), and then lands in another community. Slugs are
    ``n<i>`` zero-padded to one width. Returns the graph and the planted
    communities' slugs.
    """
    n = club + sum(sizes)
    width = len(str(n - 1))
    slugs = [f"n{v:0{width}d}" for v in range(n)]
    arcs = {(s, t) for s in range(club) for t in range(club) if s != t}
    communities = []
    start = club
    for size in sizes:
        communities.append(range(start, start + size))
        start += size
    for own in communities:
        others = [v for other in communities if other is not own for v in other]
        for s in own:
            arcs.add((s, s % club))
            placed = 0
            while placed < out_arcs:
                t = rng.choice(others if rng.random() < mu else own)
                if t != s and (s, t) not in arcs:
                    arcs.add((s, t))
                    placed += 1
    g = digraph_from_ids(slugs, ((s, t, 1) for s, t in sorted(arcs)))
    return g, [[slugs[v] for v in own] for own in communities]


def normalized_mutual_information(a: dict, b: dict) -> float:
    """NMI of two partitions of the same items, each a map item -> label.

    2 I(A; B) / (H(A) + H(B)), as in Danon, Diaz-Guilera, Duch & Arenas
    (2005); 1 when both partitions put every item in one group.
    """
    if a.keys() != b.keys():
        raise ValueError("the partitions cover different items")
    n = len(a)
    joint = Counter((a[x], b[x]) for x in a)
    count_a = Counter(a.values())
    count_b = Counter(b.values())

    def entropy(counts) -> float:
        return -sum(c / n * math.log(c / n) for c in counts.values())

    h = entropy(count_a) + entropy(count_b)
    if h == 0.0:
        return 1.0
    info = sum(c / n * math.log(c * n / (count_a[x] * count_b[y])) for (x, y), c in joint.items())
    return 2.0 * info / h


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
    return ugraph(n, rng.sample(pairs, m))


def random_digraph(rng: random.Random, n: int, arcs: int) -> DiGraph:
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return digraph_from_ids(
        [f"n{i:02d}" for i in range(n)],
        [(u, v, rng.randint(1, 3)) for u, v in rng.sample(pairs, min(arcs, len(pairs)))],
    )


# -- independent oracles -------------------------------------------------------


def brute_force_betweenness(ug: UGraph) -> list[float]:
    """Betweenness by explicit enumeration of every shortest path.

    Simple paths are enumerated by depth-first search, filtered to the
    minimum length per pair, and interior nodes are credited with their
    fraction; the result is normalized by (n-1)(n-2)/2 like the
    implementation under test but shares no code with it.
    """
    n = ug.node_count
    adj = [sorted(nbrs) for nbrs in ug.adj]
    acc = [0.0] * n
    for s, t in combinations(range(n), 2):
        paths = _all_simple_paths(adj, s, t)
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


def _all_simple_paths(adj, s: int, t: int) -> list[tuple[int, ...]]:
    paths = []
    stack = [(s, (s,))]
    while stack:
        v, path = stack.pop()
        if v == t:
            paths.append(path)
            continue
        for w in adj[v]:
            if w not in path:
                stack.append((w, path + (w,)))
    return paths


def reference_betweenness(ug: UGraph) -> list[float]:
    """Brandes betweenness with stored predecessor lists and an explicit stack.

    The same float operations in the same order as the implementation
    under test, which recognizes predecessors by distance instead.
    """
    n = ug.node_count
    adj = [sorted(nbrs) for nbrs in ug.adj]
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


def reference_average_path_length(ug: UGraph) -> float:
    """Average path length by one breadth-first search per source.

    Same conventions as the implementation under test (largest component,
    ties to the smallest node id) but finds components and distances on
    its own.
    """
    n = ug.node_count
    adj = ug.adj
    dists = [reference_bfs(adj, s)[1] for s in range(n)]
    components = {frozenset(v for v, d in enumerate(row) if d >= 0) for row in dists}
    largest = max(components, key=lambda c: (len(c), -min(c)))
    if len(largest) < 2:
        return 0.0
    total = sum(d for s in largest for d in dists[s] if d > 0)
    pairs = len(largest) * (len(largest) - 1) // 2
    return total / 2 / pairs


def reference_harmonic_closeness(ug: UGraph) -> list[float]:
    """Harmonic closeness summing 1/d over each search's visiting order."""
    n = ug.node_count
    if n < 2:
        return [0.0] * n
    adj = ug.adj
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
    for v in range(ug.node_count):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


def brute_force_phi(ug: UGraph, k: int) -> float | None:
    """Rich-club coefficient by direct recount of the induced subgraph."""
    adj = ug.adj
    rich = [v for v in range(ug.node_count) if len(adj[v]) > k]
    if len(rich) < 2:
        return None
    internal = sum(1 for u, v in combinations(rich, 2) if v in adj[u])
    possible = len(rich) * (len(rich) - 1) // 2
    return internal / possible


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of 0..n-1 as canonical strings, in lexicographic order."""
    if n == 0:
        return
    a = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, mx if v <= mx else v)

    yield from rec(1, 0)


def brute_force_best_partition(ug: UGraph) -> tuple[tuple[int, ...], float]:
    """Exhaustive modularity maximum over all set partitions (n <= 12).

    On ties the lexicographically smallest restricted-growth string wins,
    so the representative is deterministic.
    """
    n = ug.node_count
    if n > 12:
        raise LexnetError(f"exhaustive search is guarded at 12 nodes, got {n}")
    m = ug.edge_count
    if m == 0:
        raise DegenerateGraphError("modularity is undefined without edges")
    deg = [len(nbrs) for nbrs in ug.adj]
    edges = list(ug.edges())
    two_m = 2.0 * m
    best_q = -float("inf")
    best: tuple[int, ...] | None = None
    for rgs in restricted_growth_strings(n):
        c = max(rgs) + 1
        internal = [0] * c
        degree_sum = [0] * c
        for v in range(n):
            degree_sum[rgs[v]] += deg[v]
        for u, v in edges:
            if rgs[u] == rgs[v]:
                internal[rgs[u]] += 1
        q = 0.0
        for i in range(c):
            q += internal[i] / m - (degree_sum[i] / two_m) ** 2
        if q > best_q:
            best_q = q
            best = rgs
    assert best is not None
    return best, best_q


# -- reference generators --------------------------------------------------------
# The null-model generators as they were before their random draws were
# inlined, kept verbatim but for edge tests on a local adjacency and for
# building their results through ugraph, which checks them: the library
# versions must make the same draws and so give equal neighbour sets.


def reference_erdos_renyi_gnm(n: int, m: int, seed: int) -> UGraph:
    """Uniform simple graph with exactly n nodes and m edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise LexnetError(f"m={m} exceeds the simple-graph maximum {max_edges}")
    if m < 0:
        raise ValueError("m must be non-negative")
    rng = random.Random(seed)
    if n < 1:
        raise LexnetError("a graph needs at least one node")
    if m == 0:
        return ugraph(n, [])
    if max_edges <= 4 * m:
        # dense request: sample directly from the materialized pair list
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return ugraph(n, rng.sample(pairs, m))
    adj = [set() for _ in range(n)]
    edges = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or v in adj[u]:
            continue
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
    return ugraph(n, edges)


def reference_watts_strogatz(n: int, k_even: int, p: float, seed: int) -> UGraph:
    """Ring lattice of degree k_even with each lattice edge rewired with prob p.

    A rewired edge keeps its source endpoint and moves the other end to a
    uniform target that creates neither a self-loop nor a duplicate; if no
    such target exists the edge is left in place.
    """
    if k_even % 2 != 0 or k_even < 2 or k_even >= n:
        raise LexnetError(f"lattice degree must be even and in 2..n-1, got {k_even}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    half = k_even // 2
    for j in range(1, half + 1):
        for i in range(n):
            adj[i].add((i + j) % n)
            adj[(i + j) % n].add(i)
    for j in range(1, half + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            if len(adj[i]) >= n - 1:
                continue  # i is joined to everything else already
            while True:
                w = rng.randrange(n)
                if w != i and w not in adj[i]:
                    break
            adj[i].discard(old)
            adj[old].discard(i)
            adj[i].add(w)
            adj[w].add(i)
    return ugraph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def reference_rewire(ug: UGraph, swap_attempts: int, seed: int) -> UGraph:
    """Randomize by repeated double edge swaps; degrees are exactly preserved.

    Each attempt draws two distinct edges and an orientation, and swaps
    endpoints only when the replacement creates no self-loop and no
    duplicate edge; failed attempts leave the graph unchanged.
    """
    m = ug.edge_count
    if m < 2:
        raise LexnetError(f"rewiring needs at least 2 edges, got {m}")
    rng = random.Random(seed)
    edges = list(ug.edges())
    adj = [set(nbrs) for nbrs in ug.adj]
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
    return ugraph(ug.node_count, edges)


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
    adj = ug.adj
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


def reference_transitivity(ug: UGraph) -> float:
    """3 * triangles / connected triples, over reference_triangles_per_node."""
    triangle_total = sum(reference_triangles_per_node(ug)) // 3
    triples = sum(d * (d - 1) // 2 for d in map(len, ug.adj))
    return 3.0 * triangle_total / triples if triples else 0.0


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
        raise DegenerateGraphError("community detection needs at least one edge")
    n = ug.node_count
    inv_m = 1.0 / m
    inv_2m2 = 1.0 / (2.0 * m * m)
    two_m = 2.0 * m

    comm_deg: dict[int, int] = {}
    label: dict[int, int] = {}
    nbr: dict[int, dict[int, int]] = {}
    q = 0.0
    for v in range(n):
        d = len(ug.adj[v])
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
    pytest.param(("roles", "sante_publique"), 3, "$.roles.sante_publique",
                 id="roles-entry-not-an-object"),
    pytest.param(("roles", "sante_publique", "role"), 3, "$.roles.sante_publique.role",
                 id="role-not-a-string"),
    pytest.param(("roles", "sante_publique", "role"), "hub", "$.roles.sante_publique.role",
                 id="unknown-role"),
    pytest.param(("communities",), [], "$.communities", id="section-of-the-wrong-type"),
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

    Extra keyword arguments are further PipelineConfig fields. Without a
    club, the samples are drawn for the (1, 1) rich club, which any graph
    has, and its rewirings are not read.
    """
    from lexnet.config import PipelineConfig
    from lexnet.metrics import rich_club_members
    from lexnet.nullmodels import analysis_nulls, club_cohesion, concentrated_world_assessment

    config = PipelineConfig(null_samples=samples, seed=seed, **config)
    ug = g.undirected_projection()
    drawn_for = club if club is not None else rich_club_members(g, 1, 1)
    nulls = analysis_nulls(ug, drawn_for, config, baselines=True)
    present = club is not None and club_cohesion(g, ug, club, nulls)[0]
    return concentrated_world_assessment(g, ug, present, config, nulls)


def rewirings(ug: UGraph, samples: int, seed: int, swap_factor: int = 10) -> Iterator[UGraph]:
    """The null graphs analysis_nulls draws for club_cohesion, one at a time.

    Sample i makes ``swap_factor * edge_count`` swap attempts under the
    seed derived from (seed, "rewire:i"); analysis_nulls passes the
    "phi-norm" stream of its config seed.
    """
    from lexnet.nullmodels import degree_preserving_rewire
    from lexnet.seeding import derive_seed

    attempts = swap_factor * ug.edge_count
    for i in range(samples):
        yield degree_preserving_rewire(ug, attempts, derive_seed(seed, f"rewire:{i}"))


def rewired_phis(ug: UGraph, k: int, samples: int, seed: int,
                 swap_factor: int = 10) -> Iterator[float]:
    """phi(k) of each of the :func:`rewirings`, as club_cohesion feeds them to normalized_rich_club."""
    from lexnet.metrics import phi_table

    for null in rewirings(ug, samples, seed, swap_factor):
        yield phi_table(null)[k]


def degree_multiset(ug: UGraph) -> list[int]:
    return sorted(map(len, ug.adj))


@pytest.fixture(scope="session")
def fixture_graph():
    """The bundled 52-code fixture, run through the real extraction path."""
    from lexnet.extraction import CodeDocument, build_edge_list, load_registry
    from lexnet.fixture import fixture_corpus, fixture_registry_text
    from lexnet.report import parse_edge_list, write_edge_list, write_node_sidecar

    registry = load_registry(fixture_registry_text())
    corpus = [CodeDocument(slug, text) for slug, text in fixture_corpus().items()]
    rows = build_edge_list(corpus, registry)
    return parse_edge_list(write_edge_list(rows), write_node_sidecar(registry.slugs()))
