"""Degree statistics, vertex roles, rich-club analysis, clustering and paths.

All statistics use the unweighted citation relation (a link exists once a
code cites another at least once); citation multiplicities only enter the
explicitly weighted variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import (
    BadKError,
    DegenerateGraphError,
    NullModelDegenerateError,
    UndefinedCoefficientError,
)
from .graph import DiGraph, NodeId, UGraph, distance_counts
from .seeding import derive_seed


class Role(str, Enum):
    """Structural role of a vertex, by precedence.

    isolated (no arcs) beats pendant (exactly one incident arc), which
    beats source_only (cites but is never cited) and sink_only (cited but
    never citing); everything else is ordinary.
    """

    ISOLATED = "isolated"
    PENDANT = "pendant"
    SOURCE_ONLY = "source_only"
    SINK_ONLY = "sink_only"
    ORDINARY = "ordinary"


def classify_role(in_degree: int, out_degree: int) -> Role:
    total = in_degree + out_degree
    if total == 0:
        return Role.ISOLATED
    if total == 1:
        return Role.PENDANT
    if in_degree == 0:
        return Role.SOURCE_ONLY
    if out_degree == 0:
        return Role.SINK_ONLY
    return Role.ORDINARY


@dataclass(frozen=True)
class NodeStats:
    node: NodeId
    in_degree: int
    out_degree: int
    total_degree: int
    role: Role


def degree_profile(g: DiGraph) -> list[NodeStats]:
    """Per-node degrees and role, indexed by node id."""
    profile = []
    for v in g.node_ids():
        ind = g.in_degree(v)
        outd = g.out_degree(v)
        profile.append(NodeStats(v, ind, outd, ind + outd, classify_role(ind, outd)))
    return profile


def density(g: DiGraph) -> float:
    """Arc density: arcs / (n * (n - 1))."""
    n = g.node_count
    if n < 2:
        raise DegenerateGraphError("density needs at least 2 nodes")
    return g.arc_count / (n * (n - 1))


class Ranking(NamedTuple):
    nodes: list[NodeId]
    truncated_tie: bool


def _top_by_degree(g: DiGraph, k: int, degree_of) -> Ranking:
    n = g.node_count
    if not isinstance(k, int) or k < 1 or k > n:
        raise BadKError(f"k must be in 1..{n}, got {k!r}")
    order = sorted(g.node_ids(), key=lambda v: (-degree_of(v), g.slug(v)))
    tie = k < n and degree_of(order[k - 1]) == degree_of(order[k])
    return Ranking(order[:k], tie)


def top_citing(g: DiGraph, k: int) -> Ranking:
    """The k nodes of highest out-degree (most citing), ties by slug.

    The flag reports a truncated tie: the k-th value equals the (k+1)-th,
    so membership at the boundary was decided by slug order alone.
    """
    return _top_by_degree(g, k, g.out_degree)


def top_cited(g: DiGraph, k: int) -> Ranking:
    """The k nodes of highest in-degree (most cited), ties by slug."""
    return _top_by_degree(g, k, g.in_degree)


@dataclass(frozen=True)
class RichClub:
    """The union of the most-citing and most-cited nodes plus cohesion stats.

    quotation_capture is the fraction of arcs with at least one endpoint in
    the club; the weighted variant counts citation multiplicities instead
    of arcs.
    """

    members: frozenset[NodeId]
    top_citing: tuple[NodeId, ...]
    top_cited: tuple[NodeId, ...]
    internal_arcs: int
    internal_density: float
    quotation_capture: float
    quotation_capture_weighted: float

    @property
    def overlap(self) -> frozenset[NodeId]:
        return frozenset(self.top_citing) & frozenset(self.top_cited)


def rich_club_members(g: DiGraph, k_citing: int, k_cited: int) -> RichClub:
    """Select the rich club as top_citing(k_citing) union top_cited(k_cited)."""
    citing = top_citing(g, k_citing).nodes
    cited = top_cited(g, k_cited).nodes
    members = frozenset(citing) | frozenset(cited)
    size = len(members)
    internal = 0
    incident = 0
    incident_weight = 0
    for s, t, w in g.arcs():
        s_in = s in members
        t_in = t in members
        if s_in and t_in:
            internal += 1
        if s_in or t_in:
            incident += 1
            incident_weight += w
    internal_density = internal / (size * (size - 1)) if size > 1 else 0.0
    total_arcs = g.arc_count
    total_weight = g.weight_total
    return RichClub(
        members=members,
        top_citing=tuple(citing),
        top_cited=tuple(cited),
        internal_arcs=internal,
        internal_density=internal_density,
        quotation_capture=incident / total_arcs if total_arcs else 0.0,
        quotation_capture_weighted=incident_weight / total_weight if total_weight else 0.0,
    )


def rich_club_coefficient(ug: UGraph, k: int) -> float | None:
    """phi(k): edge density among nodes of degree strictly greater than k.

    Returns None (undefined) when fewer than two nodes qualify.
    """
    rich = [v for v in ug.node_ids() if ug.degree(v) > k]
    n_k = len(rich)
    if n_k < 2:
        return None
    rich_set = set(rich)
    e_k = sum(1 for u, v in ug.edges() if u in rich_set and v in rich_set)
    return 2.0 * e_k / (n_k * (n_k - 1))


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0.0 for a single value)."""
    k = len(values)
    mean = sum(values) / k
    if k < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in values) / (k - 1)
    return mean, math.sqrt(var)


class NormalizedPhi(NamedTuple):
    phi: float
    phi_null_mean: float
    phi_norm: float
    sample_stddev: float


def normalized_rich_club(
    ug: UGraph, k: int, samples: int, seed: int, swap_factor: int
) -> NormalizedPhi:
    """phi(k) normalized by its mean over degree-preserving rewirings.

    Each null sample applies ``swap_factor * edge_count`` attempted double
    edge swaps under a seed derived from (seed, sample index), so results
    are reproducible and samples are independent of evaluation order.
    """
    from .nullmodels import degree_preserving_rewire

    phi = rich_club_coefficient(ug, k)
    if phi is None:
        raise UndefinedCoefficientError(f"phi({k}) undefined: fewer than 2 nodes exceed degree {k}")
    if samples < 1:
        raise ValueError("samples must be positive")
    attempts = swap_factor * ug.edge_count
    values = []
    for i in range(samples):
        null = degree_preserving_rewire(ug, attempts, derive_seed(seed, f"rewire:{i}"))
        null_phi = rich_club_coefficient(null, k)
        # the degree sequence is preserved, so phi stays defined
        values.append(0.0 if null_phi is None else null_phi)
    mean, stddev = mean_std(values)
    if mean == 0.0:
        raise NullModelDegenerateError(f"null-model mean of phi({k}) is zero")
    return NormalizedPhi(phi, mean, phi / mean, stddev)


# -- clustering and paths -----------------------------------------------------


def triangles_per_node(ug: UGraph) -> list[int]:
    """Number of triangles each node participates in.

    Each edge {u, v} lies on |N(u) & N(v)| triangles; summing that over
    the edges at a node counts each of its triangles twice, once per edge.
    """
    adj = ug._adj  # read only
    twice = [0] * len(adj)
    for v, nbrs in enumerate(adj):
        for u in nbrs:
            if u > v:
                shared = len(nbrs & adj[u])
                twice[v] += shared
                twice[u] += shared
    return [t // 2 for t in twice]


class ClusteringSummary(NamedTuple):
    transitivity: float
    average_local: float


def global_clustering(ug: UGraph) -> ClusteringSummary:
    """Transitivity and the mean local clustering coefficient.

    Transitivity is 3 * triangles / connected triples; the local average
    runs over nodes of degree >= 2 only. Both are 0 on triangle-free
    graphs (and when no node has two neighbors).
    """
    tri = triangles_per_node(ug)
    triangle_total = sum(tri) // 3
    triples = 0
    local = []
    adj = ug._adj  # read only
    for v in ug.node_ids():
        d = len(adj[v])
        if d >= 2:
            pairs = d * (d - 1) // 2
            triples += pairs
            local.append(tri[v] / pairs)
    transitivity = 3.0 * triangle_total / triples if triples else 0.0
    average_local = sum(local) / len(local) if local else 0.0
    return ClusteringSummary(transitivity, average_local)


class PathSummary(NamedTuple):
    average: float
    reachable_pair_fraction: float


def average_path_length(ug: UGraph) -> PathSummary:
    """Mean shortest-path distance over the largest connected component.

    Distances are averaged over unordered reachable pairs within the
    largest component (ties broken by smallest node id); the fraction of
    all node pairs that are reachable is reported alongside so smaller
    components and isolated vertices stay visible.
    """
    n = ug.node_count
    if n < 2:
        raise DegenerateGraphError("average path length needs at least 2 nodes")
    components = ug.connected_components()
    largest = max(components, key=lambda c: (len(c), -min(c)))
    reachable_pairs = sum(len(c) * (len(c) - 1) // 2 for c in components)
    fraction = reachable_pairs / (n * (n - 1) // 2)
    if len(largest) < 2:
        return PathSummary(0.0, fraction)
    # sweep the largest component alone, so its masks are |largest| bits wide
    nodes = sorted(largest)
    local = {v: i for i, v in enumerate(nodes)}
    adj = ug.adjacency()
    counts, _ = distance_counts([[local[w] for w in adj[v]] for v in nodes])
    total = sum(d * c for row in counts for d, c in enumerate(row, 1))
    pairs = len(largest) * (len(largest) - 1) // 2
    return PathSummary(total / 2 / pairs, fraction)


# -- centrality -----------------------------------------------------------------


def betweenness_scores(ug: UGraph) -> list[float]:
    """Shortest-path betweenness via per-source BFS accumulation (Brandes 2001).

    Values are the fraction of pair shortest paths passing through each
    node, i.e. the pair sums normalized by (n-1)(n-2)/2. The visiting
    order serves as the queue and, reversed, as the stack; a predecessor
    of w is any neighbor one step nearer the source, so none are stored.
    """
    n = ug.node_count
    adj = [sorted(nbrs) for nbrs in ug.adjacency()]
    raw = [0.0] * n
    for s in range(n):
        sigma = [0.0] * n
        dist = [-1] * n
        sigma[s] = 1.0
        dist[s] = 0
        order = [s]
        for v in order:  # the loop also visits the nodes appended below
            farther = dist[v] + 1
            paths = sigma[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = farther
                    order.append(w)
                    sigma[w] += paths
                elif dist[w] == farther:
                    sigma[w] += paths
        delta = [0.0] * n
        for w in reversed(order):
            nearer = dist[w] - 1
            paths = sigma[w]
            share = 1.0 + delta[w]
            for v in adj[w]:
                if dist[v] == nearer:
                    delta[v] += sigma[v] / paths * share
            if w != s:
                raw[w] += delta[w]
    if n < 3:
        return [0.0] * n
    norm = (n - 1) * (n - 2)  # raw counts ordered pairs, i.e. twice the unordered sum
    return [b / norm for b in raw]


def harmonic_closeness_scores(ug: UGraph) -> list[float]:
    """Harmonic closeness normalized by (n - 1); values lie in [0, 1]."""
    n = ug.node_count
    if n < 2:
        return [0.0] * n
    counts, _ = distance_counts(ug.adjacency())
    scores = []
    for row in counts:
        # 1/d once per node at distance d, nearest first: the same float
        # additions, in the same order, as summing over a breadth-first visit
        total = 0.0
        for d, c in enumerate(row, 1):
            inverse = 1.0 / d
            for _ in range(c):
                total += inverse
        scores.append(total / (n - 1))
    return scores


def degree_centrality(g: DiGraph) -> list[float]:
    """(in + out) / (2 (n - 1)) for every node of the digraph."""
    n = g.node_count
    if n < 2:
        return [0.0] * n
    return [(g.in_degree(v) + g.out_degree(v)) / (2 * (n - 1)) for v in g.node_ids()]


def phi_table(ug: UGraph) -> dict[int, float | None]:
    """phi(k) for every k from 0 to the maximum degree, in one pass.

    A node counts towards phi(k) while its degree exceeds k, and an edge
    while its smaller endpoint degree does, so suffix sums over those two
    histograms give every n_k and e_k; the values equal
    :func:`rich_club_coefficient` exactly.
    """
    adj = ug.adjacency()
    degree = [len(nbrs) for nbrs in adj]
    max_deg = max(degree, default=0)
    nodes_at = [0] * (max_deg + 1)
    edges_at = [0] * (max_deg + 1)
    for u, nbrs in enumerate(adj):
        nodes_at[degree[u]] += 1
        for v in nbrs:
            if v > u:
                edges_at[min(degree[u], degree[v])] += 1
    phis: list[float | None] = []
    n_k = e_k = 0  # nodes and edges with every endpoint degree above k
    for k in range(max_deg, -1, -1):
        phis.append(2.0 * e_k / (n_k * (n_k - 1)) if n_k >= 2 else None)
        n_k += nodes_at[k]
        e_k += edges_at[k]
    return dict(enumerate(reversed(phis)))
