"""Degree statistics, vertex roles, rich-club analysis, clustering and paths.

All statistics use the unweighted citation relation (a link exists once a
code cites another at least once); citation multiplicities only enter the
explicitly weighted variants.
"""

from __future__ import annotations

import math
from array import array
from enum import Enum
from functools import partial
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateGraphError, LexnetError
from .graph import DiGraph, NodeId, UGraph, distance_counts
from .parallel import ordered_map


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


class NodeStats(NamedTuple):
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
        raise LexnetError(f"k must be in 1..{n}, got {k!r}")
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


class RichClub(NamedTuple):
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


def phi_table(ug: UGraph) -> dict[int, float | None]:
    """phi(k) for every k from 0 to the maximum degree, in one pass.

    phi(k) is the edge density among the nodes of degree strictly greater
    than k, and None (undefined) when fewer than two nodes qualify, as it
    is past the maximum degree: ``phi_table(ug).get(k)`` reads any k >= 0.
    A node counts towards phi(k) while its degree exceeds k, and an edge
    while its smaller endpoint degree does, so suffix sums over those two
    histograms give every n_k and e_k.
    """
    adj = ug.adj
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


def phi_at(ug: UGraph, k: int) -> float | None:
    """phi(k) alone, for any k >= 0: ``phi_table(ug).get(k)``, counted on the rich nodes only.

    The rich nodes R are those of degree above k, and phi(k) is e_k, the
    edges within R, over R's possible pairs. A degree-preserving rewiring
    keeps R, so a null graph's phi(k) costs one pass over R's neighbour
    sets rather than a whole table. The expression is phi_table's, so the
    float is the same.
    """
    adj = ug.adj
    rich = {v for v, nbrs in enumerate(adj) if len(nbrs) > k}
    n_k = len(rich)
    if n_k < 2:
        return None
    e_k = sum(len(adj[v] & rich) for v in rich) // 2
    return 2.0 * e_k / (n_k * (n_k - 1))


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0.0 for a single value).

    Each sum adds the values left to right, as ``sum()`` did before
    Python 3.12 made it compensated, so a report's bytes do not depend on
    the interpreter version.
    """
    k = len(values)
    total = 0.0
    for x in values:
        total += x
    mean = total / k
    if k < 2:
        return mean, 0.0
    squares = 0.0
    for x in values:
        squares += (x - mean) ** 2
    return mean, math.sqrt(squares / (k - 1))


class NormalizedPhi(NamedTuple):
    phi: float
    phi_null_mean: float
    phi_norm: float
    sample_stddev: float


def normalized_rich_club(ug: UGraph, k: int, null_phis: Iterable[float]) -> NormalizedPhi | None:
    """phi(k) normalized by its mean over null graphs of the same degrees.

    null_phis holds phi(k) of each null graph (a degree-preserving
    rewiring of ug, where phi(k) is defined whenever it is in ug) and is
    not read at all when phi(k) is undefined, as it is for k < 0. None
    when phi(k) is undefined or the null mean is zero; an empty
    ``null_phis`` raises ValueError.
    """
    phi = phi_at(ug, k) if k >= 0 else None
    if phi is None:
        return None
    values = list(null_phis)
    if not values:
        raise ValueError("null_phis must hold phi(k) of at least one graph")
    mean, stddev = mean_std(values)
    if mean == 0.0:
        return None
    return NormalizedPhi(phi, mean, phi / mean, stddev)


# -- clustering and paths -----------------------------------------------------


def global_clustering(ug: UGraph) -> float:
    """Transitivity: 3 * triangles / connected triples (0.0 without triples).

    Each edge {u, v} lies on |N(u) & N(v)| triangles, so summing that over
    the edges counts every triangle three times, once per edge.
    """
    adj = ug.adj
    closed = triples = 0
    for v, nbrs in enumerate(adj):
        d = len(nbrs)
        triples += d * (d - 1) // 2
        for u in nbrs:
            if u > v:
                closed += len(nbrs & adj[u])
    return closed / triples if triples else 0.0


def average_path_length(ug: UGraph) -> float:
    """Mean shortest-path distance over the largest connected component.

    Distances are averaged over unordered reachable pairs within the
    largest component (ties broken by smallest node id). A graph without
    an edge has no such pair and returns 0.0.
    """
    n = ug.node_count
    if n < 2:
        raise DegenerateGraphError("average path length needs at least 2 nodes")
    # a node's reach mask is its component, so one sweep also finds those
    counts, reach = distance_counts(ug.adj)
    sizes = [mask.bit_count() for mask in reach]
    size = max(sizes)
    if size < 2:
        return 0.0
    # the first node of the largest size is its component's smallest member
    largest = reach[sizes.index(size)]
    rows = (row for row, mask in zip(counts, reach) if mask == largest)
    total = sum(d * c for row in rows for d, c in enumerate(row, 1))
    pairs = size * (size - 1) // 2
    return total / 2 / pairs


# -- centrality -----------------------------------------------------------------


def _dependencies(adj: list[list[int]], s: int) -> array:
    """The dependency of source s on every node (0.0 for s and the nodes it cannot reach)."""
    n = len(adj)
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
    delta[s] = 0.0
    return array("d", delta)


def betweenness_scores(ug: UGraph) -> list[float]:
    """Shortest-path betweenness via per-source BFS accumulation (Brandes 2001).

    Values are the fraction of pair shortest paths passing through each
    node, i.e. the pair sums normalized by (n-1)(n-2)/2. The visiting
    order serves as the queue and, reversed, as the stack; a predecessor
    of w is any neighbor one step nearer the source, so none are stored.
    The sources run through ordered_map, and each row is added as it
    arrives, in source order, so every sum sees its addends in the order
    of one loop (an unreached node's 0.0 leaves a sum as it was) and the
    parent holds one row at a time.
    """
    n = ug.node_count
    adj = [sorted(nbrs) for nbrs in ug.adj]
    raw = [0.0] * n
    source_us = (n + 2 * ug.edge_count) / 5  # 0.11-0.2 us per node and arc end
    for delta in ordered_map(partial(_dependencies, adj), range(n), n * source_us):
        raw = list(map(add, raw, delta))
    if n < 3:
        return [0.0] * n
    norm = (n - 1) * (n - 2)  # raw counts ordered pairs, i.e. twice the unordered sum
    return [b / norm for b in raw]


def harmonic_closeness_scores(ug: UGraph) -> list[float]:
    """Harmonic closeness normalized by (n - 1); values lie in [0, 1]."""
    n = ug.node_count
    if n < 2:
        return [0.0] * n
    counts, _ = distance_counts(ug.adj)
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
