"""Random-graph baselines and the concentrated-world assessment.

Seeded generators produce identical graphs for identical inputs; multi
sample statistics derive one child seed per sample so draws are
independent of evaluation order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BadLatticeDegreeError,
    DegenerateGraphError,
    NullModelDegenerateError,
    TooFewEdgesError,
    TooManyEdgesError,
    UndefinedCoefficientError,
)
from .graph import DiGraph, NodeLabel, UGraph
from .metrics import (
    RichClub,
    average_path_length,
    density,
    global_clustering,
    normalized_rich_club,
)
from .seeding import derive_seed


def _generic_labels(n: int) -> list[NodeLabel]:
    width = max(1, len(str(n - 1)))
    return [NodeLabel(f"v{i:0{width}d}") for i in range(n)]


def erdos_renyi_gnm(n: int, m: int, seed: int) -> UGraph:
    """Uniform simple graph with exactly n nodes and m edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise TooManyEdgesError(f"m={m} exceeds the simple-graph maximum {max_edges}")
    if m < 0:
        raise ValueError("m must be non-negative")
    rng = random.Random(seed)
    ug = UGraph(_generic_labels(n))
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


def watts_strogatz(n: int, k_even: int, p: float, seed: int) -> UGraph:
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
    ug = UGraph(_generic_labels(n))
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


def degree_preserving_rewire(ug: UGraph, swap_attempts: int, seed: int) -> UGraph:
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
    result = UGraph(ug.labels)
    for u, v in edges:
        result.add_edge(u, v)
    return result


# -- baseline statistics -----------------------------------------------------------


@dataclass(frozen=True)
class NullModelStats:
    """Sample statistics of one baseline family."""

    model: str  # er_gnm | watts_strogatz | rewired
    samples: int
    seed: int
    params: dict
    density_mean: float
    clustering_mean: float
    clustering_stddev: float
    path_length_mean: float
    path_length_stddev: float


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    k = len(values)
    mean = sum(values) / k
    if k < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in values) / (k - 1)
    return mean, math.sqrt(var)


def _stats_over(model: str, params: dict, graphs: Sequence[UGraph], seed: int) -> NullModelStats:
    densities = []
    clusterings = []
    paths = []
    for ug in graphs:
        n = ug.node_count
        densities.append(2.0 * ug.edge_count / (n * (n - 1)))
        clusterings.append(global_clustering(ug).transitivity)
        paths.append(average_path_length(ug).average)
    c_mean, c_std = _mean_std(clusterings)
    p_mean, p_std = _mean_std(paths)
    return NullModelStats(
        model=model,
        samples=len(graphs),
        seed=seed,
        params=params,
        density_mean=sum(densities) / len(densities),
        clustering_mean=c_mean,
        clustering_stddev=c_std,
        path_length_mean=p_mean,
        path_length_stddev=p_std,
    )


def er_baseline(n: int, m: int, samples: int, seed: int) -> NullModelStats:
    graphs = [erdos_renyi_gnm(n, m, derive_seed(seed, f"er:{i}")) for i in range(samples)]
    return _stats_over("er_gnm", {"n": n, "m": m}, graphs, seed)


def ws_baseline(n: int, k_even: int, p: float, samples: int, seed: int) -> NullModelStats:
    graphs = [watts_strogatz(n, k_even, p, derive_seed(seed, f"ws:{i}")) for i in range(samples)]
    return _stats_over("watts_strogatz", {"n": n, "k": k_even, "p": p}, graphs, seed)


# -- assessment ----------------------------------------------------------------------


@dataclass(frozen=True)
class AssessmentThresholds:
    """Decision-rule parameters; defaults live in the pipeline config."""

    degree_fraction: float = 0.15  # concentrated: mean total degree >= fraction * (n-1)
    transitivity_factor: float = 2.5  # small world: transitivity >= factor * ER mean
    path_length_factor: float = 1.5  # small world: path length <= factor * ER mean
    sparse_sigma: float = 2.0  # sparse-random: transitivity within sigma of ER


VERDICTS = ("concentrated_world", "small_world_like", "sparse_random_like", "inconclusive")


@dataclass(frozen=True)
class Assessment:
    """Observed statistics against ER and WS baselines, plus the verdict."""

    observed_density: float
    observed_transitivity: float
    observed_path_length: float
    observed_mean_total_degree: float
    baselines: tuple[NullModelStats, ...]
    density_ratio_vs_er: float
    clustering_ratio_vs_er: float
    rich_club_present: bool
    verdict: str


def club_cohesion(
    g: DiGraph,
    ug: UGraph,
    club: RichClub,
    samples: int,
    seed: int,
    swap_factor: int = 10,
):
    """Check the two-part cohesion rule for a candidate rich club.

    Cohesion holds when the club's internal arc density strictly exceeds
    the overall graph density and the normalized rich-club coefficient at
    k = the minimum member degree (on the projection) exceeds 1. Returns
    (validated, k, NormalizedPhi-or-None).
    """
    k = min(ug.degree(v) for v in club.members)
    try:
        norm = normalized_rich_club(ug, k, samples, seed, swap_factor)
    except (UndefinedCoefficientError, NullModelDegenerateError, TooFewEdgesError):
        return False, k, None
    validated = club.internal_density > density(g) and norm.phi_norm > 1.0
    return validated, k, norm


def concentrated_world_assessment(
    g: DiGraph,
    ug: UGraph,
    rich_club_present: bool,
    samples: int,
    seed: int,
    thresholds: AssessmentThresholds = AssessmentThresholds(),
    ws_p: float = 0.1,
) -> Assessment:
    """Classify the network against density-matched ER and WS baselines.

    ug is the undirected projection of g, and rich_club_present is the
    verdict of :func:`club_cohesion` on the candidate rich club; both are
    taken as inputs so one analysis computes each of them once. The
    verdict rule, evaluated in order:
      concentrated_world - mean total degree >= degree_fraction * (n-1)
        and the rich club's cohesion validates;
      small_world_like - transitivity >= transitivity_factor * ER mean and
        path length <= path_length_factor * ER mean;
      sparse_random_like - transitivity within sparse_sigma ER standard
        deviations of the ER mean;
      inconclusive - otherwise.
    """
    n = g.node_count
    if n < 3:
        raise DegenerateGraphError("assessment needs at least 3 nodes")
    m = ug.edge_count

    observed_density = density(g)
    observed_transitivity = global_clustering(ug).transitivity
    observed_path = average_path_length(ug).average
    mean_total_degree = 2.0 * g.arc_count / n

    er = er_baseline(n, m, samples, derive_seed(seed, "er-baseline"))
    mean_degree = 2.0 * m / n
    k_even = max(2, int(round(mean_degree / 2.0)) * 2)
    if k_even >= n:
        k_even = (n - 1) if (n - 1) % 2 == 0 else n - 2
    ws = ws_baseline(n, k_even, ws_p, samples, derive_seed(seed, "ws-baseline"))
    baselines = (er, ws)

    undirected_density = 2.0 * m / (n * (n - 1))
    density_ratio = undirected_density / er.density_mean if er.density_mean else 0.0
    clustering_ratio = (
        observed_transitivity / er.clustering_mean if er.clustering_mean else 0.0
    )

    dense_enough = mean_total_degree >= thresholds.degree_fraction * (n - 1)
    if dense_enough and rich_club_present:
        verdict = "concentrated_world"
    elif (
        er.clustering_mean > 0.0
        and observed_transitivity >= thresholds.transitivity_factor * er.clustering_mean
        and observed_path <= thresholds.path_length_factor * er.path_length_mean
    ):
        verdict = "small_world_like"
    elif abs(observed_transitivity - er.clustering_mean) <= thresholds.sparse_sigma * er.clustering_stddev:
        verdict = "sparse_random_like"
    else:
        verdict = "inconclusive"

    return Assessment(
        observed_density=observed_density,
        observed_transitivity=observed_transitivity,
        observed_path_length=observed_path,
        observed_mean_total_degree=mean_total_degree,
        baselines=baselines,
        density_ratio_vs_er=density_ratio,
        clustering_ratio_vs_er=clustering_ratio,
        rich_club_present=rich_club_present,
        verdict=verdict,
    )
