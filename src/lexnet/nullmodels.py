"""Random-graph baselines and the concentrated-world assessment.

Seeded generators produce identical graphs for identical inputs; multi
sample statistics derive one child seed per sample, so a sample does not
depend on the order or the process that draws it. A null ensemble is
the task that draws sample i and its sample count (``_Ensemble``).
:func:`analysis_nulls` is the one place that draws null samples: every
sample one analysis reads (the cohesion test's rewirings, then the ER
and the WS samples), through one ``ordered_map`` whose children are
forked once, on the usable CPUs when the samples are worth the forks,
and reaped before it returns. It returns them as values (:class:`Nulls`),
which :func:`club_cohesion` and :func:`concentrated_world_assessment`
take as an argument; :func:`er_baseline` and :func:`ws_baseline` fold a
baseline's samples into its statistics.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from .config import PipelineConfig
from .errors import DegenerateGraphError, LexnetError
from .graph import DiGraph, UGraph
from .metrics import (
    RichClub,
    average_path_length,
    density,
    global_clustering,
    mean_std,
    normalized_rich_club,
    phi_at,
)
from .parallel import ordered_map
from .seeding import derive_seed


def erdos_renyi_gnm(n: int, m: int, seed: int) -> UGraph:
    """Uniform simple graph with exactly n nodes and m edges.

    A sparse request draws node pairs with rejection. Each node is drawn
    as ``rng.randrange(n)`` draws it, inlined: ``getrandbits`` of n's bit
    length, redrawn while it is >= n, so a seed gives the same graph as
    the ``randrange`` loop with less interpreter work per draw.
    """
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise LexnetError(f"m={m} exceeds the simple-graph maximum {max_edges}")
    if m < 0:
        raise ValueError("m must be non-negative")
    rng = random.Random(seed)
    if n < 1:
        raise LexnetError("a graph needs at least one node")
    adj: list[set[int]] = [set() for _ in range(n)]
    if max_edges <= 4 * m:
        # dense request: sample directly from the materialized pair list
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for u, v in rng.sample(pairs, m):
            adj[u].add(v)
            adj[v].add(u)
    else:
        getrandbits = rng.getrandbits
        bits = n.bit_length()
        added = 0
        while added < m:
            u = getrandbits(bits)
            while u >= n:
                u = getrandbits(bits)
            v = getrandbits(bits)
            while v >= n:
                v = getrandbits(bits)
            if u == v:
                continue
            u_nbrs = adj[u]
            if v in u_nbrs:
                continue
            u_nbrs.add(v)
            adj[v].add(u)
            added += 1
    return UGraph(adj)


def watts_strogatz(n: int, k_even: int, p: float, seed: int) -> UGraph:
    """Ring lattice of degree k_even with each lattice edge rewired with prob p.

    A rewired edge keeps its source endpoint and moves the other end to a
    uniform target that creates neither a self-loop nor a duplicate; if no
    such target exists the edge is left in place. Targets are drawn as
    ``rng.randrange(n)`` draws them, inlined (``getrandbits`` of n's bit
    length with rejection), so a seed gives the same graph as the
    ``random()``/``randrange`` loop with less interpreter work per draw.
    """
    if k_even % 2 != 0 or k_even < 2 or k_even >= n:
        raise LexnetError(f"lattice degree must be even and in 2..n-1, got {k_even}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    random_ = rng.random
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    half = k_even // 2
    # k_even < n, so each node has k_even distinct lattice neighbors
    offsets = [j for j in range(-half, half + 1) if j]
    adj = [{(i + j) % n for j in offsets} for i in range(n)]
    for j in range(1, half + 1):
        for i in range(n):
            if random_() >= p:
                continue
            i_nbrs = adj[i]
            if len(i_nbrs) >= n - 1:
                continue  # i is joined to everything else already
            while True:
                w = getrandbits(bits)
                while w >= n:
                    w = getrandbits(bits)
                if w != i and w not in i_nbrs:
                    break
            old = (i + j) % n
            i_nbrs.discard(old)
            adj[old].discard(i)
            i_nbrs.add(w)
            adj[w].add(i)
    return UGraph(adj)


def degree_preserving_rewire(
    ug: UGraph, swap_attempts: int, seed: int, edges: Sequence[tuple[int, int]] | None = None
) -> UGraph:
    """Randomize by repeated double edge swaps; degrees are exactly preserved.

    Each attempt draws two distinct edges and an orientation, and swaps
    endpoints only when the replacement creates no self-loop and no
    duplicate edge; failed attempts leave the graph unchanged. The edge
    indices are drawn as ``rng.randrange`` draws them, inlined
    (``getrandbits`` of the bound's bit length, redrawn while it is out of
    range), and the orientation by ``rng.random()``, so a seed gives the
    same graph as the ``randrange`` loop with less interpreter work per
    attempt. edges, when given, is ``list(ug.edges())``, for a caller that
    rewires one graph many times; it is copied, not changed.

    The swapped neighbour sets become the result as they are, neither
    re-added nor compacted. Swap churn leaves their tables about 1.6x
    the size of freshly built ones, but a compacting copy holds both at
    once: it raised a rewiring's traced peak from 62 to 90 KiB on the
    fixture and from 632 to 1,022 KiB on an ER graph of 500 nodes and
    2,500 edges, for a null graph that lives only until its phi(k) is
    counted.
    """
    m = ug.edge_count
    if m < 2:  # the draw of a second, distinct edge would never end
        raise LexnetError(f"rewiring needs at least 2 edges, got {m}")
    rng = random.Random(seed)
    random_ = rng.random
    getrandbits = rng.getrandbits
    m_bits = m.bit_length()
    rest = m - 1
    rest_bits = rest.bit_length()
    edges = list(ug.edges() if edges is None else edges)
    adj = [set(nbrs) for nbrs in ug.adj]
    for _ in range(swap_attempts):
        i = getrandbits(m_bits)
        while i >= m:
            i = getrandbits(m_bits)
        j = getrandbits(rest_bits)
        while j >= rest:
            j = getrandbits(rest_bits)
        if j >= i:
            j += 1
        a, b = edges[i]
        if random_() < 0.5:
            a, b = b, a
        c, d = edges[j]
        # proposed replacement: {a, d} and {c, b}
        if a == d or c == b:
            continue
        a_nbrs = adj[a]
        c_nbrs = adj[c]
        if d in a_nbrs or b in c_nbrs:
            continue
        b_nbrs = adj[b]
        d_nbrs = adj[d]
        a_nbrs.discard(b)
        b_nbrs.discard(a)
        c_nbrs.discard(d)
        d_nbrs.discard(c)
        a_nbrs.add(d)
        d_nbrs.add(a)
        c_nbrs.add(b)
        b_nbrs.add(c)
        edges[i] = (a, d) if a < d else (d, a)
        edges[j] = (c, b) if c < b else (b, c)
    return UGraph(adj)


# -- baseline statistics -----------------------------------------------------------


class NullModelStats(NamedTuple):
    """Sample statistics of one baseline family."""

    model: str  # er_gnm | watts_strogatz
    samples: int
    seed: int
    params: dict
    density_mean: float
    clustering_mean: float
    clustering_stddev: float
    path_length_mean: float
    path_length_stddev: float


def _sample_stats(ug: UGraph) -> tuple[float, float, float]:
    """(density, clustering, path length) of one sample graph."""
    n = ug.node_count
    return 2.0 * ug.edge_count / (n * (n - 1)), global_clustering(ug), average_path_length(ug)


def _stats_over(model: str, params: dict, samples: list[tuple], seed: int) -> NullModelStats:
    """Statistics over the per-sample (density, clustering, path length), in sample order."""
    densities, clusterings, paths = zip(*samples)
    density_mean, _ = mean_std(densities)
    c_mean, c_std = mean_std(clusterings)
    p_mean, p_std = mean_std(paths)
    return NullModelStats(
        model=model,
        samples=len(samples),
        seed=seed,
        params=params,
        density_mean=density_mean,
        clustering_mean=c_mean,
        clustering_stddev=c_std,
        path_length_mean=p_mean,
        path_length_stddev=p_std,
    )


# -- null ensembles --------------------------------------------------------------------


class _Ensemble(NamedTuple):
    """A null ensemble: sample i is ``draw(i)``, estimated at cost_us microseconds."""

    draw: Callable[[int], object] | None  # None only when there are no samples
    samples: int
    cost_us: float


_NO_SAMPLES = _Ensemble(None, 0, 0.0)


def _draw(task: tuple[Callable[[int], object], int]) -> object:
    draw, i = task
    return draw(i)


def _least_degree(ug: UGraph, club: RichClub) -> int:
    """k of the cohesion test: the least degree of a club member on the projection."""
    return min(len(ug.adj[v]) for v in club.members)


def _rewirings(ug: UGraph, k: int, config: PipelineConfig) -> _Ensemble:
    """The cohesion test's nulls: phi(k) of ``config.null_samples`` rewirings of ug.

    There are none when ug has fewer than two edges to rewire or phi(k) is
    undefined, since the test then reads none.
    """
    if ug.edge_count < 2 or phi_at(ug, k) is None:
        return _NO_SAMPLES
    attempts = config.rewire_budget_factor * ug.edge_count
    seed = derive_seed(config.seed, "phi-norm")
    edges = list(ug.edges())

    def null_phi(i: int) -> float:
        null = degree_preserving_rewire(ug, attempts, derive_seed(seed, f"rewire:{i}"), edges)
        return phi_at(null, k)  # a rewiring keeps every degree, so phi(k) stays defined

    # a rewiring takes 0.8-1 us per swap attempt
    return _Ensemble(null_phi, config.null_samples, attempts)


def _lattice_degree(n: int, m: int) -> int:
    """The WS baseline's lattice degree: even, below n, and near the mean of n nodes and m edges."""
    mean_degree = 2.0 * m / n
    k_even = max(2, int(round(mean_degree / 2.0)) * 2)
    if k_even >= n:
        k_even = (n - 1) if (n - 1) % 2 == 0 else n - 2
    return k_even


def _er_samples(n: int, m: int, config: PipelineConfig) -> _Ensemble:
    seed = derive_seed(config.seed, "er-baseline")
    return _Ensemble(
        lambda i: _sample_stats(erdos_renyi_gnm(n, m, derive_seed(seed, f"er:{i}"))),
        config.null_samples,
        n + 2 * m,  # a sample's draw and statistics take 0.7-1.8 us per node and arc end
    )


def _ws_samples(n: int, m: int, config: PipelineConfig) -> _Ensemble:
    k_even, p = _lattice_degree(n, m), config.ws_p
    seed = derive_seed(config.seed, "ws-baseline")
    return _Ensemble(
        lambda i: _sample_stats(watts_strogatz(n, k_even, p, derive_seed(seed, f"ws:{i}"))),
        config.null_samples,
        n + n * k_even,  # as for ER, with n * k_even / 2 edges
    )


class Nulls(NamedTuple):
    """The null samples one analysis reads, in sample order (see :func:`analysis_nulls`)."""

    phis: list[float]  # phi(k) of each rewiring, for club_cohesion
    er: list[tuple[float, float, float]]  # (density, clustering, path length) of each ER sample
    ws: list[tuple[float, float, float]]  # the same of each WS sample


def analysis_nulls(ug: UGraph, club: RichClub, config: PipelineConfig, baselines: bool) -> Nulls:
    """Every null sample one analysis reads, drawn through one ``ordered_map``.

    The rewirings that :func:`club_cohesion` reads for club, none when it
    cannot use them; then, with baselines, the density-matched ER and WS
    samples of :func:`concentrated_world_assessment`, none below 3 nodes,
    where it raises. The map is read to the end, so its children are
    reaped before this returns.
    """
    n, m = ug.node_count, ug.edge_count
    ensembles = [_rewirings(ug, _least_degree(ug, club), config), _NO_SAMPLES, _NO_SAMPLES]
    if baselines and n >= 3:
        ensembles[1:] = _er_samples(n, m, config), _ws_samples(n, m, config)
    tasks = [(e.draw, i) for e in ensembles for i in range(e.samples)]
    drawn = iter(list(ordered_map(_draw, tasks, sum(e.samples * e.cost_us for e in ensembles))))
    return Nulls(*([next(drawn) for _ in range(e.samples)] for e in ensembles))


def er_baseline(n: int, m: int, seed: int, samples: list[tuple]) -> NullModelStats:
    """Statistics of ER samples of n nodes and m edges drawn from seed's stream (``Nulls.er``)."""
    return _stats_over("er_gnm", {"n": n, "m": m}, samples, seed)


def ws_baseline(n: int, k_even: int, p: float, seed: int, samples: list[tuple]) -> NullModelStats:
    """Statistics of WS samples of n nodes drawn from seed's stream (``Nulls.ws``)."""
    return _stats_over("watts_strogatz", {"n": n, "k": k_even, "p": p}, samples, seed)


# -- assessment ----------------------------------------------------------------------


class Assessment(NamedTuple):
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


def club_cohesion(g: DiGraph, ug: UGraph, club: RichClub, config: PipelineConfig, nulls: Nulls):
    """Check the two-part cohesion rule for a candidate rich club.

    Cohesion holds when the club's internal arc density strictly exceeds
    the overall graph density and the normalized rich-club coefficient at
    k = the minimum member degree (on the projection) exceeds 1. The
    coefficient is normalized over ``config.null_samples`` rewirings of
    ``config.rewire_budget_factor`` swap attempts per edge, seeded from
    the "phi-norm" stream of ``config.seed``. Returns
    (validated, k, NormalizedPhi-or-None): None, and not validated, when
    the graph has fewer than two edges to rewire, phi(k) is undefined or
    its null mean is zero. The rewirings' phi(k) are ``nulls.phis``, as
    :func:`analysis_nulls` draws them for club and config: none in the
    first two cases.
    """
    k = _least_degree(ug, club)
    norm = normalized_rich_club(ug, k, nulls.phis) if ug.edge_count >= 2 else None
    if norm is None:
        return False, k, None
    validated = club.internal_density > density(g) and norm.phi_norm > 1.0
    return validated, k, norm


def concentrated_world_assessment(
    g: DiGraph,
    ug: UGraph,
    rich_club_present: bool,
    config: PipelineConfig,
    nulls: Nulls,
) -> Assessment:
    """Classify the network against density-matched ER and WS baselines.

    ug is the undirected projection of g, and rich_club_present is the
    verdict of :func:`club_cohesion` on the candidate rich club; both are
    taken as inputs so one analysis computes each of them once. Each
    baseline has ``config.null_samples`` graphs (Watts-Strogatz with
    rewiring probability ``config.ws_p``) from a stream of ``config.seed``,
    given as ``nulls.er`` and ``nulls.ws`` (see :func:`analysis_nulls`).
    The verdict rule, whose thresholds are config fields, evaluated in order:
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
    observed_transitivity = global_clustering(ug)
    observed_path = average_path_length(ug)
    mean_total_degree = 2.0 * g.arc_count / n

    er = er_baseline(n, m, derive_seed(config.seed, "er-baseline"), nulls.er)
    ws = ws_baseline(
        n, _lattice_degree(n, m), config.ws_p, derive_seed(config.seed, "ws-baseline"), nulls.ws
    )
    baselines = (er, ws)

    undirected_density = 2.0 * m / (n * (n - 1))
    density_ratio = undirected_density / er.density_mean if er.density_mean else 0.0
    clustering_ratio = (
        observed_transitivity / er.clustering_mean if er.clustering_mean else 0.0
    )

    dense_enough = mean_total_degree >= config.degree_fraction * (n - 1)
    if dense_enough and rich_club_present:
        verdict = "concentrated_world"
    elif (
        er.clustering_mean > 0.0
        and observed_transitivity >= config.transitivity_factor * er.clustering_mean
        and observed_path <= config.path_length_factor * er.path_length_mean
    ):
        verdict = "small_world_like"
    elif abs(observed_transitivity - er.clustering_mean) <= config.sparse_sigma * er.clustering_stddev:
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
