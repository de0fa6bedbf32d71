"""Random-graph generators, degree-preserving rewiring, cohesion, assessment rule."""

import functools
import os
import random
import tracemalloc
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexnet.config import PipelineConfig
from lexnet.errors import DegenerateGraphError, LexnetError
from lexnet.graph import DiGraph, UGraph
from lexnet.metrics import (
    NormalizedPhi,
    global_clustering,
    normalized_rich_club,
    phi_table,
    rich_club_members,
)
from lexnet.nullmodels import (
    NullModelStats,
    analysis_nulls,
    club_cohesion,
    concentrated_world_assessment,
    degree_preserving_rewire,
    er_baseline,
    erdos_renyi_gnm,
    watts_strogatz,
    ws_baseline,
)
from lexnet.pipeline import build_sections
from lexnet.seeding import derive_seed

from conftest import (
    assess,
    degree_multiset,
    digraph_from_ugraph,
    make_digraph,
    make_ugraph,
    random_ugraph,
    reference_erdos_renyi_gnm,
    reference_rewire,
    reference_watts_strogatz,
    rewired_phis,
    ugraphs,
)


@pytest.mark.parametrize(("base", "tag", "seed"), [
    (42, "phi-norm", 0x623D8B58CDF973CE),
    (42, "er:0", 0x07F43073FE257FDA),
])
def test_derive_seed_is_pinned(base, tag, seed):
    # the first 8 bytes of SHA-256("<base>:<tag>"), big-endian; every seeded
    # stream, so every report digest, rests on these values
    assert derive_seed(base, tag) == seed


class TestErdosRenyi:
    def test_maximal_m_is_complete(self):
        ug = erdos_renyi_gnm(5, 10, seed=1)
        assert ug.edge_count == 10
        assert all(len(nbrs) == 4 for nbrs in ug.adj)

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
        with pytest.raises(LexnetError, match="m=7 exceeds the simple-graph maximum 6"):
            erdos_renyi_gnm(4, 7, seed=0)


class TestWattsStrogatz:
    def test_pure_lattice_transitivity(self):
        ug = watts_strogatz(10, 4, 0.0, seed=0)
        assert global_clustering(ug) == pytest.approx(0.5, abs=1e-12)

    def test_full_rewiring_preserves_edge_count(self):
        ug = watts_strogatz(20, 4, 1.0, seed=3)
        assert ug.edge_count == 20 * 4 // 2
        assert sum(map(len, ug.adj)) == 20 * 4

    def test_cycle_is_triangle_free(self):
        ug = watts_strogatz(6, 2, 0.0, seed=0)
        assert global_clustering(ug) == 0.0

    def test_bad_lattice_degree(self):
        with pytest.raises(LexnetError, match="lattice degree must be even and in 2..n-1, got 3"):
            watts_strogatz(10, 3, 0.1, seed=0)
        with pytest.raises(LexnetError, match="lattice degree must be even and in 2..n-1, got 10"):
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
            assert list(map(len, rewired.adj)) == list(map(len, ug.adj))
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
        with pytest.raises(LexnetError, match="rewiring needs at least 2 edges, got 1"):
            degree_preserving_rewire(ug, 10, seed=0)

    def test_deterministic(self):
        ug = random_ugraph(random.Random(5), 10, 20)
        a = degree_preserving_rewire(ug, 200, seed=8)
        b = degree_preserving_rewire(ug, 200, seed=8)
        assert list(a.edges()) == list(b.edges())

    def test_a_given_edge_list_is_read_not_changed(self):
        ug = random_ugraph(random.Random(5), 10, 20)
        edges = list(ug.edges())
        for seed in range(5):
            given_edges = degree_preserving_rewire(ug, 200, seed, edges)
            assert given_edges.adj == degree_preserving_rewire(ug, 200, seed).adj
        assert edges == list(ug.edges())


def _inline_randbelow(rng: random.Random, n: int) -> int:
    """The draw the generators inline in place of rng.randrange(n)."""
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def _same_graph(got, want) -> None:
    # want is built through ugraph, so it is symmetric and loop-free; an
    # adjacency that is not fails here even where its edges() would agree
    assert got.adj == want.adj


_POWER_BOUNDS = sorted({2**k + d for k in range(1, 70) for d in (-1, 0, 1)})


class TestInlinedDraw:
    """The inlined draw is CPython's randrange, checked on this interpreter."""

    @pytest.mark.parametrize("seed", [0, 1, 977])
    def test_matches_randrange_below_300(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 301):
            for _ in range(5):
                assert _inline_randbelow(ours, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 977])
    def test_matches_randrange_at_powers_of_two(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in [1] + _POWER_BOUNDS:
            for _ in range(5):
                assert _inline_randbelow(ours, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


# (model, args, error class, message pattern) for test_same_errors
_SAME_ERRORS = [
    ("er", (0, 0, 1), LexnetError, "a graph needs at least one node"),
    ("er", (-1, 1, 1), LexnetError, "a graph needs at least one node"),
    ("er", (4, 7, 1), LexnetError, "exceeds the simple-graph maximum"),
    ("er", (5, -1, 1), ValueError, "m must be non-negative"),
    ("ws", (10, 3, 0.1, 1), LexnetError, "lattice degree must be even"),
    ("ws", (10, 10, 0.1, 1), LexnetError, "lattice degree must be even"),
    ("ws", (10, 4, 1.5, 1), ValueError, "p must be in"),
    ("rewire", (make_ugraph("ab", [("a", "b")]), 10, 1), LexnetError,
     "rewiring needs at least 2 edges"),
]


class TestAgainstReferences:
    """Each generator gives the graph its randrange-based reference gives."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 2024])
    def test_rewire_fixture_projection(self, fixture_graph, seed):
        ug = fixture_graph.undirected_projection()
        attempts = 10 * ug.edge_count
        _same_graph(degree_preserving_rewire(ug, attempts, seed),
                    reference_rewire(ug, attempts, seed))

    @pytest.mark.parametrize("seed", [0, 5, 31])
    @pytest.mark.parametrize(("n", "m"), [(52, 156), (300, 900), (5, 2)])
    def test_er_sparse(self, n, m, seed):
        assert n * (n - 1) // 2 > 4 * m
        _same_graph(erdos_renyi_gnm(n, m, seed), reference_erdos_renyi_gnm(n, m, seed))

    @pytest.mark.parametrize("seed", [0, 5, 31])
    @pytest.mark.parametrize(("n", "m"), [(12, 17), (20, 150), (5, 10), (2, 1), (1, 0), (5, 0)])
    def test_er_dense_and_empty(self, n, m, seed):
        if m:
            assert n * (n - 1) // 2 <= 4 * m
        _same_graph(erdos_renyi_gnm(n, m, seed), reference_erdos_renyi_gnm(n, m, seed))

    @pytest.mark.parametrize("seed", [0, 3, 17])
    @pytest.mark.parametrize(
        ("n", "k", "p"),
        [(52, 6, 0.0), (52, 6, 0.1), (52, 6, 1.0), (200, 10, 0.1),
         (9, 8, 0.5), (10, 8, 1.0), (11, 8, 1.0), (3, 2, 1.0)],
    )
    def test_ws(self, n, k, p, seed):
        _same_graph(watts_strogatz(n, k, p, seed), reference_watts_strogatz(n, k, p, seed))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(ugraphs(), st.integers(0, 60), st.integers(-(2**40), 2**40))
    def test_rewire_hypothesis(self, ug, attempts, seed):
        assume(ug.edge_count >= 2)
        _same_graph(degree_preserving_rewire(ug, attempts, seed),
                    reference_rewire(ug, attempts, seed))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_er_hypothesis(self, n, fraction, seed):
        m = int(fraction * (n * (n - 1) // 2))
        _same_graph(erdos_renyi_gnm(n, m, seed), reference_erdos_renyi_gnm(n, m, seed))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(3, 40), st.data(), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_ws_hypothesis(self, n, data, p, seed):
        k = 2 * data.draw(st.integers(1, (n - 1) // 2))
        _same_graph(watts_strogatz(n, k, p, seed), reference_watts_strogatz(n, k, p, seed))

    @pytest.mark.parametrize(
        ("model", "args", "error", "message"),
        _SAME_ERRORS,
        # the ids pytest would form from the first three columns
        ids=[f"{model}-args{i}-{error.__name__}"
             for i, (model, _, error, _) in enumerate(_SAME_ERRORS)],
    )
    def test_same_errors(self, model, args, error, message):
        library = {"er": erdos_renyi_gnm, "ws": watts_strogatz, "rewire": degree_preserving_rewire}
        reference = {"er": reference_erdos_renyi_gnm, "ws": reference_watts_strogatz,
                     "rewire": reference_rewire}
        with pytest.raises(error, match=message) as want:
            reference[model](*args)
        with pytest.raises(error, match=message) as got:
            library[model](*args)
        assert str(got.value) == str(want.value)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _Normalized(NamedTuple):
    samples: int  # the rewirings drawn
    norm: NormalizedPhi | None


def rewired_rich_club(ug: UGraph, k: int, samples: int, seed: int) -> _Normalized:
    """normalized_rich_club over the rewirings club_cohesion would draw, counting them."""
    read = 0

    def null_phis():
        nonlocal read
        for phi in rewired_phis(ug, k, samples, seed):
            read += 1
            yield phi

    norm = normalized_rich_club(ug, k, null_phis())
    return _Normalized(read, norm)


def cohesion(g: DiGraph, samples: int, seed: int) -> _Normalized:
    """club_cohesion of g's (8, 8) rich club on one CPU, counting the rewirings drawn for it."""
    import lexnet.nullmodels

    drawn = []
    rewire = lexnet.nullmodels.degree_preserving_rewire
    config = PipelineConfig(k_citing=8, k_cited=8, null_samples=samples, seed=seed)
    ug = g.undirected_projection()
    club = rich_club_members(g, 8, 8)
    with mock.patch.object(lexnet.nullmodels, "degree_preserving_rewire",
                           lambda *args: drawn.append(1) or rewire(*args)), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        nulls = analysis_nulls(ug, club, config, baselines=False)
    _, _, norm = club_cohesion(g, ug, club, config, nulls)
    return _Normalized(len(drawn), norm)


def drawn_by_analysis(fold):
    """fold's statistics in an analysis of an ER graph of n nodes and m edges on one CPU.

    Called as (n, m, samples, seed). analysis_nulls draws the samples and
    the assessment folds them. Named as fold, which names the test case.
    """

    @functools.wraps(fold)
    def statistic(n: int, m: int, samples: int, seed: int) -> NullModelStats:
        ug = erdos_renyi_gnm(n, m, 1)
        g = digraph_from_ugraph(ug)
        config = PipelineConfig(null_samples=samples, seed=seed)
        # a club of one top-degree node leaves phi(k) undefined, so only the baselines are drawn
        hub = max(range(n), key=lambda v: len(ug.adj[v]))
        club = rich_club_members(g, 1, 1)._replace(members=frozenset({hub}))
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            nulls = analysis_nulls(ug, club, config, baselines=True)
        assert nulls.phis == []
        baselines = concentrated_world_assessment(g, ug, False, config, nulls).baselines
        return baselines[(er_baseline, ws_baseline).index(fold)]

    return statistic


def analysis(g: DiGraph, samples: int, seed: int) -> _Normalized:
    """build_sections' rich club and baselines of g's (8, 8) rich club on one CPU.

    Counts the rewirings drawn, and checks that each baseline read as many samples.
    """
    import lexnet.nullmodels

    drawn = []
    rewire = lexnet.nullmodels.degree_preserving_rewire
    config = PipelineConfig(k_citing=8, k_cited=8, null_samples=samples, seed=seed)
    with mock.patch.object(lexnet.nullmodels, "degree_preserving_rewire",
                           lambda *args: drawn.append(1) or rewire(*args)), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        sections = build_sections(g, config, ["rich_club", "baselines"])
    assert [stats["samples"] for stats in sections["baselines"]] == [samples, samples]
    return _Normalized(len(drawn), sections["rich_club"]["phi_normalized"])


class TestBaselines:
    @pytest.mark.parametrize(("statistic", "args"), [
        (drawn_by_analysis(er_baseline), (200, 800)),
        (drawn_by_analysis(ws_baseline), (200, 800)),
        (rewired_rich_club, (erdos_renyi_gnm(200, 800, 1), 8)),
        (cohesion, (digraph_from_ugraph(erdos_renyi_gnm(200, 800, 1)),)),
        (analysis, (digraph_from_ugraph(erdos_renyi_gnm(200, 800, 1)),)),
    ])
    def test_samples_are_held_one_at_a_time(self, statistic, args):
        _, one = _traced_peak(statistic, *args, 1, 5)
        stats, forty = _traced_peak(statistic, *args, 40, 5)
        assert stats.samples == 40
        assert forty < 2 * one


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

        g = DiGraph(["a", "b"], {("a", "b"): 1})
        with pytest.raises(DegenerateGraphError):
            assess(g, None, samples=5, seed=0)

    def test_thresholds_are_configurable(self, fixture_graph):
        club = rich_club_members(fixture_graph, 5, 6)
        result = assess(fixture_graph, club, samples=10, seed=3, degree_fraction=0.99)
        assert result.verdict != "concentrated_world"


# One hand-built graph per reason club_cohesion reports "cohesion not
# validated": (slugs, arcs, k_citing, k_cited, k of the club).
_COHESION_FALLBACKS = {
    # a and d, the only nodes of degree 2, are adjacent (phi(1) = 1) but not
    # in the one rewired sample, so the null mean of phi(1) is zero
    "null-mean-zero": ("abcdefg", [("a", "b"), ("a", "d"), ("c", "g"), ("d", "e")], 1, 1, 1),
    # the hub h is the only node of degree > 1, so phi(1) is undefined
    "phi-undefined": ("habc", [("h", "a"), ("h", "b"), ("h", "c")], 1, 1, 1),
    # the isolated member a puts k at 0; phi(0) is defined, but one edge
    # cannot be rewired
    "too-few-edges": ("abc", [("b", "c")], 1, 2, 0),
}


@pytest.mark.parametrize("reason", list(_COHESION_FALLBACKS))
def test_cohesion_fallback_reports_not_validated(reason):
    slugs, arcs, k_citing, k_cited, k = _COHESION_FALLBACKS[reason]
    g = make_digraph(slugs, arcs)
    config = PipelineConfig(k_citing=k_citing, k_cited=k_cited, null_samples=1)
    ug = g.undirected_projection()
    # the graph falls back for its reason alone; the nulls are the ones drawn for club_cohesion
    seed = derive_seed(config.seed, "phi-norm")
    null_phis = rewired_phis(ug, k, 1, seed, config.rewire_budget_factor)
    phi = phi_table(ug).get(k)
    holds = {
        "null-mean-zero": phi is not None and ug.edge_count >= 2
        and normalized_rich_club(ug, k, null_phis) is None,
        "phi-undefined": phi is None,
        "too-few-edges": ug.edge_count < 2,
    }
    assert [name for name, held in holds.items() if held] == [reason]
    club = rich_club_members(g, k_citing, k_cited)
    nulls = analysis_nulls(ug, club, config, baselines=False)
    assert club_cohesion(g, ug, club, config, nulls) == (False, k, None)
    section = build_sections(g, config, ["rich_club"])["rich_club"]
    assert section["phi_normalized"] is None
    assert section["cohesion_validated"] is False


@pytest.mark.parametrize(("reason", "rewirings_drawn"), [
    ("phi-undefined", 0), ("too-few-edges", 0), ("null-mean-zero", 1),
])
def test_cohesion_draws_no_rewiring_it_cannot_use(reason, rewirings_drawn, monkeypatch):
    import lexnet.nullmodels

    calls = []
    rewire = lexnet.nullmodels.degree_preserving_rewire
    monkeypatch.setattr(lexnet.nullmodels, "degree_preserving_rewire",
                        lambda *args: calls.append(args) or rewire(*args))
    slugs, arcs, k_citing, k_cited, k = _COHESION_FALLBACKS[reason]
    g = make_digraph(slugs, arcs)
    config = PipelineConfig(k_citing=k_citing, k_cited=k_cited, null_samples=1)
    club = rich_club_members(g, k_citing, k_cited)
    ug = g.undirected_projection()
    nulls = analysis_nulls(ug, club, config, baselines=False)
    assert len(calls) == len(nulls.phis) == rewirings_drawn
    assert club_cohesion(g, ug, club, config, nulls) == (False, k, None)
    calls.clear()
    assert build_sections(g, config, ["rich_club"])["rich_club"]["phi_normalized"] is None
    assert len(calls) == rewirings_drawn
