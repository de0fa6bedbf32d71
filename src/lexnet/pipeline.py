"""Assembles the analysis report from the individual analyses.

:func:`build_sections` makes one pass over a graph and returns a report
of the requested sections; the full ``analyze`` run and the partial CLI
subcommands both select from it, so they agree section for section.
Random seeds are derived per section from the configured base seed,
never drawn sequentially, so a section's content is independent of which
other sections were computed.
"""

from __future__ import annotations

from typing import Sequence

from . import __version__
from .communities import reduced_network_partition
from .config import PipelineConfig
from .graph import DiGraph, UGraph
from .metrics import (
    RichClub,
    betweenness_scores,
    degree_centrality,
    degree_profile,
    density,
    harmonic_closeness_scores,
    phi_table,
    rich_club_members,
)
from .nullmodels import Nulls, analysis_nulls, club_cohesion, concentrated_world_assessment
from .report import SCHEMA_VERSION, SECTION_TYPES


# Every report section but schema_version, in report order.
REPORT_SECTIONS = tuple(SECTION_TYPES)


def build_graph_summary(g: DiGraph, ug: UGraph) -> dict:
    return {
        "n": g.node_count,
        "arcs": g.arc_count,
        "undirected_edges": ug.edge_count,
        "density": density(g),
        "weight_total": g.weight_total,
    }


def build_roles_section(g: DiGraph) -> dict:
    return {slug: stats._asdict() for slug, stats in zip(g.slugs, degree_profile(g))}


def build_rankings_section(g: DiGraph, club: RichClub) -> dict:
    citing, cited = club.top_citing, club.top_cited
    return {
        "top_citing": {
            "k": len(citing.nodes),
            "slugs": [g.slug(v) for v in citing.nodes],
            "out_degrees": [g.out_degree(v) for v in citing.nodes],
            "truncated_tie": citing.truncated_tie,
        },
        "top_cited": {
            "k": len(cited.nodes),
            "slugs": [g.slug(v) for v in cited.nodes],
            "in_degrees": [g.in_degree(v) for v in cited.nodes],
            "truncated_tie": cited.truncated_tie,
        },
    }


def build_rich_club_section(
    g: DiGraph, ug: UGraph, club: RichClub, nulls: Nulls, validated: bool
) -> dict:
    table = {str(k): phi for k, phi in phi_table(ug).items()}
    norm = nulls.phi_normalized
    return {
        "members": sorted(g.slug(v) for v in club.members),
        "top_citing": [g.slug(v) for v in club.top_citing.nodes],
        "top_cited": [g.slug(v) for v in club.top_cited.nodes],
        "overlap": sorted(g.slug(v) for v in club.overlap),
        "internal_arcs": club.internal_arcs,
        "internal_density": club.internal_density,
        "quotation_capture": club.quotation_capture,
        "quotation_capture_weighted": club.quotation_capture_weighted,
        "phi": table,
        "phi_normalized": None if norm is None else norm._asdict(),
        "cohesion_validated": validated,
    }


def build_centrality_section(g: DiGraph, ug: UGraph) -> dict:
    scores = {
        "degree": degree_centrality(g),
        "betweenness": betweenness_scores(ug),
        "closeness": harmonic_closeness_scores(ug),
    }
    slugs = [g.slug(v) for v in g.node_ids()]
    return {kind: dict(zip(slugs, values)) for kind, values in scores.items()}


def build_communities_section(g: DiGraph, club: RichClub, config: PipelineConfig) -> dict:
    report = reduced_network_partition(g, club.members, config.min_community_size)
    return {**report._asdict(), "main": [c._asdict() for c in report.main]}


def build_baseline_sections(
    g: DiGraph,
    ug: UGraph,
    rich_club_present: bool,
    config: PipelineConfig,
    nulls: Nulls,
) -> tuple[list, dict]:
    assessment = concentrated_world_assessment(g, ug, rich_club_present, config, nulls)
    baselines = [stats._asdict() for stats in nulls.baselines]
    return baselines, {**assessment._asdict(), "observed": assessment.observed._asdict()}


def build_provenance(config: PipelineConfig, inputs: Sequence[str], run_id: str) -> dict:
    return {
        "inputs": list(inputs),
        "config": config._asdict(),
        "config_digest": config.digest(),
        "seed": config.seed,
        "tool_version": __version__,
        "run_id": run_id,
    }


def build_sections(
    g: DiGraph,
    config: PipelineConfig,
    names: Sequence[str],
    inputs: Sequence[str] = (),
    run_id: str = "",
) -> dict:
    """A report of g: ``schema_version``, then the sections in ``names``, in that order.

    The undirected projection, the rich club and its cohesion test are
    computed once, whatever is named, and shared by every section that
    uses them. Communities, baselines with the assessment, and centrality
    are the costly sections; each is built only when named. The null
    samples that the cohesion test and the baselines read are drawn first,
    by :func:`~lexnet.nullmodels.analysis_nulls` in one ``ordered_map``
    whose children are reaped before it returns, so betweenness's own
    map never overlaps them.
    """
    ug = g.undirected_projection()
    club = rich_club_members(g, config.k_citing, config.k_cited)
    baselines = "baselines" in names or "assessment" in names
    nulls = analysis_nulls(ug, club, config, baselines)
    validated = club_cohesion(g, club, nulls)
    sections = {
        "graph_summary": build_graph_summary(g, ug),
        "roles": build_roles_section(g),
        "rankings": build_rankings_section(g, club),
        "rich_club": build_rich_club_section(g, ug, club, nulls, validated),
        "provenance": build_provenance(config, inputs, run_id),
    }
    if baselines:
        sections["baselines"], sections["assessment"] = build_baseline_sections(
            g, ug, validated, config, nulls
        )
    if "centrality" in names:
        sections["centrality"] = build_centrality_section(g, ug)
    # communities project the reduced network; freeing the whole graph's
    # projection first keeps one projection, not two, alive at peak memory
    del ug
    if "communities" in names:
        sections["communities"] = build_communities_section(g, club, config)
    return {"schema_version": SCHEMA_VERSION, **{name: sections[name] for name in names}}


def analyze_graph(
    g: DiGraph,
    config: PipelineConfig,
    inputs: Sequence[str] = (),
    run_id: str = "",
) -> dict:
    """Run every analysis and assemble the full report payload."""
    return build_sections(g, config, REPORT_SECTIONS, inputs, run_id)
