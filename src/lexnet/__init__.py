"""lexnet: citation-network analysis for legal code corpora.

Builds a directed citation graph from a text corpus under explicit
linking rules, classifies singular vertices, identifies the rich club of
most-citing and most-cited codes, partitions the reduced network by
greedy modularity maximization, and assesses the result against
small-world and random baselines.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it; ``__all__`` is built
# from it. A name is imported on first use (PEP 562), so ``import lexnet``
# loads no submodule and the CLI compiles only what a command runs.
_SOURCES = {
    **dict.fromkeys(
        ("CommunityReport", "Partition", "cnm_communities", "modularity",
         "reduced_network_partition"),
        "communities",
    ),
    **dict.fromkeys(
        ("CodeDocument", "CodeRegistry", "Mention", "build_edge_list", "find_citations",
         "load_registry", "normalize_text"),
        "extraction",
    ),
    **dict.fromkeys(("DiGraph", "UGraph"), "graph"),
    **dict.fromkeys(
        ("RichClub", "Role", "average_path_length", "betweenness_scores", "degree_centrality",
         "degree_profile", "density", "global_clustering", "harmonic_closeness_scores",
         "normalized_rich_club", "rich_club_members", "top_cited", "top_citing"),
        "metrics",
    ),
    **dict.fromkeys(
        ("Assessment", "NullModelStats", "Nulls", "Observed", "analysis_nulls", "club_cohesion",
         "concentrated_world_assessment", "degree_preserving_rewire", "erdos_renyi_gnm",
         "watts_strogatz"),
        "nullmodels",
    ),
    **dict.fromkeys(
        ("parse_edge_list", "read_report", "write_dot", "write_graphml", "write_report"),
        "report",
    ),
}


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without calling __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})


__all__ = ["__version__", *_SOURCES]
