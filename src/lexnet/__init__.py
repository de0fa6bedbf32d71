"""lexnet: citation-network analysis for legal code corpora.

Builds a directed citation graph from a text corpus under explicit
linking rules, classifies singular vertices, identifies the rich club of
most-citing and most-cited codes, partitions the reduced network by
greedy modularity maximization, and assesses the result against
small-world and random baselines.
"""

__version__ = "0.1.0"

from .communities import (
    CommunityReport,
    Partition,
    brute_force_best_partition,
    cnm_communities,
    modularity,
    reduced_network_partition,
)
from .extraction import (
    CodeDocument,
    CodeRegistry,
    EdgeList,
    Mention,
    build_edge_list,
    find_citations,
    load_registry,
    normalize_text,
)
from .graph import DiGraph, NodeLabel, UGraph, digraph_from_ugraph
from .metrics import (
    RichClub,
    Role,
    average_path_length,
    betweenness_scores,
    degree_centrality,
    degree_profile,
    density,
    global_clustering,
    harmonic_closeness_scores,
    normalized_rich_club,
    rich_club_coefficient,
    rich_club_members,
    top_cited,
    top_citing,
)
from .nullmodels import (
    Assessment,
    NullModelStats,
    club_cohesion,
    concentrated_world_assessment,
    degree_preserving_rewire,
    erdos_renyi_gnm,
    watts_strogatz,
)
from .report import AnalysisReport, parse_edge_list, read_report, write_dot, write_graphml, write_report

__all__ = [
    "__version__",
    "AnalysisReport",
    "Assessment",
    "CodeDocument",
    "CodeRegistry",
    "CommunityReport",
    "DiGraph",
    "EdgeList",
    "Mention",
    "NodeLabel",
    "NullModelStats",
    "Partition",
    "RichClub",
    "Role",
    "UGraph",
    "average_path_length",
    "betweenness_scores",
    "brute_force_best_partition",
    "build_edge_list",
    "club_cohesion",
    "cnm_communities",
    "concentrated_world_assessment",
    "degree_centrality",
    "degree_preserving_rewire",
    "degree_profile",
    "density",
    "digraph_from_ugraph",
    "erdos_renyi_gnm",
    "find_citations",
    "global_clustering",
    "harmonic_closeness_scores",
    "load_registry",
    "modularity",
    "normalize_text",
    "normalized_rich_club",
    "parse_edge_list",
    "read_report",
    "reduced_network_partition",
    "rich_club_coefficient",
    "rich_club_members",
    "top_cited",
    "top_citing",
    "watts_strogatz",
    "write_dot",
    "write_graphml",
    "write_report",
]
