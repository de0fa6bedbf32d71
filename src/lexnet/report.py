"""All serialization: edge lists, DOT and GraphML export, JSON reports.

Every writer is a deterministic function of its inputs: nodes and edges
are emitted in slug order, JSON keys are sorted and floats use a fixed
17-significant-digit format, so identical analyses produce byte-identical
files.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from typing import Any, Collection, Mapping
from xml.sax.saxutils import escape, quoteattr

from .errors import (
    EmptyInputError,
    InconsistentInputsError,
    MalformedLineError,
    SchemaViolationError,
    SelfLoopLineError,
)
from .graph import DiGraph, NodeLabel
from .nullmodels import NullModelStats

SCHEMA_VERSION = 1


class DuplicateRecordWarning(UserWarning):
    """An edge list repeated a (citing, cited) pair; counts were summed."""


# -- edge lists -------------------------------------------------------------------


def parse_edge_list(content: str, nodes_content: str | None = None) -> DiGraph:
    """Build a digraph from TSV records plus an optional node sidecar.

    The sidecar (one slug per line) declares nodes that may not appear in
    any record, which is the only way isolated vertices survive the
    round trip. Duplicate records are summed with a warning; self-citation
    lines are rejected.
    """
    records: list[tuple[str, str, int, int]] = []
    slugs: set[str] = set()
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise MalformedLineError(lineno, f"expected 3 tab-separated fields, got {len(fields)}")
        citing, cited, count_text = (f.strip() for f in fields)
        if not citing or not cited:
            raise MalformedLineError(lineno, "empty slug")
        try:
            count = int(count_text)
        except ValueError:
            raise MalformedLineError(lineno, f"count {count_text!r} is not an integer") from None
        if count < 1:
            raise MalformedLineError(lineno, f"count must be positive, got {count}")
        if citing == cited:
            raise SelfLoopLineError(lineno, citing)
        records.append((citing, cited, count, lineno))
        slugs.add(citing)
        slugs.add(cited)
    if nodes_content is not None:
        for raw in nodes_content.splitlines():
            slug = raw.strip()
            if slug and not slug.startswith("#"):
                slugs.add(slug)
    if not slugs:
        raise EmptyInputError("no nodes in edge list or sidecar")
    graph = DiGraph([NodeLabel(slug) for slug in sorted(slugs)])
    seen: set[tuple[str, str]] = set()
    for citing, cited, count, lineno in records:
        if (citing, cited) in seen:
            warnings.warn(
                f"line {lineno}: duplicate record {citing} -> {cited}; counts summed",
                DuplicateRecordWarning,
                stacklevel=2,
            )
        seen.add((citing, cited))
        graph.add_edge(graph.id_of(citing), graph.id_of(cited), count)
    return graph


def write_node_sidecar(slugs: Collection[str]) -> str:
    return "\n".join(sorted(slugs)) + ("\n" if slugs else "")


# -- DOT and GraphML ------------------------------------------------------------------


def _club_shapes(g: DiGraph, rich_club: Mapping[str, Collection[str]] | None) -> dict[str, str]:
    citing = set(rich_club.get("top_citing", ())) if rich_club else set()
    cited = set(rich_club.get("top_cited", ())) if rich_club else set()
    for slug in citing | cited:
        if not g.has_slug(slug):
            raise InconsistentInputsError(f"rich-club slug {slug!r} not in graph")
    shapes = {}
    for v in g.node_ids():
        slug = g.slug(v)
        if slug in citing and slug in cited:
            shapes[slug] = "hexagon"
        elif slug in citing:
            shapes[slug] = "square"
        elif slug in cited:
            shapes[slug] = "circle"
        else:
            shapes[slug] = "diamond"
    return shapes


def _check_annotations(
    g: DiGraph,
    roles: Mapping[str, str],
    communities: Mapping[str, int] | None,
) -> None:
    graph_slugs = {g.slug(v) for v in g.node_ids()}
    missing = graph_slugs - set(roles)
    if missing:
        raise InconsistentInputsError(f"roles missing for {sorted(missing)[:3]}...")
    unknown = set(roles) - graph_slugs
    if unknown:
        raise InconsistentInputsError(f"roles for unknown slugs {sorted(unknown)[:3]}...")
    if communities:
        unknown = set(communities) - graph_slugs
        if unknown:
            raise InconsistentInputsError(f"communities for unknown slugs {sorted(unknown)[:3]}...")


def write_dot(
    g: DiGraph,
    roles: Mapping[str, str],
    rich_club: Mapping[str, Collection[str]] | None = None,
    communities: Mapping[str, int] | None = None,
) -> str:
    """Directed DOT text with the figure's shape convention.

    Shapes encode rich-club membership: square for top-citing only, circle
    for top-cited only, hexagon for both, diamond otherwise. Community
    indices are emitted as a ``cluster`` attribute; no layout hints are
    produced. Output is byte-stable for identical inputs.
    """
    _check_annotations(g, roles, communities)
    shapes = _club_shapes(g, rich_club)
    lines = ["digraph citations {"]
    for slug in sorted(g.slug(v) for v in g.node_ids()):
        attrs = [f"shape={shapes[slug]}", f'role="{roles[slug]}"']
        if communities is not None and slug in communities:
            attrs.append(f"cluster={communities[slug]}")
        lines.append(f'  "{slug}" [{", ".join(attrs)}];')
    rows = sorted((g.slug(s), g.slug(t), w) for s, t, w in g.arcs())
    for citing, cited, count in rows:
        lines.append(f'  "{citing}" -> "{cited}" [weight={count}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_GRAPHML_NODE_KEYS = (
    ("d_display", "display_name", "string"),
    ("d_role", "role", "string"),
    ("d_in", "in_degree", "int"),
    ("d_out", "out_degree", "int"),
    ("d_comm", "community", "int"),
    ("d_club", "rich_club", "boolean"),
)


def write_graphml(
    g: DiGraph,
    roles: Mapping[str, str],
    rich_club: Mapping[str, Collection[str]] | None = None,
    communities: Mapping[str, int] | None = None,
) -> str:
    """GraphML 1.0 document with role/degree/community node annotations."""
    _check_annotations(g, roles, communities)
    members: set[str] = set()
    if rich_club:
        members = set(rich_club.get("top_citing", ())) | set(rich_club.get("top_cited", ()))
        for slug in members:
            if not g.has_slug(slug):
                raise InconsistentInputsError(f"rich-club slug {slug!r} not in graph")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    for key_id, name, key_type in _GRAPHML_NODE_KEYS:
        lines.append(
            f'  <key id="{key_id}" for="node" attr.name="{name}" attr.type="{key_type}"/>'
        )
    lines.append('  <key id="e_count" for="edge" attr.name="count" attr.type="int"/>')
    lines.append('  <graph id="citations" edgedefault="directed">')
    by_slug = {g.slug(v): v for v in g.node_ids()}
    for slug in sorted(by_slug):
        v = by_slug[slug]
        lines.append(f"    <node id={quoteattr(slug)}>")
        lines.append(f"      <data key=\"d_display\">{escape(g.labels[v].display_name)}</data>")
        lines.append(f"      <data key=\"d_role\">{escape(roles[slug])}</data>")
        lines.append(f"      <data key=\"d_in\">{g.in_degree(v)}</data>")
        lines.append(f"      <data key=\"d_out\">{g.out_degree(v)}</data>")
        if communities is not None and slug in communities:
            lines.append(f"      <data key=\"d_comm\">{communities[slug]}</data>")
        lines.append(f"      <data key=\"d_club\">{'true' if slug in members else 'false'}</data>")
        lines.append("    </node>")
    rows = sorted((g.slug(s), g.slug(t), w) for s, t, w in g.arcs())
    for citing, cited, count in rows:
        lines.append(
            f"    <edge source={quoteattr(citing)} target={quoteattr(cited)}>"
            f'<data key="e_count">{count}</data></edge>'
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


# -- canonical JSON reports --------------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot enter a report")
    return "%.17g" % x


def canonical_json(value: Any, indent: int = 0) -> str:
    """Serialize with sorted keys and fixed float formatting.

    The 17-significant-digit float format round-trips IEEE doubles
    exactly, so write -> read -> write is byte-stable.
    """
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if value is None or isinstance(value, bool):  # bool before int: bool is an int subclass
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [child_pad + canonical_json(item, indent + 1) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise ValueError(f"report keys must be strings, got {key!r}")
            items.append(
                child_pad + json.dumps(key, ensure_ascii=True) + ": " + canonical_json(value[key], indent + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ValueError(f"unsupported report value {value!r}")


@dataclass(frozen=True)
class AnalysisReport:
    """The full serializable analysis result, section by section."""

    schema_version: int
    graph_summary: dict
    roles: dict
    rankings: dict
    rich_club: dict
    centrality: dict
    communities: dict
    baselines: list
    assessment: dict
    provenance: dict

    def to_payload(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "graph_summary": self.graph_summary,
            "roles": self.roles,
            "rankings": self.rankings,
            "rich_club": self.rich_club,
            "centrality": self.centrality,
            "communities": self.communities,
            "baselines": self.baselines,
            "assessment": self.assessment,
            "provenance": self.provenance,
        }


_SECTION_TYPES = {
    "schema_version": int,
    "graph_summary": dict,
    "roles": dict,
    "rankings": dict,
    "rich_club": dict,
    "centrality": dict,
    "communities": dict,
    "baselines": list,
    "assessment": dict,
    "provenance": dict,
}

_GRAPH_SUMMARY_KEYS = ("n", "arcs", "undirected_edges", "density")
_ROLE_KEYS = ("in_degree", "out_degree", "total_degree", "role")
_ASSESSMENT_KEYS = (
    "observed",
    "density_ratio_vs_er",
    "clustering_ratio_vs_er",
    "rich_club_present",
    "verdict",
)
_CENTRALITY_KINDS = ("degree", "betweenness", "closeness")
_BASELINE_KEYS = tuple(f.name for f in fields(NullModelStats))


def validate_report_payload(payload: Any) -> None:
    """Raise SchemaViolationError (with a JSON path) on structural problems."""
    if not isinstance(payload, dict):
        raise SchemaViolationError("$", "report must be a JSON object")
    for key, expected in _SECTION_TYPES.items():
        if key not in payload:
            raise SchemaViolationError(f"$.{key}", "missing required section")
        if not isinstance(payload[key], expected) or isinstance(payload[key], bool):
            raise SchemaViolationError(f"$.{key}", f"expected {expected.__name__}")
    summary = payload["graph_summary"]
    for key in _GRAPH_SUMMARY_KEYS:
        if key not in summary:
            raise SchemaViolationError(f"$.graph_summary.{key}", "missing field")
    node_slugs = set(payload["roles"])
    if summary["n"] != len(node_slugs):
        raise SchemaViolationError("$.graph_summary.n", "does not match the roles section")
    for slug, entry in payload["roles"].items():
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"$.roles.{slug}", "expected object")
        for key in _ROLE_KEYS:
            if key not in entry:
                raise SchemaViolationError(f"$.roles.{slug}.{key}", "missing field")
    for section in ("top_citing", "top_cited"):
        if section not in payload["rankings"]:
            raise SchemaViolationError(f"$.rankings.{section}", "missing field")
    club = payload["rich_club"]
    for key in ("members", "internal_density", "quotation_capture"):
        if key not in club:
            raise SchemaViolationError(f"$.rich_club.{key}", "missing field")
    for slug in club["members"]:
        if slug not in node_slugs:
            raise SchemaViolationError(f"$.rich_club.members.{slug}", "unknown slug")
    for kind in _CENTRALITY_KINDS:
        scores = payload["centrality"].get(kind)
        if not isinstance(scores, dict) or set(scores) != node_slugs:
            raise SchemaViolationError(f"$.centrality.{kind}", "expected one score per node slug")
        for slug, value in scores.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaViolationError(f"$.centrality.{kind}.{slug}", "expected a number")
    for i, entry in enumerate(payload["baselines"]):
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"$.baselines[{i}]", "expected object")
        for key in _BASELINE_KEYS:
            if key not in entry:
                raise SchemaViolationError(f"$.baselines[{i}].{key}", "missing field")
    assessment = payload["assessment"]
    for key in _ASSESSMENT_KEYS:
        if key not in assessment:
            raise SchemaViolationError(f"$.assessment.{key}", "missing field")
    for key in ("q", "main", "residual", "min_size"):
        if key not in payload["communities"]:
            raise SchemaViolationError(f"$.communities.{key}", "missing field")
    for key in ("config_digest", "seed", "tool_version", "run_id"):
        if key not in payload["provenance"]:
            raise SchemaViolationError(f"$.provenance.{key}", "missing field")


def write_report(report: AnalysisReport) -> str:
    payload = report.to_payload()
    validate_report_payload(payload)
    return canonical_json(payload) + "\n"


def read_report(text: str) -> AnalysisReport:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolationError("$", f"not valid JSON: {exc}") from exc
    validate_report_payload(payload)
    return AnalysisReport(
        schema_version=payload["schema_version"],
        graph_summary=payload["graph_summary"],
        roles=payload["roles"],
        rankings=payload["rankings"],
        rich_club=payload["rich_club"],
        centrality=payload["centrality"],
        communities=payload["communities"],
        baselines=payload["baselines"],
        assessment=payload["assessment"],
        provenance=payload["provenance"],
    )
