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
from typing import Any, Iterable, Mapping

from .errors import LexnetError, MalformedLineError, SchemaViolationError
from .files import tsv_records
from .graph import DiGraph

SCHEMA_VERSION = 1


class DuplicateRecordWarning(UserWarning):
    """An edge list repeated a (citing, cited) pair; counts were summed."""


# -- edge lists -------------------------------------------------------------------


def parse_edge_list(content: str, nodes_content: str | None = None) -> DiGraph:
    """Build a digraph from TSV records plus an optional node sidecar.

    The sidecar (one slug per line) declares nodes that may not appear in
    any record, which is the only way isolated vertices survive the
    round trip. Both texts are read by ``files.tsv_records``: lines
    starting with ``#`` are comments, so no slug may start with ``#``.
    Duplicate records are summed with a warning; self-citation lines are
    rejected.
    """
    arcs: dict[tuple[str, str], int] = {}
    duplicates: list[str] = []  # warned only once both texts have parsed
    for lineno, (citing, cited, count_text) in tsv_records(content, 3):
        if not citing or not cited:
            raise MalformedLineError(lineno, "empty slug")
        if cited.startswith("#"):
            # its own records would read as comments and vanish
            raise MalformedLineError(lineno, f"slug {cited!r} starts with '#'")
        try:
            count = int(count_text)
        except ValueError:
            raise MalformedLineError(lineno, f"count {count_text!r} is not an integer") from None
        if count < 1:
            raise MalformedLineError(lineno, f"count must be positive, got {count}")
        if citing == cited:
            raise MalformedLineError(lineno, f"self-citation on {citing!r}")
        if (citing, cited) in arcs:
            arcs[citing, cited] += count
            duplicates.append(
                f"line {lineno}: duplicate record {citing} -> {cited}; counts summed"
            )
        else:
            arcs[citing, cited] = count
    slugs = {slug for pair in arcs for slug in pair}
    if nodes_content is not None:
        slugs.update(slug for _, (slug,) in tsv_records(nodes_content, 1, "node sidecar line"))
    if not slugs:
        raise LexnetError("no nodes in edge list or sidecar")
    graph = DiGraph(sorted(slugs), arcs)
    for message in duplicates:
        warnings.warn(message, DuplicateRecordWarning, stacklevel=2)
    return graph


def write_edge_list(rows: Iterable[tuple[str, str, int]]) -> str:
    """One ``citing<TAB>cited<TAB>count`` line per row, in the given order."""
    return "".join(f"{citing}\t{cited}\t{count}\n" for citing, cited, count in rows)


def write_node_sidecar(slugs: Iterable[str]) -> str:
    return "".join(f"{slug}\n" for slug in sorted(slugs))


# -- DOT and GraphML ------------------------------------------------------------------


def _export_table(
    g: DiGraph,
    roles: Mapping[str, str],
    rich_club: Mapping[str, Any] | None,
    communities: Mapping[str, int] | None,
) -> tuple[list[tuple[str, int, bool, bool]], list[tuple[str, str, int]]]:
    """Check the annotations and list the rows both export formats draw, in slug order.

    Node rows are ``(slug, node id, in top_citing, in top_cited)``; arc
    rows are ``(citing slug, cited slug, count)``. The roles must name
    exactly the graph's slugs, and every community key and rich-club slug
    must be a graph slug, or LexnetError is raised.
    """
    slugs = g.slugs
    graph_slugs = set(slugs)
    missing = graph_slugs - set(roles)
    if missing:
        raise LexnetError(f"roles missing for {sorted(missing)[:3]}...")
    unknown = set(roles) - graph_slugs
    if unknown:
        raise LexnetError(f"roles for unknown slugs {sorted(unknown)[:3]}...")
    if communities:
        unknown = set(communities) - graph_slugs
        if unknown:
            raise LexnetError(f"communities for unknown slugs {sorted(unknown)[:3]}...")
    citing = set(rich_club.get("top_citing", ())) if rich_club else set()
    cited = set(rich_club.get("top_cited", ())) if rich_club else set()
    unknown = (citing | cited) - graph_slugs
    if unknown:
        raise LexnetError(f"rich-club slug {min(unknown)!r} not in graph")
    nodes = sorted((slug, v, slug in citing, slug in cited) for v, slug in enumerate(slugs))
    arcs = sorted((slugs[s], slugs[t], w) for s, t, w in g.arcs())
    return nodes, arcs


def _dot_id(slug: str) -> str:
    """A slug as a double-quoted DOT id, with backslashes and quotes escaped."""
    return '"' + slug.replace("\\", "\\\\").replace('"', '\\"') + '"'


# DOT shape by (in top_citing, in top_cited)
_DOT_SHAPES = {(True, True): "hexagon", (True, False): "square",
               (False, True): "circle", (False, False): "diamond"}


def write_dot(
    g: DiGraph,
    roles: Mapping[str, str],
    rich_club: Mapping[str, Any] | None = None,
    communities: Mapping[str, int] | None = None,
) -> str:
    """Directed DOT text with the figure's shape convention.

    Shapes encode rich-club membership (the ``top_citing`` and
    ``top_cited`` lists of a report's rich_club section): square for
    top-citing only, circle for top-cited only, hexagon for both, diamond
    otherwise. Community indices are emitted as a ``cluster`` attribute;
    no layout hints are produced. Output is byte-stable for identical inputs.
    """
    nodes, arcs = _export_table(g, roles, rich_club, communities)
    lines = ["digraph citations {"]
    for slug, _, top_citing, top_cited in nodes:
        attrs = [f"shape={_DOT_SHAPES[top_citing, top_cited]}", f"role={_dot_id(roles[slug])}"]
        if communities is not None and slug in communities:
            attrs.append(f"cluster={communities[slug]}")
        lines.append(f'  {_dot_id(slug)} [{", ".join(attrs)}];')
    for citing, cited, count in arcs:
        lines.append(f"  {_dot_id(citing)} -> {_dot_id(cited)} [weight={count}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    """XML character data: ``&``, ``>`` and ``<`` as entities, in that order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """A quoted XML attribute value, as the standard library's ``saxutils.quoteattr`` quotes it.

    Tab, newline and carriage return become character references so that
    attribute-value normalization keeps them. The value is double-quoted
    unless it holds a ``"`` and no ``'``; holding both, its ``"`` become
    ``&quot;``.
    """
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


# (id, attr.name, attr.type) of each node key, in the order of a node's <data> lines
_GRAPHML_NODE_KEYS = (
    ("d_display", "display_name", "string"),
    ("d_role", "role", "string"),
    ("d_in", "in_degree", "int"),
    ("d_out", "out_degree", "int"),
    ("d_comm", "community", "int"),
    ("d_club", "rich_club", "boolean"),
)
_GRAPHML_EDGE_KEY = ("e_count", "count", "int")


def write_graphml(
    g: DiGraph,
    roles: Mapping[str, str],
    rich_club: Mapping[str, Any] | None = None,
    communities: Mapping[str, int] | None = None,
) -> str:
    """GraphML 1.0 document with role/degree/community node annotations."""
    nodes, arcs = _export_table(g, roles, rich_club, communities)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    keys = [("node", key) for key in _GRAPHML_NODE_KEYS] + [("edge", _GRAPHML_EDGE_KEY)]
    for domain, (key_id, name, key_type) in keys:
        lines.append(
            f'  <key id="{key_id}" for="{domain}" attr.name="{name}" attr.type="{key_type}"/>'
        )
    lines.append('  <graph id="citations" edgedefault="directed">')
    for slug, v, top_citing, top_cited in nodes:
        values = (
            _escape(slug),  # the display name is the slug
            _escape(roles[slug]),
            g.in_degree(v),
            g.out_degree(v),
            communities.get(slug) if communities else None,  # None: no community line
            "true" if top_citing or top_cited else "false",
        )
        lines.append(f"    <node id={_quoteattr(slug)}>")
        for (key_id, _, _), value in zip(_GRAPHML_NODE_KEYS, values, strict=True):
            if value is not None:
                lines.append(f'      <data key="{key_id}">{value}</data>')
        lines.append("    </node>")
    count_key = _GRAPHML_EDGE_KEY[0]
    for citing, cited, count in arcs:
        lines.append(
            f"    <edge source={_quoteattr(citing)} target={_quoteattr(cited)}>"
            f'<data key="{count_key}">{count}</data></edge>'
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


# The report's sections in report order, each with its JSON type. A report
# is {"schema_version": SCHEMA_VERSION, **sections}; no other list of the
# sections exists.
SECTION_TYPES = {
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
# The fields of metrics.NodeStats, the values of metrics.Role, and below
# the fields of nullmodels.Assessment and nullmodels.NullModelStats,
# written out so that reading and writing reports loads neither module;
# tests/test_report.py pins all four.
_ROLE_KEYS = ("in_degree", "out_degree", "total_degree", "role")
_ROLES = ("isolated", "pendant", "source_only", "sink_only", "ordinary")
_CLUB_KEYS = ("members", "top_citing", "top_cited", "internal_density", "quotation_capture")
_ASSESSMENT_KEYS = (
    "observed",
    "density_ratio_vs_er",
    "clustering_ratio_vs_er",
    "rich_club_present",
    "verdict",
)
_CENTRALITY_KINDS = ("degree", "betweenness", "closeness")
_BASELINE_KEYS = (
    "model", "samples", "seed", "params", "density_mean", "clustering_mean",
    "clustering_stddev", "path_length_mean", "path_length_stddev",
)


def _require(mapping: Mapping[str, Any], keys: Iterable[str], path: str) -> None:
    """Raise SchemaViolationError at ``{path}.{key}`` for the first key mapping lacks."""
    for key in keys:
        if key not in mapping:
            raise SchemaViolationError(f"{path}.{key}", "missing field")


def validate_report_payload(payload: Any) -> None:
    """Raise SchemaViolationError (with a JSON path) on structural problems."""
    if not isinstance(payload, dict):
        raise SchemaViolationError("$", "report must be a JSON object")
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # neither true nor 1.0
        raise SchemaViolationError("$.schema_version", f"expected schema version {SCHEMA_VERSION}")
    for key, expected in SECTION_TYPES.items():
        if key not in payload:
            raise SchemaViolationError(f"$.{key}", "missing required section")
        if not isinstance(payload[key], expected):
            raise SchemaViolationError(f"$.{key}", f"expected {expected.__name__}")
    summary = payload["graph_summary"]
    _require(summary, _GRAPH_SUMMARY_KEYS, "$.graph_summary")
    node_slugs = set(payload["roles"])
    if summary["n"] != len(node_slugs):
        raise SchemaViolationError("$.graph_summary.n", "does not match the roles section")
    for slug, entry in payload["roles"].items():
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"$.roles.{slug}", "expected object")
        _require(entry, _ROLE_KEYS, f"$.roles.{slug}")
        if entry["role"] not in _ROLES:
            raise SchemaViolationError(f"$.roles.{slug}.role", f"expected one of {list(_ROLES)}")
    _require(payload["rankings"], ("top_citing", "top_cited"), "$.rankings")
    club = payload["rich_club"]
    _require(club, _CLUB_KEYS, "$.rich_club")
    for key in ("members", "top_citing", "top_cited"):
        if not isinstance(club[key], list):
            raise SchemaViolationError(f"$.rich_club.{key}", "expected list")
        for i, slug in enumerate(club[key]):
            if not isinstance(slug, str) or slug not in node_slugs:
                raise SchemaViolationError(f"$.rich_club.{key}[{i}]", "unknown slug")
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
        _require(entry, _BASELINE_KEYS, f"$.baselines[{i}]")
    _require(payload["assessment"], _ASSESSMENT_KEYS, "$.assessment")
    communities = payload["communities"]
    _require(communities, ("q", "main", "residual", "min_size"), "$.communities")
    assignment = communities.get("assignment", {})
    if not isinstance(assignment, dict):
        raise SchemaViolationError("$.communities.assignment", "expected object")
    for slug, index in assignment.items():
        if slug not in node_slugs or isinstance(index, bool) or not isinstance(index, int):
            raise SchemaViolationError(
                f"$.communities.assignment.{slug}", "expected a node slug mapped to an integer"
            )
    _require(payload["provenance"], ("config_digest", "seed", "tool_version", "run_id"),
             "$.provenance")


def write_report(report: dict) -> str:
    """Validate a report payload and serialize it canonically."""
    validate_report_payload(report)
    return canonical_json(report) + "\n"


def read_report(text: str) -> dict:
    """Parse and validate a report: the inverse of :func:`write_report`."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, an overlong integer or deep nesting
        raise SchemaViolationError("$", f"not valid JSON: {exc}") from exc
    validate_report_payload(payload)
    return payload
