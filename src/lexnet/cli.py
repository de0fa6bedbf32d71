"""Command-line front end: extract, analyze, partial reports, export, fixture.

Exit codes: 0 success, 2 usage or configuration error, 3 malformed input
data or an unreadable input or unwritable output, 4 graph too degenerate
to analyze. Diagnostics go to stderr; machine-readable output goes to
--out files (written atomically) or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Sequence

from .config import PipelineConfig, load_config
from .errors import (
    ConfigError,
    DegenerateGraphError,
    EmptyGraphError,
    InvalidEncodingError,
    LexnetError,
)
from .extraction import CodeDocument, build_edge_list, load_registry
from .fixture import write_fixture
from .graph import DiGraph
from .pipeline import REPORT_SECTIONS, analyze_graph, build_sections
from .report import (
    SCHEMA_VERSION,
    canonical_json,
    parse_edge_list,
    read_report,
    write_dot,
    write_graphml,
    write_node_sidecar,
    write_report,
)

CONFIG_ENV_VAR = "LEXNET_CONFIG"

_OVERRIDE_FLAGS = (
    ("k_citing", int),
    ("k_cited", int),
    ("min_community_size", int),
    ("null_samples", int),
    ("seed", int),
    ("ws_p", float),
    ("rewire_budget_factor", int),
)

# The report sections each analysis subcommand writes, all selected from
# one pipeline pass, so a partial output is section-identical to analyze.
_COMMAND_SECTIONS = {
    "analyze": REPORT_SECTIONS,
    "richclub": ("graph_summary", "rich_club", "provenance"),
    "communities": ("graph_summary", "communities", "provenance"),
    "nulls": ("graph_summary", "baselines", "assessment", "provenance"),
}


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncodingError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise LexnetError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write to stdout, or atomically to path: a temp file beside it is renamed over it."""
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, target)
    except OSError as exc:
        with contextlib.suppress(OSError):
            temp.unlink()
        # the OSError names the temp file; report the requested path instead
        raise LexnetError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    for name, flag_type in _OVERRIDE_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=flag_type, default=None)
    parser.add_argument("--run-id", default="", help="identifier stored in provenance")


def _add_graph_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--edges", required=True, help="edge-list TSV")
    parser.add_argument("--nodes", help="node sidecar (one slug per line)")
    parser.add_argument("--out", help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexnet",
        description="Citation-network analysis for legal code corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="scan a corpus against a registry")
    p.add_argument("--corpus", required=True, help="directory of <slug>.txt files")
    p.add_argument("--registry", required=True, help="registry TSV file")
    p.add_argument("--out", help="edge-list output (default: stdout)")
    p.add_argument("--nodes-out", help="write a node sidecar listing all registry slugs")

    for name, help_text in (
        ("analyze", "full analysis report"),
        ("richclub", "rich-club section only"),
        ("communities", "communities section only"),
        ("nulls", "baselines and assessment only"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_graph_flags(p)
        _add_config_flags(p)

    p = sub.add_parser("export", help="DOT / GraphML export from a report")
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes")
    p.add_argument("--report", required=True, help="analysis report JSON")
    p.add_argument("--dot", help="DOT output path")
    p.add_argument("--graphml", help="GraphML output path")

    p = sub.add_parser("fixture", help="emit the bundled synthetic corpus")
    p.add_argument("--out-dir", required=True)

    return parser


def _load_graph(args: argparse.Namespace) -> DiGraph:
    nodes_text = _read_text(args.nodes) if args.nodes else None
    graph = parse_edge_list(_read_text(args.edges), nodes_text)
    if graph.node_count < 3:
        raise DegenerateGraphError(
            f"analysis needs at least 3 nodes, got {graph.node_count}"
        )
    return graph


def _load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    text = _read_text(path) if path else None
    overrides = {name: getattr(args, name) for name, _ in _OVERRIDE_FLAGS}
    return load_config(text, overrides)


def _inputs(args: argparse.Namespace) -> list[str]:
    inputs = [args.edges]
    if args.nodes:
        inputs.append(args.nodes)
    return inputs


def _cmd_extract(args: argparse.Namespace) -> int:
    registry = load_registry(_read_text(args.registry))
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise LexnetError(f"corpus directory {args.corpus!r} does not exist")
    corpus = [
        CodeDocument(path.stem, _read_text(str(path)))
        for path in sorted(corpus_dir.glob("*.txt"))
    ]
    edge_list = build_edge_list(corpus, registry)
    _write_text(args.out, edge_list.to_tsv())
    if args.nodes_out:
        _write_text(args.nodes_out, write_node_sidecar(registry.slugs()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    config = _load_pipeline_config(args)
    for key in ("k_citing", "k_cited"):
        k = getattr(config, key)
        if k > graph.node_count:
            raise ConfigError(f"{key}={k} exceeds the node count {graph.node_count}")
    names = _COMMAND_SECTIONS[args.command]
    if names == REPORT_SECTIONS:
        text = write_report(analyze_graph(graph, config, _inputs(args), args.run_id))
    else:
        sections = build_sections(graph, config, names, _inputs(args), args.run_id)
        text = canonical_json({"schema_version": SCHEMA_VERSION, **sections}) + "\n"
    _write_text(args.out, text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if not args.dot and not args.graphml:
        raise ConfigError("export needs --dot and/or --graphml")
    nodes_text = _read_text(args.nodes) if args.nodes else None
    graph = parse_edge_list(_read_text(args.edges), nodes_text)
    report = read_report(_read_text(args.report))
    roles = {slug: entry["role"] for slug, entry in report.roles.items()}
    rich_club = {
        "top_citing": report.rich_club["top_citing"],
        "top_cited": report.rich_club["top_cited"],
    }
    communities = report.communities.get("assignment", {})
    if args.dot:
        _write_text(args.dot, write_dot(graph, roles, rich_club, communities))
    if args.graphml:
        _write_text(args.graphml, write_graphml(graph, roles, rich_club, communities))
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    try:
        root = write_fixture(args.out_dir)
    except OSError as exc:
        raise LexnetError(f"cannot write {args.out_dir}: {exc}") from exc
    print(f"fixture written to {root}", file=sys.stderr)
    return 0


_COMMANDS = {
    "extract": _cmd_extract,
    **dict.fromkeys(_COMMAND_SECTIONS, _cmd_report),
    "export": _cmd_export,
    "fixture": _cmd_fixture,
}


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"lexnet: configuration error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateGraphError, EmptyGraphError) as exc:
        print(f"lexnet: degenerate graph: {exc}", file=sys.stderr)
        return 4
    except LexnetError as exc:
        print(f"lexnet: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
