"""Traced run: spans around the public functions of each lexnet module.

Spans are recorded from the benchmark side by replacing a function with
a timing wrapper in every lexnet module namespace that holds it, so
names imported with ``from .x import f`` (and lazy imports, which read
the module attribute at call time) are traced where they are called.
Per-node accessors such as ``UGraph.degree`` are deliberately not
wrapped: their call counts would swamp the spans being measured.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter


def _text_bytes(args, kwargs, result) -> dict:
    doc = args[0] if args else kwargs["doc"]
    return {"extraction.mentions": len(result), "extraction.bytes": len(doc.text.encode("utf-8"))}


def _bfs_sources(args, kwargs, result) -> dict:
    ug = args[0] if args else kwargs["ug"]
    return {"metrics.bfs_sources": ug.node_count}


def _rewire_attempts(args, kwargs, result) -> dict:
    attempts = args[1] if len(args) > 1 else kwargs["swap_attempts"]
    return {"nullmodels.rewire_swap_attempts": attempts}


# (span name, module, attribute path, counter hook or None). The span name
# is the metric prefix: "<span>_s" is its inclusive time per iteration.
SPANS = (
    ("extraction.load_registry", "lexnet.extraction", "load_registry", None),
    ("extraction.normalize_text", "lexnet.extraction", "normalize_text", None),
    ("extraction.find_citations", "lexnet.extraction", "find_citations", _text_bytes),
    ("extraction.build_edge_list", "lexnet.extraction", "build_edge_list", None),
    ("report.parse_edge_list", "lexnet.report", "parse_edge_list", None),
    ("report.write_report", "lexnet.report", "write_report",
     lambda a, k, r: {"report.report_bytes": len(r.encode("utf-8"))}),
    ("report.read_report", "lexnet.report", "read_report", None),
    ("report.write_graphml", "lexnet.report", "write_graphml", None),
    ("report.write_dot", "lexnet.report", "write_dot", None),
    ("graph.undirected_projection", "lexnet.graph", "DiGraph.undirected_projection", None),
    ("graph.remove_nodes", "lexnet.graph", "DiGraph.remove_nodes", None),
    ("metrics.phi_table", "lexnet.metrics", "phi_table", None),
    ("metrics.normalized_rich_club", "lexnet.metrics", "normalized_rich_club", None),
    ("metrics.global_clustering", "lexnet.metrics", "global_clustering", None),
    ("metrics.average_path_length", "lexnet.metrics", "average_path_length", _bfs_sources),
    ("metrics.betweenness_scores", "lexnet.metrics", "betweenness_scores", _bfs_sources),
    ("metrics.harmonic_closeness_scores", "lexnet.metrics", "harmonic_closeness_scores", _bfs_sources),
    ("communities.cnm_trace", "lexnet.communities", "cnm_trace",
     lambda a, k, r: {"communities.merges": len(r.merges)}),
    ("communities.modularity", "lexnet.communities", "modularity", None),
    ("communities.reduced_network_partition", "lexnet.communities", "reduced_network_partition", None),
    ("nullmodels.club_cohesion", "lexnet.nullmodels", "club_cohesion", None),
    ("nullmodels.degree_preserving_rewire", "lexnet.nullmodels", "degree_preserving_rewire",
     _rewire_attempts),
    ("nullmodels.er_baseline", "lexnet.nullmodels", "er_baseline", None),
    ("nullmodels.ws_baseline", "lexnet.nullmodels", "ws_baseline", None),
    ("nullmodels.concentrated_world_assessment", "lexnet.nullmodels",
     "concentrated_world_assessment", None),
    ("pipeline.build_rich_club_section", "lexnet.pipeline", "build_rich_club_section", None),
    ("pipeline.build_communities_section", "lexnet.pipeline", "build_communities_section", None),
    ("pipeline.build_baseline_sections", "lexnet.pipeline", "build_baseline_sections", None),
    ("pipeline.build_centrality_section", "lexnet.pipeline", "build_centrality_section", None),
    ("pipeline.analyze_graph", "lexnet.pipeline", "analyze_graph", None),
    # not a reported layer; traced so its file writes stay out of cli.self_s
    ("fixture.write_fixture", "lexnet.fixture", "write_fixture", None),
)

CLI_SPAN = "cli.run"

# Per-layer metrics: (name, unit, better). Times are inclusive seconds per
# iteration; "_calls" count spans; the rest are counters or ratios.
LAYER_METRICS = (
    ("extraction.load_registry_s", "s", "lower"),
    ("extraction.normalize_text_s", "s", "lower"),
    ("extraction.find_citations_s", "s", "lower"),
    ("extraction.build_edge_list_s", "s", "lower"),
    ("extraction.mb_per_s", "MB/s", "higher"),
    ("extraction.mentions", "count", "higher"),
    ("report.parse_edge_list_s", "s", "lower"),
    ("report.write_report_s", "s", "lower"),
    ("report.read_report_s", "s", "lower"),
    ("report.write_graphml_s", "s", "lower"),
    ("report.write_dot_s", "s", "lower"),
    ("report.report_bytes", "count", "lower"),
    ("graph.undirected_projection_s", "s", "lower"),
    ("graph.undirected_projection_calls", "count", "lower"),
    ("graph.remove_nodes_s", "s", "lower"),
    ("metrics.phi_table_s", "s", "lower"),
    ("metrics.normalized_rich_club_s", "s", "lower"),
    ("metrics.global_clustering_s", "s", "lower"),
    ("metrics.average_path_length_s", "s", "lower"),
    ("metrics.average_path_length_calls", "count", "lower"),
    ("metrics.betweenness_scores_s", "s", "lower"),
    ("metrics.harmonic_closeness_scores_s", "s", "lower"),
    ("metrics.bfs_sources", "count", "lower"),
    ("communities.cnm_trace_s", "s", "lower"),
    ("communities.merges", "count", "lower"),
    ("communities.modularity_s", "s", "lower"),
    ("communities.reduced_network_partition_s", "s", "lower"),
    ("nullmodels.club_cohesion_s", "s", "lower"),
    ("nullmodels.club_cohesion_calls", "count", "lower"),
    ("nullmodels.degree_preserving_rewire_s", "s", "lower"),
    ("nullmodels.rewire_calls", "count", "lower"),
    ("nullmodels.rewire_swap_attempts", "count", "lower"),
    ("nullmodels.er_baseline_s", "s", "lower"),
    ("nullmodels.ws_baseline_s", "s", "lower"),
    ("nullmodels.concentrated_world_assessment_s", "s", "lower"),
    ("pipeline.build_rich_club_section_s", "s", "lower"),
    ("pipeline.build_communities_section_s", "s", "lower"),
    ("pipeline.build_baseline_sections_s", "s", "lower"),
    ("pipeline.build_centrality_section_s", "s", "lower"),
    ("pipeline.analyze_graph_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Spans whose call count is itself a metric, under a shorter name.
_CALL_METRICS = {
    "graph.undirected_projection": "graph.undirected_projection_calls",
    "metrics.average_path_length": "metrics.average_path_length_calls",
    "nullmodels.club_cohesion": "nullmodels.club_cohesion_calls",
    "nullmodels.degree_preserving_rewire": "nullmodels.rewire_calls",
}


class Tracer:
    """In-memory span and counter store; spans are [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def wrap(self, name: str, fn, hook):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                self.counts.update(hook(args, kwargs, result))
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its direct children.

        Spans come from one thread and nest properly, so children of one
        parent never overlap and their durations simply add up.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def iteration_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, from the spans recorded so far.

        Counter hooks report under metric names; "extraction.bytes" only
        feeds extraction.mb_per_s.
        """
        values = {name: 0.0 for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            key = f"{name}_s"
            if key in values:
                values[key] += end - start
            calls[name] += 1
        for span_name, metric in _CALL_METRICS.items():
            values[metric] = float(calls[span_name])
        for key, count in self.counts.items():
            if key in values:
                values[key] = float(count)
        extract_s = values["extraction.build_edge_list_s"]
        if extract_s > 0:
            values["extraction.mb_per_s"] = self.counts["extraction.bytes"] / 1e6 / extract_s
        own = self.self_times()
        values["cli.self_s"] = sum(t for t, span in zip(own, self.spans) if span[0] == CLI_SPAN)
        return values

    def summary(self) -> dict[str, dict]:
        """Per span name: count, inclusive and self seconds."""
        out: dict[str, dict] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
        return out


def _lexnet_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lexnet" or name.startswith("lexnet."))]


@contextmanager
def patched(tracer: Tracer):
    """Install a wrapper at every binding of every traced function; undo on exit."""
    undo: list[tuple[object, str, object]] = []
    modules = _lexnet_modules()
    try:
        for name, module_name, path, hook in SPANS:
            owner = sys.modules[module_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[parts[-1]]
            wrapper = tracer.wrap(name, original, hook)
            if len(parts) > 1:  # a method: patch the class once
                undo.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
