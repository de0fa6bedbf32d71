"""Edge-list parsing, DOT/GraphML export, canonical JSON reports."""

import json
import xml.etree.ElementTree as ET

import pytest

from lexnet.errors import (
    EmptyInputError,
    InconsistentInputsError,
    MalformedLineError,
    SchemaViolationError,
    SelfLoopLineError,
)
from lexnet.config import PipelineConfig
from lexnet.extraction import CodeDocument, build_edge_list, load_registry
from lexnet.fixture import fixture_corpus, fixture_registry_text
from lexnet.pipeline import analyze_graph
from lexnet.report import (
    DuplicateRecordWarning,
    canonical_json,
    parse_edge_list,
    read_report,
    write_dot,
    write_graphml,
    write_node_sidecar,
    write_report,
)

from conftest import make_digraph


class TestParseEdgeList:
    def test_two_records(self):
        g = parse_edge_list("a\tb\t1\nb\ta\t2\n")
        assert g.node_count == 2
        assert g.arc_count == 2
        assert g.weight(g.id_of("b"), g.id_of("a")) == 2

    def test_self_loop_line(self):
        with pytest.raises(SelfLoopLineError):
            parse_edge_list("a\ta\t1\n")

    def test_sidecar_preserves_isolated(self):
        slugs = [f"c{i:02d}" for i in range(52)]
        lines = [f"{slugs[i]}\t{slugs[i + 1]}\t1" for i in range(51 - 1)]
        content = "\n".join(lines) + "\n"
        g = parse_edge_list(content, write_node_sidecar(slugs))
        assert g.node_count == 52
        isolated = [v for v in g.node_ids() if g.in_degree(v) + g.out_degree(v) == 0]
        assert [g.slug(v) for v in isolated] == ["c51"]

    def test_malformed_line_numbered(self):
        with pytest.raises(MalformedLineError) as exc:
            parse_edge_list("a\tb\t1\nbroken line\n")
        assert exc.value.lineno == 2

    def test_bad_count(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("a\tb\tzero\n")
        with pytest.raises(MalformedLineError):
            parse_edge_list("a\tb\t0\n")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_edge_list("")

    def test_duplicate_records_summed_with_warning(self):
        with pytest.warns(DuplicateRecordWarning):
            g = parse_edge_list("a\tb\t1\na\tb\t2\n")
        assert g.weight(g.id_of("a"), g.id_of("b")) == 3
        assert g.arc_count == 1

    def test_round_trip(self):
        registry = load_registry(fixture_registry_text())
        corpus = [CodeDocument(slug, text) for slug, text in fixture_corpus().items()]
        edge_list = build_edge_list(corpus, registry)
        again = parse_edge_list(edge_list.to_tsv(), write_node_sidecar(registry.slugs()))
        assert again.node_count == len(registry.slugs())
        assert sorted((again.slug(s), again.slug(t), w) for s, t, w in again.arcs()) == [
            (r.citing_slug, r.cited_slug, r.count) for r in edge_list.records
        ]


@pytest.fixture
def annotated_graph():
    g = make_digraph(
        ["hub", "alpha", "beta", "gamma"],
        [("hub", "alpha"), ("alpha", "hub"), ("beta", "hub"), ("gamma", "hub"), ("hub", "beta")],
    )
    roles = {"hub": "ordinary", "alpha": "ordinary", "beta": "ordinary", "gamma": "pendant"}
    club = {"top_citing": ["hub"], "top_cited": ["hub", "alpha"]}
    communities = {"alpha": 0, "beta": 0, "gamma": 1}
    return g, roles, club, communities


class TestWriteDot:
    def test_shapes(self, annotated_graph):
        g, roles, club, communities = annotated_graph
        text = write_dot(g, roles, club, communities)
        assert '"hub" [shape=hexagon' in text  # in both top sets
        assert '"alpha" [shape=circle' in text  # top cited only
        assert '"beta" [shape=diamond' in text  # ordinary
        assert "cluster=0" in text and "cluster=1" in text

    def test_square_for_top_citing_only(self, annotated_graph):
        g, roles, _, _ = annotated_graph
        text = write_dot(g, roles, {"top_citing": ["beta"], "top_cited": []}, None)
        assert '"beta" [shape=square' in text

    def test_deterministic(self, annotated_graph):
        g, roles, club, communities = annotated_graph
        assert write_dot(g, roles, club, communities) == write_dot(g, roles, club, communities)

    def test_inconsistent_roles(self, annotated_graph):
        g, _, club, communities = annotated_graph
        with pytest.raises(InconsistentInputsError):
            write_dot(g, {"hub": "ordinary"}, club, communities)

    def test_unknown_club_slug(self, annotated_graph):
        g, roles, _, _ = annotated_graph
        with pytest.raises(InconsistentInputsError):
            write_dot(g, roles, {"top_citing": ["nope"], "top_cited": []}, None)


class TestWriteGraphml:
    def test_structure_survives_reimport(self, annotated_graph):
        g, roles, club, communities = annotated_graph
        text = write_graphml(g, roles, club, communities)
        root = ET.fromstring(text)
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        nodes = root.findall(".//g:node", ns)
        edges = root.findall(".//g:edge", ns)
        assert len(nodes) == g.node_count
        assert len(edges) == g.arc_count
        # the attribute values we own survive the round trip
        reimported_arcs = sorted(
            (e.get("source"), e.get("target"), int(e.findall("g:data", ns)[0].text))
            for e in edges
        )
        assert reimported_arcs == sorted(
            (g.slug(s), g.slug(t), w) for s, t, w in g.arcs()
        )
        for node in nodes:
            data = {d.get("key"): d.text for d in node.findall("g:data", ns)}
            assert data["d_role"] == roles[node.get("id")]

    def test_edge_count_attribute(self, annotated_graph):
        g, roles, club, communities = annotated_graph
        text = write_graphml(g, roles, club, communities)
        assert '<data key="e_count">1</data>' in text

    def test_pendant_degrees(self, annotated_graph):
        g, roles, club, communities = annotated_graph
        text = write_graphml(g, roles, club, communities)
        root = ET.fromstring(text)
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        for node in root.findall(".//g:node", ns):
            if node.get("id") == "gamma":
                data = {d.get("key"): d.text for d in node.findall("g:data", ns)}
                assert data["d_in"] == "0" and data["d_out"] == "1"
                assert data["d_role"] == "pendant"

    def test_deterministic(self, annotated_graph):
        g, roles, club, communities = annotated_graph
        assert write_graphml(g, roles, club, communities) == write_graphml(
            g, roles, club, communities
        )


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}'

    def test_float_format_round_trips(self):
        for x in (0.1, 1 / 3, 5 / 14, 1e-17, 123456.789, -0.0):
            text = canonical_json(x)
            assert float(json.loads(text)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_unicode_escaped(self):
        assert canonical_json("pénal") == '"p\\u00e9nal"'


@pytest.fixture(scope="module")
def report(fixture_graph):
    config = PipelineConfig(null_samples=5)
    return analyze_graph(fixture_graph, config, inputs=["edges.tsv"], run_id="t")


class TestReportRoundTrip:
    def test_write_read_identity(self, report):
        text = write_report(report)
        again = read_report(text)
        assert again == report

    def test_write_is_byte_stable(self, report):
        assert write_report(report) == write_report(report)

    def test_missing_section_rejected(self, report):
        payload = report.to_payload()
        del payload["roles"]
        with pytest.raises(SchemaViolationError) as exc:
            read_report(canonical_json(payload))
        assert exc.value.path == "$.roles"

    def test_unknown_club_member_rejected(self, report):
        payload = json.loads(write_report(report))
        payload["rich_club"]["members"] = ["not_a_code"]
        with pytest.raises(SchemaViolationError) as exc:
            read_report(canonical_json(payload))
        assert exc.value.path.startswith("$.rich_club.members")

    def test_not_json(self):
        with pytest.raises(SchemaViolationError):
            read_report("not json at all")

    @staticmethod
    def _violation(payload) -> str:
        with pytest.raises(SchemaViolationError) as exc:
            read_report(canonical_json(payload))
        return exc.value.path

    def test_missing_centrality_kind_rejected(self, report):
        payload = json.loads(write_report(report))
        del payload["centrality"]["closeness"]
        assert self._violation(payload) == "$.centrality.closeness"

    def test_centrality_keyed_by_other_slugs_rejected(self, report):
        payload = json.loads(write_report(report))
        scores = payload["centrality"]["betweenness"]
        scores["not_a_code"] = scores.pop(sorted(scores)[0])
        assert self._violation(payload) == "$.centrality.betweenness"

    def test_non_numeric_centrality_rejected(self, report):
        payload = json.loads(write_report(report))
        slug = sorted(payload["roles"])[0]
        payload["centrality"]["degree"][slug] = True
        assert self._violation(payload) == f"$.centrality.degree.{slug}"

    def test_baseline_entry_not_an_object_rejected(self, report):
        payload = json.loads(write_report(report))
        payload["baselines"][1] = "er_gnm"
        assert self._violation(payload) == "$.baselines[1]"

    def test_baseline_entry_missing_field_rejected(self, report):
        payload = json.loads(write_report(report))
        del payload["baselines"][0]["path_length_stddev"]
        assert self._violation(payload) == "$.baselines[0].path_length_stddev"
