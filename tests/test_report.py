"""Edge-list parsing, DOT/GraphML export, canonical JSON reports."""

import json
import warnings
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lexnet.communities import CommunityReport
from lexnet.errors import LexnetError, MalformedLineError, SchemaViolationError
from lexnet.config import PipelineConfig
from lexnet.extraction import CodeDocument, build_edge_list, load_registry
from lexnet.fixture import fixture_corpus, fixture_registry_text
from lexnet.metrics import NodeStats, NormalizedPhi, Role
from lexnet.nullmodels import Assessment, NullModelStats
from lexnet.pipeline import analyze_graph
from lexnet.report import (
    _ASSESSMENT_KEYS,
    _BASELINE_KEYS,
    _ROLE_KEYS,
    _ROLES,
    DuplicateRecordWarning,
    _escape,
    _quoteattr,
    canonical_json,
    parse_edge_list,
    read_report,
    validate_report_payload,
    write_dot,
    write_edge_list,
    write_graphml,
    write_node_sidecar,
    write_report,
)

from conftest import DELETE, REPORT_DEFECTS, corrupt, make_digraph, weights_by_slug


class TestParseEdgeList:
    def test_two_records(self):
        g = parse_edge_list("a\tb\t1\nb\ta\t2\n")
        assert g.node_count == 2
        assert g.arc_count == 2
        assert weights_by_slug(g) == {("a", "b"): 1, ("b", "a"): 2}

    def test_self_loop_line(self):
        with pytest.raises(MalformedLineError, match="line 1: self-citation on 'a'") as exc:
            parse_edge_list("a\ta\t1\n")
        assert exc.value.lineno == 1

    def test_sidecar_preserves_isolated(self):
        slugs = [f"c{i:02d}" for i in range(52)]
        lines = [f"{slugs[i]}\t{slugs[i + 1]}\t1" for i in range(51 - 1)]
        content = "\n".join(lines) + "\n"
        g = parse_edge_list(content, write_node_sidecar(slugs))
        assert g.node_count == 52
        isolated = [v for v in g.node_ids() if g.in_degree(v) + g.out_degree(v) == 0]
        assert [g.slug(v) for v in isolated] == ["c51"]

    def test_cited_slug_starting_with_hash(self):
        # '#a' would cite x, but its own record reads as a comment
        with pytest.raises(MalformedLineError, match="line 1: slug '#a' starts with '#'") as exc:
            parse_edge_list("x\t#a\t1\n#a\tx\t1\n")
        assert exc.value.lineno == 1

    def test_malformed_line_numbered(self):
        with pytest.raises(MalformedLineError) as exc:
            parse_edge_list("a\tb\t1\nbroken line\n")
        assert exc.value.lineno == 2

    def test_only_line_feeds_and_carriage_returns_end_a_line(self):
        # U+2028 would end a line for str.splitlines and leak "x" as a record
        g = parse_edge_list("a\tb\t1\n# note\u2028x\nb\tc\t1\n")
        assert weights_by_slug(g) == {("a", "b"): 1, ("b", "c"): 1}
        # U+0085 is a character XML carries, so it stays inside its slug
        g = parse_edge_list("a\tb\t1\nb\tc\x85d\t1\n")
        assert weights_by_slug(g) == {("a", "b"): 1, ("b", "c\x85d"): 1}

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends(self, end):
        lines = ["# edges", "a\tb\t1", "", "b\tc\t2"]
        g = parse_edge_list(end.join(lines) + end)
        assert weights_by_slug(g) == {("a", "b"): 1, ("b", "c"): 2}
        with pytest.raises(MalformedLineError) as exc:
            parse_edge_list(end.join([*lines, "c\ta"]) + end)
        assert exc.value.lineno == 5

    def test_bad_count(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("a\tb\tzero\n")
        with pytest.raises(MalformedLineError):
            parse_edge_list("a\tb\t0\n")

    def test_empty_input(self):
        with pytest.raises(LexnetError, match="no nodes in edge list or sidecar"):
            parse_edge_list("")

    def test_duplicate_records_summed_with_warning(self):
        with pytest.warns(DuplicateRecordWarning):
            g = parse_edge_list("a\tb\t1\na\tb\t2\n")
        assert weights_by_slug(g) == {("a", "b"): 3}
        assert g.arc_count == 1

    def test_no_duplicate_warning_before_a_failing_line(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MalformedLineError) as exc:
                parse_edge_list("a\tb\t1\na\tb\t2\nbroken line\n")
        assert exc.value.lineno == 3
        assert [w for w in caught if issubclass(w.category, DuplicateRecordWarning)] == []

    def test_round_trip(self):
        registry = load_registry(fixture_registry_text())
        corpus = [CodeDocument(slug, text) for slug, text in fixture_corpus().items()]
        rows = build_edge_list(corpus, registry)
        again = parse_edge_list(write_edge_list(rows), write_node_sidecar(registry.slugs()))
        assert again.node_count == len(registry.slugs())
        assert sorted((again.slug(s), again.slug(t), w) for s, t, w in again.arcs()) == rows


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

    def test_role_is_quoted_as_a_dot_id(self):
        g = make_digraph(["a", "b"], [("a", "b")])
        lines = write_dot(g, {"a": 'x"y', "b": Role.ORDINARY}).splitlines()
        assert lines[1] == '  "a" [shape=diamond, role="x\\"y"];'
        assert lines[2] == '  "b" [shape=diamond, role="ordinary"];'

    # the checks run once for both formats; each is tested through each writer

    @pytest.mark.parametrize("write", [write_dot, write_graphml])
    def test_inconsistent_roles(self, write, annotated_graph):
        g, roles, club, communities = annotated_graph
        with pytest.raises(LexnetError, match=r"roles missing for \['alpha', 'beta'"):
            write(g, {"hub": "ordinary"}, club, communities)
        with pytest.raises(LexnetError, match=r"roles for unknown slugs \['nope'\]"):
            write(g, {**roles, "nope": "ordinary"}, club, communities)

    @pytest.mark.parametrize("write", [write_dot, write_graphml])
    def test_unknown_club_slug(self, write, annotated_graph):
        g, roles, _, _ = annotated_graph
        for club in ({"top_citing": ["nope"], "top_cited": []}, {"top_cited": ["hub", "nope"]}):
            with pytest.raises(LexnetError, match="rich-club slug 'nope' not in graph"):
                write(g, roles, club, None)

    @pytest.mark.parametrize("write", [write_dot, write_graphml])
    def test_unknown_community_slug(self, write, annotated_graph):
        g, roles, club, communities = annotated_graph
        with pytest.raises(LexnetError, match=r"communities for unknown slugs \['nope'\]"):
            write(g, roles, club, {**communities, "nope": 2})


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

    def test_slugs_that_need_escaping_round_trip(self):
        slugs = ["a&b", "<x>", 'say "hi"', "it's", "two words", "&<>\"' all"]
        g = make_digraph(slugs, list(zip(slugs, slugs[1:])))
        root = ET.fromstring(write_graphml(g, dict.fromkeys(slugs, "ordinary")))
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        nodes = root.findall(".//g:node", ns)
        assert [node.get("id") for node in nodes] == sorted(slugs)
        display = [node.find("g:data[@key='d_display']", ns).text for node in nodes]
        assert display == sorted(slugs)
        arcs = [(e.get("source"), e.get("target")) for e in root.findall(".//g:edge", ns)]
        assert arcs == sorted(zip(slugs, slugs[1:]))


# every character the escapes treat specially, plus accents and plain letters
_XML_TEXT = st.text(alphabet="&<>\"'\n\r\téÉçœab Z")


@given(_XML_TEXT)
@example("plain")  # double-quoted
@example('a "quote"')  # single-quoted
@example("""both ' and " """)  # double-quoted with &quot;
def test_xml_escapes_match_saxutils(text):
    assert _escape(text) == escape(text)
    assert _quoteattr(text) == quoteattr(text)


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

    def test_empty_object(self):
        assert canonical_json({}) == "{}"

    def test_non_string_key_rejected(self):
        with pytest.raises(ValueError, match="report keys must be strings"):
            canonical_json({1: 2})

    def test_unsupported_value_rejected(self):
        with pytest.raises(ValueError, match="unsupported report value"):
            canonical_json({"a": {1, 2}})


# Every field the schema requires: (keys down to the object that holds it,
# that object's JSON path, the field). The slug is a fixture code.
_REQUIRED_FIELDS = [
    (parents, path, key)
    for parents, path, keys in (
        (("graph_summary",), "$.graph_summary", ("n", "arcs", "undirected_edges", "density")),
        (("roles", "sante_publique"), "$.roles.sante_publique",
         ("in_degree", "out_degree", "total_degree", "role")),
        (("rankings",), "$.rankings", ("top_citing", "top_cited")),
        (("rich_club",), "$.rich_club",
         ("members", "top_citing", "top_cited", "internal_density", "quotation_capture")),
        (("baselines", 1), "$.baselines[1]",
         ("model", "samples", "seed", "params", "density_mean", "clustering_mean",
          "clustering_stddev", "path_length_mean", "path_length_stddev")),
        (("assessment",), "$.assessment",
         ("observed", "density_ratio_vs_er", "clustering_ratio_vs_er", "rich_club_present",
          "verdict")),
        (("communities",), "$.communities", ("q", "main", "residual", "min_size")),
        (("provenance",), "$.provenance", ("config_digest", "seed", "tool_version", "run_id")),
    )
    for key in keys
]


@pytest.fixture(scope="module")
def report(fixture_graph):
    config = PipelineConfig(null_samples=5)
    return analyze_graph(fixture_graph, config, inputs=["edges.tsv"], run_id="t")


def test_schema_literals_match_their_sources(report):
    # report.py writes these out so that it imports neither metrics nor nullmodels
    assert _ROLES == tuple(role.value for role in Role)
    assert _ROLE_KEYS == NodeStats._fields
    assert _BASELINE_KEYS == NullModelStats._fields
    assert _ASSESSMENT_KEYS == Assessment._fields
    # nor communities: the communities keys it requires, found by dropping each
    required = []
    for key in report["communities"]:
        section = {k: v for k, v in report["communities"].items() if k != key}
        try:
            validate_report_payload({**report, "communities": section})
        except SchemaViolationError:
            required.append(key)
    assert sorted(required) == sorted(("q", "main", "residual", "min_size"))
    assert set(required) <= set(CommunityReport._fields)


def test_records_are_their_section_entries(report):
    assert tuple(report["rich_club"]["phi_normalized"]) == NormalizedPhi._fields
    assert {tuple(entry) for entry in report["roles"].values()} == {NodeStats._fields}


class TestReportRoundTrip:
    def test_write_read_identity(self, report):
        text = write_report(report)
        again = read_report(text)
        assert again == report

    def test_write_is_byte_stable(self, report):
        assert write_report(report) == write_report(report)

    def test_missing_section_rejected(self, report):
        payload = dict(report)
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

    def test_integer_too_long_to_parse(self):
        with pytest.raises(SchemaViolationError) as exc:
            read_report('{"schema_version": ' + "1" * 5000 + "}")
        assert exc.value.path == "$"

    @pytest.mark.parametrize(("keys", "value", "path"), REPORT_DEFECTS)
    def test_defect_rejected(self, report, keys, value, path):
        payload = json.loads(write_report(report))
        corrupt(payload, keys, value)
        assert self._violation(payload) == path

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

    @pytest.mark.parametrize(("parents", "path", "key"), _REQUIRED_FIELDS,
                             ids=[f"{path}.{key}" for _, path, key in _REQUIRED_FIELDS])
    def test_missing_required_field_rejected(self, report, parents, path, key):
        payload = json.loads(write_report(report))
        corrupt(payload, (*parents, key), DELETE)
        with pytest.raises(SchemaViolationError) as exc:
            read_report(canonical_json(payload))
        assert exc.value.path == f"{path}.{key}"
        assert str(exc.value) == f"{path}.{key}: missing field"
