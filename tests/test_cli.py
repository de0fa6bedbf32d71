"""End-to-end CLI behavior: subcommands, exit codes, composition, determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import typing
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexnet.metrics
import lexnet.nullmodels
import lexnet.pipeline
from lexnet.cli import main, run
from lexnet.config import PipelineConfig
from lexnet.errors import LexnetError
from lexnet.files import read_text
from lexnet.graph import DiGraph
from lexnet.report import parse_edge_list, read_report

from conftest import REPORT_DEFECTS, corrupt

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"

# sha256 of each command's output on the bundled fixture at the default
# config, run from one working directory with relative input paths (the
# paths are recorded in provenance).
GOLDEN_DIGESTS = {
    "analyze": "05b69b21b8495e33b6fd48966d4fb6bd8667a526e0b909771f4304834ae2ab32",
    "richclub": "7019c1694c4a112f6453817ede80db04564ae7a34a3f821b234271f8b8184075",
    "communities": "01fb13f430080816d33c05a7924c4d76c7d06ce34f8be75b73721b1e8729170a",
    "nulls": "14229651296c8f70a531c3d6374c7be829519ffb0c077bcaba4eaab4f0fbcc71",
}

# sha256 of the DOT and GraphML export of the golden analyze report.
GOLDEN_EXPORT_DIGESTS = {
    "graph.dot": "8e1e2cfb032c6ba7ecf2152ecbacc28deffc5a3b2d9dd304eaa2ae2e524e153e",
    "graph.graphml": "19a297dea011c679f1d043916e6bf3ce307df85c6f6a78a34be7fa9a258a3977",
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fx")
    assert run(["fixture", "--out-dir", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def extracted(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("extracted")
    edges = out / "edges.tsv"
    nodes = out / "nodes.txt"
    rc = run(
        [
            "extract",
            "--corpus",
            str(fixture_dir / "corpus"),
            "--registry",
            str(fixture_dir / "registry.tsv"),
            "--out",
            str(edges),
            "--nodes-out",
            str(nodes),
        ]
    )
    assert rc == 0
    return edges, nodes


def _analyze(extracted, out_path, *extra):
    edges, nodes = extracted
    return run(
        ["analyze", "--edges", str(edges), "--nodes", str(nodes), "--out", str(out_path),
         "--null-samples", "10", *extra]
    )


class TestFixtureAndExtract:
    def test_fixture_layout(self, fixture_dir):
        assert (fixture_dir / "registry.tsv").exists()
        assert (fixture_dir / "README.md").exists()
        assert len(list((fixture_dir / "corpus").glob("*.txt"))) == 52

    def test_edge_list_is_sorted_tsv(self, extracted):
        edges, nodes = extracted
        lines = edges.read_text(encoding="utf-8").splitlines()
        keys = [tuple(line.split("\t")[:2]) for line in lines]
        assert keys == sorted(keys)
        assert len(nodes.read_text(encoding="utf-8").splitlines()) == 52

    def test_extract_holds_one_document_at_a_time(self, tmp_path):
        # extract's peak memory does not grow with the number of documents
        slugs = [f"c{i:02}" for i in range(40)]
        registry = tmp_path / "registry.tsv"
        registry.write_text("".join(f"{s}\tCode {s}\tCode {s}\n" for s in slugs), encoding="utf-8")
        text = "Voir le Code c00.\n" + "Sans renvoi. " * 4000 + "\n"

        def peak(count: int) -> int:
            corpus = tmp_path / f"corpus{count}"
            corpus.mkdir(exist_ok=True)
            for slug in slugs[:count]:
                (corpus / f"{slug}.txt").write_text(text, encoding="utf-8")
            argv = ["extract", "--corpus", str(corpus), "--registry", str(registry),
                    "--out", str(tmp_path / "edges.tsv")]
            tracemalloc.start()
            try:
                assert run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # imports and compiles what every run shares
        small, large = peak(4), peak(40)
        assert large < 1.5 * small, (small, large)


class TestAnalyze:
    def test_full_report(self, extracted, tmp_path):
        out = tmp_path / "report.json"
        assert _analyze(extracted, out) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["graph_summary"]["n"] == 52
        assert report["assessment"]["verdict"] == "concentrated_world"

    def test_determinism(self, extracted, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert _analyze(extracted, a, "--seed", "7") == 0
        assert _analyze(extracted, b, "--seed", "7") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_nulls_only_deterministically(self, extracted, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert _analyze(extracted, a, "--seed", "7") == 0
        assert _analyze(extracted, b, "--seed", "8") == 0
        ra = json.loads(a.read_text(encoding="utf-8"))
        rb = json.loads(b.read_text(encoding="utf-8"))
        assert ra["roles"] == rb["roles"]
        assert ra["provenance"]["seed"] != rb["provenance"]["seed"]

    def test_partial_commands_compose(self, extracted, tmp_path):
        edges, nodes = extracted
        full = tmp_path / "full.json"
        assert _analyze(extracted, full) == 0
        report = json.loads(full.read_text(encoding="utf-8"))
        for command, sections in (
            ("richclub", {"rich_club"}),
            ("communities", {"communities"}),
            ("nulls", {"baselines", "assessment"}),
        ):
            partial_path = tmp_path / f"{command}.json"
            rc = run(
                [command, "--edges", str(edges), "--nodes", str(nodes),
                 "--out", str(partial_path), "--null-samples", "10"]
            )
            assert rc == 0
            partial = json.loads(partial_path.read_text(encoding="utf-8"))
            assert set(partial) == {"schema_version", "graph_summary", "provenance"} | sections
            for key, value in partial.items():
                assert value == report[key], (command, key)

    def test_golden_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["fixture", "--out-dir", "fx"]) == 0
        assert run(["extract", "--corpus", "fx/corpus", "--registry", "fx/registry.tsv",
                    "--out", "edges.tsv", "--nodes-out", "nodes.txt"]) == 0
        digests = {}
        for command in GOLDEN_DIGESTS:
            out = f"{command}.json"
            assert run([command, "--edges", "edges.tsv", "--nodes", "nodes.txt", "--out", out]) == 0
            digests[command] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
        assert digests == GOLDEN_DIGESTS

    def test_one_projection_and_one_cohesion_test_per_run(self, extracted, tmp_path, monkeypatch):
        calls = {"club_cohesion": 0, "undirected_projection": 0, "top_citing": 0, "top_cited": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        cohesion = counting("club_cohesion", lexnet.nullmodels.club_cohesion)
        monkeypatch.setattr(lexnet.pipeline, "club_cohesion", cohesion)
        monkeypatch.setattr(lexnet.nullmodels, "club_cohesion", cohesion)
        for name in ("top_citing", "top_cited"):
            ranking = counting(name, getattr(lexnet.metrics, name))
            monkeypatch.setattr(lexnet.metrics, name, ranking)
            if hasattr(lexnet.pipeline, name):
                monkeypatch.setattr(lexnet.pipeline, name, ranking)
        monkeypatch.setattr(
            DiGraph,
            "undirected_projection",
            counting("undirected_projection", DiGraph.undirected_projection),
        )
        assert _analyze(extracted, tmp_path / "r.json") == 0
        # one projection of the whole graph, one of the reduced network; the
        # rankings section reads the rich club's rankings
        assert calls == {"club_cohesion": 1, "undirected_projection": 2, "top_citing": 1,
                         "top_cited": 1}

    def test_config_file_and_flag_override(self, extracted, tmp_path):
        edges, nodes = extracted
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "null_samples": 10}), encoding="utf-8")
        out = tmp_path / "r.json"
        rc = run(
            ["analyze", "--edges", str(edges), "--nodes", str(nodes),
             "--config", str(config), "--seed", "99", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["provenance"]["seed"] == 99  # flag wins
        assert report["provenance"]["config"]["null_samples"] == 10

    def test_config_env_var(self, extracted, tmp_path, monkeypatch):
        edges, nodes = extracted
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"null_samples": 10, "seed": 13}), encoding="utf-8")
        monkeypatch.setenv("LEXNET_CONFIG", str(config))
        out = tmp_path / "r.json"
        assert run(["analyze", "--edges", str(edges), "--nodes", str(nodes), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["provenance"]["seed"] == 13


@pytest.mark.parametrize("command", ["extract", "analyze"])
def test_without_out_the_output_goes_to_stdout(command, fixture_dir, extracted, tmp_path,
                                               capsysbinary):
    edges, nodes = extracted
    argv = {
        "extract": ["extract", "--corpus", str(fixture_dir / "corpus"),
                    "--registry", str(fixture_dir / "registry.tsv")],
        "analyze": ["analyze", "--edges", str(edges), "--nodes", str(nodes), "--null-samples", "2"],
    }[command]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr() == (b"", b"")
    assert run(argv) == 0
    assert capsysbinary.readouterr() == (out.read_bytes(), b"")


class TestExport:
    def test_dot_and_graphml(self, extracted, tmp_path):
        edges, nodes = extracted
        report_path = tmp_path / "report.json"
        assert _analyze(extracted, report_path) == 0
        dot = tmp_path / "g.dot"
        graphml = tmp_path / "g.graphml"
        rc = run(
            ["export", "--edges", str(edges), "--nodes", str(nodes),
             "--report", str(report_path), "--dot", str(dot), "--graphml", str(graphml)]
        )
        assert rc == 0
        dot_text = dot.read_text(encoding="utf-8")
        assert '"sante_publique" [shape=hexagon' in dot_text
        assert '"legion_honneur" [shape=diamond' in dot_text
        assert "<graphml" in graphml.read_text(encoding="utf-8")

    def test_dot_deterministic(self, extracted, tmp_path):
        edges, nodes = extracted
        report_path = tmp_path / "report.json"
        assert _analyze(extracted, report_path) == 0
        paths = [tmp_path / "a.dot", tmp_path / "b.dot"]
        for p in paths:
            assert run(
                ["export", "--edges", str(edges), "--nodes", str(nodes),
                 "--report", str(report_path), "--dot", str(p)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_golden_exports(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["fixture", "--out-dir", "fx"]) == 0
        assert run(["extract", "--corpus", "fx/corpus", "--registry", "fx/registry.tsv",
                    "--out", "edges.tsv", "--nodes-out", "nodes.txt"]) == 0
        assert run(["analyze", "--edges", "edges.tsv", "--nodes", "nodes.txt",
                    "--out", "report.json"]) == 0
        assert run(["export", "--edges", "edges.tsv", "--nodes", "nodes.txt", "--report",
                    "report.json", "--dot", "graph.dot", "--graphml", "graph.graphml"]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_EXPORT_DIGESTS
        }
        assert digests == GOLDEN_EXPORT_DIGESTS

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text('a"b\tc\\\t1\nc\\\td\t1\nd\ta"b\t1\n', encoding="utf-8")
        report = tmp_path / "report.json"
        dot = tmp_path / "graph.dot"
        assert run(["analyze", "--edges", str(edges), "--k-citing", "1", "--k-cited", "1",
                    "--null-samples", "2", "--out", str(report)]) == 0
        assert run(["export", "--edges", str(edges), "--report", str(report),
                    "--dot", str(dot)]) == 0
        assert dot.read_text(encoding="utf-8").splitlines() == [
            "digraph citations {",
            '  "a\\"b" [shape=hexagon, role="ordinary"];',
            '  "c\\\\" [shape=diamond, role="ordinary", cluster=0];',
            '  "d" [shape=diamond, role="ordinary", cluster=0];',
            '  "a\\"b" -> "c\\\\" [weight=1];',
            '  "c\\\\" -> "d" [weight=1];',
            '  "d" -> "a\\"b" [weight=1];',
            "}",
        ]

    def test_export_requires_a_format(self, extracted, tmp_path):
        edges, nodes = extracted
        report_path = tmp_path / "report.json"
        assert _analyze(extracted, report_path) == 0
        assert run(
            ["export", "--edges", str(edges), "--nodes", str(nodes), "--report", str(report_path)]
        ) == 2


def test_byte_order_mark_is_not_part_of_an_input(fixture_dir, tmp_path, monkeypatch):
    # an editor may save UTF-8 with a leading U+FEFF; every input is read
    # without it, so marked inputs give the bytes of unmarked ones
    registry = [
        line
        for line in (fixture_dir / "registry.tsv").read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")  # an entry first, so a kept mark would enter a slug
    ]
    outputs = {}
    for name, mark in (("plain", ""), ("marked", "\ufeff")):
        root = tmp_path / name
        (root / "corpus").mkdir(parents=True)
        monkeypatch.chdir(root)

        def write(path, text, mark=mark):
            Path(path).write_text(mark + text, encoding="utf-8")

        write("registry.tsv", "\n".join(registry) + "\n")
        for doc in sorted((fixture_dir / "corpus").glob("*.txt")):
            write(f"corpus/{doc.name}", doc.read_text(encoding="utf-8"))
        assert run(["extract", "--corpus", "corpus", "--registry", "registry.tsv",
                    "--out", "edges.tsv", "--nodes-out", "nodes.txt"]) == 0
        files = {f: Path(f).read_bytes() for f in ("edges.tsv", "nodes.txt")}
        for f in files:
            write(f, files[f].decode("utf-8"))
        write("config.json", '{"null_samples": 2}')
        assert run(["analyze", "--edges", "edges.tsv", "--nodes", "nodes.txt",
                    "--config", "config.json", "--out", "report.json"]) == 0
        files["report.json"] = Path("report.json").read_bytes()
        write("report.json", files["report.json"].decode("utf-8"))
        assert run(["export", "--edges", "edges.tsv", "--nodes", "nodes.txt", "--report",
                    "report.json", "--dot", "graph.dot", "--graphml", "graph.graphml"]) == 0
        files.update({f: Path(f).read_bytes() for f in ("graph.dot", "graph.graphml")})
        outputs[name] = files
    assert outputs["marked"] == outputs["plain"]
    assert json.loads(outputs["plain"]["report.json"])["graph_summary"]["n"] == 52


def test_read_text_drops_only_a_leading_mark(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("\ufeffa\tb\t1\n\ufeffb\tc\t1\n", encoding="utf-8")
    assert read_text(str(path)) == "a\tb\t1\n\ufeffb\tc\t1\n"


class TestTsvLineRules:
    """A U+FEFF past the start of a TSV input, a character XML cannot carry, or a
    tab in a sidecar line exits 3 naming the line.

    A mark or a tab would otherwise enter a slug that no other line can
    name; a control character, a slug no GraphML export can carry.
    """

    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def _run(files: dict[str, str], argv: list[str]) -> tuple[int, str]:
        """Write files (name -> text) to the working directory, run argv: (exit code, stderr)."""
        for name, text in files.items():
            Path(name).parent.mkdir(parents=True, exist_ok=True)
            Path(name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(argv)
        return rc, err.getvalue()

    _EXTRACT = ["extract", "--corpus", "corpus", "--registry", "registry.tsv",
                "--out", "edges.tsv", "--nodes-out", "nodes.txt"]
    _ANALYZE = ["analyze", "--edges", "edges.tsv", "--nodes", "nodes.txt", "--out", "report.json"]
    _EDGES = "a\tb\t1\nb\tc\t1\nc\ta\t1\n"

    def test_mark_in_the_registry(self):
        files = {"registry.tsv": "a\tA\tcode a\n\ufeffb\tB\tcode b\n",
                 "corpus/a.txt": "le code b"}
        assert self._run(files, self._EXTRACT) == (
            3, "lexnet: line 2: byte-order mark (U+FEFF) inside the file\n")
        assert not Path("edges.tsv").exists() and not Path("nodes.txt").exists()

    @pytest.mark.parametrize(("edges", "nodes", "where"), [
        ("a\tb\t1\n\ufeffb\tc\t1\nc\ta\t1\n", "a\n", "line 2"),
        (_EDGES, "a\n\ufeffb\n", "node sidecar line 2"),
    ], ids=["edge-list", "sidecar"])
    def test_mark_in_a_graph_input(self, edges, nodes, where):
        files = {"edges.tsv": edges, "nodes.txt": nodes}
        assert self._run(files, self._ANALYZE) == (
            3, f"lexnet: {where}: byte-order mark (U+FEFF) inside the file\n")
        assert not Path("report.json").exists()

    def test_control_character_in_the_registry(self):
        files = {"registry.tsv": "a\tA\tcode a\nb\x01\tB\tcode b\n",
                 "corpus/a.txt": "le code b"}
        assert self._run(files, self._EXTRACT) == (
            3, "lexnet: line 2: character U+0001 not allowed\n")
        assert not Path("edges.tsv").exists() and not Path("nodes.txt").exists()

    @pytest.mark.parametrize(("edges", "nodes", "where", "char"), [
        ("a\tb\t1\na\x01b\tc\t1\nc\ta\t1\n", "a\n", "line 2", "U+0001"),
        (_EDGES, "a\nb\x1f\n", "node sidecar line 2", "U+001F"),
        (_EDGES, "a\n\x00\n", "node sidecar line 2", "U+0000"),
        ("a\tb\uffff\t1\n", "", "line 1", "U+FFFF"),
        ("a\tb\t1\na\x0bb\tc\t1\n", "", "line 2", "U+000B"),
        (_EDGES, "a\nb\x0c\n", "node sidecar line 2", "U+000C"),
    ], ids=["edge-list", "sidecar", "sidecar-nul", "edge-list-nonchar", "edge-list-vt",
            "sidecar-ff"])
    def test_control_character_in_a_graph_input(self, edges, nodes, where, char):
        files = {"edges.tsv": edges, "nodes.txt": nodes}
        assert self._run(files, self._ANALYZE) == (
            3, f"lexnet: {where}: character {char} not allowed\n")
        assert not Path("report.json").exists()

    def test_mark_in_a_comment_is_ignored(self):
        comment = "# a \ufeff in a comment\n"
        files = {"registry.tsv": comment + "a\tA\tcode a\nb\tB\tcode b\nc\tC\tcode c\n",
                 "corpus/a.txt": "le code b", "corpus/b.txt": "le code c",
                 "corpus/c.txt": "le code a"}
        assert self._run(files, self._EXTRACT) == (0, "")
        assert Path("edges.tsv").read_text(encoding="utf-8") == self._EDGES
        for name in ("edges.tsv", "nodes.txt"):
            Path(name).write_text(comment + Path(name).read_text(encoding="utf-8"),
                                  encoding="utf-8")
        assert self._run({}, [*self._ANALYZE, "--null-samples", "2", "--k-citing", "1",
                              "--k-cited", "1"]) == (0, "")
        report = read_report(Path("report.json").read_text(encoding="utf-8"))
        assert report["graph_summary"]["n"] == 3

    def test_sidecar_line_with_a_tab(self):
        files = {"edges.tsv": self._EDGES, "nodes.txt": "a\nb\tc\n"}
        assert self._run(files, self._ANALYZE) == (
            3, "lexnet: node sidecar line 2: expected 1 tab-separated field, got 2\n")
        assert not Path("report.json").exists()


@pytest.fixture(scope="module")
def report_payload(extracted, tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "report.json"
    assert _analyze(extracted, out, "--null-samples", "2") == 0
    return json.loads(out.read_text(encoding="utf-8"))


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, extracted, tmp_path, capsys):
        edges, nodes = extracted
        out = tmp_path / "never.json"
        rc = run(["analyze", "--edges", str(edges), "--bogus-flag", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_malformed_edge_list(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a record\n", encoding="utf-8")
        assert run(["analyze", "--edges", str(bad)]) == 3

    def test_self_loop_edge_list(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\ta\t1\n", encoding="utf-8")
        assert run(["analyze", "--edges", str(bad)]) == 3

    def test_slug_starting_with_hash(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("x\t#a\t1\n#a\tx\t1\ny\tx\t1\n", encoding="utf-8")
        assert run(["analyze", "--edges", str(bad)]) == 3
        assert capsys.readouterr().err == "lexnet: line 1: slug '#a' starts with '#'\n"

    def test_missing_file(self, tmp_path):
        assert run(["analyze", "--edges", str(tmp_path / "nope.tsv")]) == 3

    def test_degenerate_graph(self, tmp_path):
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text("a\tb\t1\n", encoding="utf-8")
        assert run(["analyze", "--edges", str(tiny)]) == 4

    def test_bad_config_value(self, extracted, tmp_path):
        edges, nodes = extracted
        rc = run(["analyze", "--edges", str(edges), "--k-citing", "0", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize(
        ("text", "key"),
        [
            pytest.param('{"ws_p": "0.5"}', "ws_p", id="float-as-string"),
            pytest.param('{"degree_fraction": NaN}', "degree_fraction", id="nan"),
            pytest.param('{"transitivity_factor": Infinity}', "transitivity_factor", id="infinity"),
            pytest.param('{"k_citing": true}', "k_citing", id="count-true"),
            pytest.param('{"seed": true}', "seed", id="seed-true"),
            pytest.param('{"seed": ' + "7" * 5000 + "}", "config file", id="integer-too-long"),
            pytest.param('{"degree_fraction": 1' + "0" * 400 + "}", "degree_fraction",
                         id="integer-past-float-range"),
            pytest.param('{"a": ' * 100_000 + "}" * 100_000, "config file", id="nested-too-deep"),
        ],
    )
    def test_bad_config_file_value(self, extracted, tmp_path, capsys, text, key):
        edges, nodes = extracted
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "never.json"
        rc = run(["analyze", "--edges", str(edges), "--nodes", str(nodes),
                  "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"lexnet: configuration error: {key} ")
        assert not out.exists()

    def test_integral_float_value_is_read_as_a_float(self, extracted, tmp_path):
        # the provenance prints 1 and 1.0 alike, so they must digest alike
        edges, nodes = extracted
        config = tmp_path / "config.json"
        config.write_text('{"ws_p": 1}', encoding="utf-8")
        graph = ["--edges", str(edges), "--nodes", str(nodes), "--null-samples", "2"]
        from_file, from_flag = tmp_path / "file.json", tmp_path / "flag.json"
        assert run(["nulls", *graph, "--config", str(config), "--out", str(from_file)]) == 0
        assert run(["nulls", *graph, "--ws-p", "1", "--out", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()

    @pytest.mark.parametrize(("keys", "value", "path"), REPORT_DEFECTS)
    def test_malformed_report_on_export(
        self, extracted, report_payload, tmp_path, capsys, keys, value, path
    ):
        edges, nodes = extracted
        payload = json.loads(json.dumps(report_payload))
        corrupt(payload, keys, value)
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(payload), encoding="utf-8")
        dot = tmp_path / "g.dot"
        graphml = tmp_path / "g.graphml"
        rc = run(["export", "--edges", str(edges), "--nodes", str(nodes), "--report",
                  str(report_path), "--dot", str(dot), "--graphml", str(graphml)])
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1
        assert err.startswith(f"lexnet: {path}: ")
        assert not dot.exists() and not graphml.exists()

    def test_nested_report_on_export(self, extracted, tmp_path, capsys):
        # past the recursion limit json.loads raises RecursionError, not ValueError
        edges, nodes = extracted
        report_path = tmp_path / "report.json"
        report_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        dot = tmp_path / "g.dot"
        graphml = tmp_path / "g.graphml"
        rc = run(["export", "--edges", str(edges), "--nodes", str(nodes), "--report",
                  str(report_path), "--dot", str(dot), "--graphml", str(graphml)])
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("lexnet: $: not valid JSON: ")
        assert not dot.exists() and not graphml.exists()

    @pytest.mark.parametrize(("argv", "code", "message"), [
        pytest.param(["analyze", "--edges", "edges.tsv", "--ws-p", "1.5"], 2,
                     "configuration error: ws_p must be in [0, 1], got 1.5", id="ws-p-above-1"),
        pytest.param(["analyze", "--edges", "edges.tsv", "--config", "list.json"], 2,
                     "configuration error: config file must contain a JSON object",
                     id="config-not-an-object"),
        pytest.param(["extract", "--corpus", "missing", "--registry", "registry.tsv"], 3,
                     "corpus directory 'missing' does not exist", id="missing-corpus"),
        pytest.param(["export", "--edges", "edges.tsv", "--report", "list.json", "--dot", "g.dot"],
                     3, "$: report must be a JSON object", id="report-not-an-object"),
        pytest.param(["export", "--edges", "edges.tsv", "--report", "miscounted.json",
                      "--dot", "g.dot"],
                     3, "$.graph_summary.n: does not match the roles section", id="node-count-off"),
    ])
    def test_documented_exit_and_its_one_line(self, argv, code, message, extracted, fixture_dir,
                                              report_payload, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("edges.tsv").write_bytes(extracted[0].read_bytes())
        Path("registry.tsv").write_bytes((fixture_dir / "registry.tsv").read_bytes())
        Path("list.json").write_text("[1]", encoding="utf-8")
        miscounted = json.loads(json.dumps(report_payload))
        miscounted["graph_summary"]["n"] += 1
        Path("miscounted.json").write_text(json.dumps(miscounted), encoding="utf-8")
        assert run(argv) == code
        assert capsys.readouterr().err == f"lexnet: {message}\n"
        assert not Path("g.dot").exists()

    @pytest.mark.parametrize("command", ["analyze", "richclub", "communities", "nulls"])
    def test_k_larger_than_the_graph(self, command, tmp_path, capsys):
        edges = tmp_path / "three.tsv"
        edges.write_text("a\tb\t1\nb\tc\t1\n", encoding="utf-8")
        out = tmp_path / "never.json"
        for extra, key in (([], "k_citing"), (["--k-citing", "3"], "k_cited")):
            rc = run([command, "--edges", str(edges), "--out", str(out), *extra])
            err = capsys.readouterr().err
            assert rc == 2
            assert len(err.splitlines()) == 1
            assert err.startswith(f"lexnet: configuration error: {key}=")
        assert not out.exists()


    @pytest.mark.parametrize(
        ("command", "code"),
        [("analyze", 4), ("communities", 4), ("richclub", 0), ("nulls", 0)],
    )
    def test_empty_reduced_network(self, command, code, tmp_path, capsys):
        # the club is {a}; without it b, c and d share no arc, so only the
        # commands that partition the reduced network fail
        records = "a\tb\t1\na\tc\t1\nb\ta\t1\nc\ta\t1\nd\ta\t1\n"
        self._assert_partition_exit(command, code, records, "1", tmp_path, capsys)

    @pytest.mark.parametrize(
        ("command", "code"),
        [("analyze", 4), ("communities", 4), ("richclub", 0), ("nulls", 0)],
    )
    def test_club_holds_every_node(self, command, code, tmp_path, capsys):
        # the three most citing nodes are all of a, b and c, so removing the
        # club leaves no node at all
        self._assert_partition_exit(command, code, "a\tb\t1\nb\tc\t1\n", "3", tmp_path, capsys)

    @staticmethod
    def _assert_partition_exit(command, code, records, k_citing, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text(records, encoding="utf-8")
        out = tmp_path / "out.json"
        rc = run([command, "--edges", str(edges), "--k-citing", k_citing, "--k-cited", "1",
                  "--null-samples", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code
        if code:
            assert err == (
                "lexnet: degenerate graph: community detection needs at least one edge\n"
            )
            assert not out.exists()
        else:
            assert err == ""
            assert out.exists()

    def test_duplicate_record_is_one_warning_line(self, extracted, report_payload, tmp_path,
                                                   capsys):
        edges, nodes = extracted
        lines = edges.read_text(encoding="utf-8").splitlines(keepends=True)
        doubled = tmp_path / "doubled.tsv"
        doubled.write_text("".join(lines + lines[:1]), encoding="utf-8")
        citing, cited, _ = lines[0].split("\t")
        warning = (f"lexnet: warning: line {len(lines) + 1}: duplicate record "
                   f"{citing} -> {cited}; counts summed\n")
        rc = run(["richclub", "--edges", str(doubled), "--nodes", str(nodes),
                  "--null-samples", "2", "--out", str(tmp_path / "club.json")])
        assert (rc, capsys.readouterr().err) == (0, warning)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(report_payload), encoding="utf-8")
        rc = run(["export", "--edges", str(doubled), "--nodes", str(nodes),
                  "--report", str(report), "--dot", str(tmp_path / "graph.dot")])
        assert (rc, capsys.readouterr().err) == (0, warning)


# Edge lists, sidecars and configs for the fuzz tests below. Slugs mix the
# characters that need escaping in DOT or XML, or stripping, or that start
# a comment; at most one record and one config value are broken, so most
# runs get far enough to analyze. Pools of 3-5 slugs mostly exit 4 (the
# rich club leaves no edge), so they are drawn about once in four; the rest
# have 6-12 slugs and 8-20 arcs, so that many analyze runs succeed and
# reach the export check.
_SLUG_HEADS = "abcé"
_SLUG_TAIL = 'ab"\\ é#&<>\''
_BAD_RECORDS = ["a\ta\t1", "a\tb\t0", "a\tb\tx", " \tb\t1", "#a\tb\t1", "lonely"]
_BAD_VALUES = [True, False, float("nan"), float("inf"), -1, 0, "2", None]
_CONFIG_KEYS = [*PipelineConfig._fields, "unknown_key"]
_REPORT_COMMANDS = ["analyze", "richclub", "communities", "nulls"]
_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def _seeded_cli_case(rng: random.Random):
    """One case drawn from rng: (command, edge-list records, sidecar or None, config text)."""

    def slug():
        return rng.choice(_SLUG_HEADS) + "".join(rng.choices(_SLUG_TAIL, k=rng.randint(0, 3)))

    small = rng.randint(0, 3) == 3
    size = rng.randint(3, 5) if small else rng.randint(6, 12)
    pool: dict[str, str] = {}  # by stripped slug, so no two strip to the same one
    while len(pool) < size:
        candidate = slug()
        pool.setdefault(candidate.strip(), candidate)
    slugs = list(pool.values())
    records = []
    for _ in range(rng.randint(4 if small else 8, 20)):
        i, j = rng.sample(range(size), 2)
        records.append(f"{slugs[i]}\t{slugs[j]}\t{rng.randint(1, 3)}")
    if rng.randint(0, 3) == 3:
        records.append(rng.choice(_BAD_RECORDS))
    sidecar = None
    if rng.randint(0, 1):
        sidecar = [slug() if rng.randint(0, 3) else "#x" for _ in range(rng.randint(0, 3))]
    config = {
        "null_samples": rng.randint(1, 2),
        "rewire_budget_factor": rng.randint(1, 2),
        "k_citing": rng.randint(1, 3),
        "k_cited": rng.randint(1, 3),
        "seed": rng.randint(-3, 3),
        "ws_p": rng.random(),
    }
    if rng.randint(0, 3) == 3:
        config[rng.choice(_CONFIG_KEYS)] = rng.choice(_BAD_VALUES)
    return rng.choice(_REPORT_COMMANDS), records, sidecar, json.dumps(config)


def _run_cli_case(inputs) -> int:
    """Run one case; assert it exits 0, 2, 3 or 4 with at most one diagnostic line."""
    command, records, sidecar, config_text = inputs
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "edges.tsv").write_text("".join(r + "\n" for r in records), encoding="utf-8")
        (root / "config.json").write_text(config_text, encoding="utf-8")
        graph = ["--edges", str(root / "edges.tsv")]
        if sidecar is not None:
            (root / "nodes.txt").write_text("".join(n + "\n" for n in sidecar), encoding="utf-8")
            graph += ["--nodes", str(root / "nodes.txt")]
        argv = [command, *graph, "--config", str(root / "config.json"),
                "--out", str(root / "out.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(argv)
        out = root / "out.json"
        assert rc in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        # each duplicate record costs one warning line; a failure adds one diagnostic after them
        diagnostics = [line for line in lines if not line.startswith("lexnet: warning: line ")]
        assert len(diagnostics) == (1 if rc else 0), err.getvalue()
        assert diagnostics == lines[len(lines) - len(diagnostics):], err.getvalue()
        if rc:
            assert not out.exists()
        elif command == "analyze":
            report = read_report(out.read_text(encoding="utf-8"))
            graphml = root / "graph.graphml"
            export = ["export", *graph, "--report", str(out), "--dot", str(root / "graph.dot"),
                      "--graphml", str(graphml)]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert run(export) == 0, err.getvalue()
            nodes = ET.parse(graphml).getroot().iter(f"{{{_GRAPHML_NS}}}node")
            assert [node.get("id") for node in nodes] == sorted(report["roles"])
    return rc


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=True))
def test_any_input_gives_a_report_or_a_documented_exit(rng):
    # 200 more cases from the one generator, on Random instances Hypothesis
    # seeds; its examples shift with unrelated edits, since it mixes in
    # constants from loaded modules. Not an artificial Random: its all-zero
    # base case draws the same slug forever, so the slug pool never fills
    _run_cli_case(_seeded_cli_case(rng))


# Cases drawn from random.Random(seed) for seeds 0..199: the same cases on
# every run and after every edit, so their exit-code tally compares across
# versions.
SEEDED_CLI_CASES = 200


def test_seeded_inputs_give_a_report_or_a_documented_exit():
    for seed in range(SEEDED_CLI_CASES):
        inputs = _seeded_cli_case(random.Random(seed))
        try:
            _run_cli_case(inputs)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {inputs!r}") from exc


# Registries and corpora for the seeded extract fuzz below. A clean case
# has 2-6 entries whose aliases end in a letter of their own, so no two
# entries share an alias, and documents that mention them. A case then
# takes up to two defects, each breaking the registry or the corpus in
# one way, except a leading byte-order mark, which must change nothing; a
# mark at the start of a later registry line must exit 3.
# Two cases in five take none, so that many runs succeed and reach the
# edge-list check.
_EXTRACT_WORDS = ["code", "civil", "rural", "pénal", "du", "travail", "œuvre", "l'État"]
_EXTRACT_DEFECTS = ["field_count", "empty_field", "empty_alias", "shared_alias", "duplicate_slug",
                    "unknown_stem", "bom", "inner_bom", "invalid_utf8", "directory"]
SEEDED_EXTRACT_CASES = 200


def _seeded_extract_case(seed: int):
    """Registry bytes and corpus files (name -> bytes, None for a directory)."""
    rng = random.Random(seed)
    size = rng.randint(2, 6)
    slugs: list[str] = []
    while len(slugs) < size:
        slug = rng.choice(_SLUG_HEADS) + "".join(rng.choices("ab\"é#&'", k=rng.randint(0, 3)))
        if slug not in slugs:
            slugs.append(slug)
    aliases = {
        slug: [f"{' '.join(rng.choices(_EXTRACT_WORDS, k=rng.randint(1, 2)))} {chr(97 + i)}"
               for _ in range(rng.randint(1, 2))]
        for i, slug in enumerate(slugs)
    }
    lines = [f"{slug}\tName {i}\t{'|'.join(aliases[slug])}" for i, slug in enumerate(slugs)]
    if rng.randint(0, 1):
        lines.insert(0, "# slug\tname\taliases")
    corpus: dict[str, bytes | None] = {}
    for slug in rng.sample(slugs, rng.randint(0, len(slugs))):
        words = rng.choices(_EXTRACT_WORDS + [a.upper() for s in slugs for a in aliases[s]],
                            k=rng.randint(0, 12))
        corpus[f"{slug}.txt"] = " ".join(words).encode("utf-8")
    defects = rng.sample(_EXTRACT_DEFECTS, rng.choice([0, 0, 1, 1, 2]))
    first = slugs[0]
    mark = ""
    inner_mark = False
    for defect in defects:
        if defect == "field_count":
            lines.append(rng.choice(["x\tX", "x\tX\tx\textra", "x"]))
        elif defect == "empty_field":
            lines.append(rng.choice(["\tX\tx", "x\t\tx", "x\tX\t "]))
        elif defect == "empty_alias":
            blank = rng.choice([" ", "\u0301"])
            lines.append(f"x\tX\t{blank}" if rng.randint(0, 1) else f"x\tX\tx|{blank}")
        elif defect == "shared_alias":
            lines.append(f"x\tX\t{aliases[first][0].upper()}")
        elif defect == "duplicate_slug":
            lines.append(f"{first}\tAgain\tagain")
        elif defect == "unknown_stem":
            corpus["zz.txt"] = aliases[first][0].encode("utf-8")
        elif defect == "bom":
            if corpus and rng.randint(0, 1):
                name = rng.choice(sorted(corpus))
                corpus[name] = "\ufeff".encode("utf-8") + corpus[name]
            else:
                mark = "\ufeff"
        elif defect == "inner_bom":
            inner_mark = True
        elif defect == "invalid_utf8":
            corpus[f"{rng.choice(slugs)}.txt"] = b"code \xff\xfe civil"
        else:
            corpus[f"{rng.choice(slugs + ['x'])}.txt"] = None
    rng.shuffle(lines)
    if inner_mark:
        line = rng.randrange(1, len(lines))
        lines[line] = "\ufeff" + lines[line]
    return (mark + "".join(line + "\n" for line in lines)).encode("utf-8"), corpus


def _run_extract_case(case) -> int:
    """Run extract; assert it exits 0 silently with loadable outputs, or 3 with one line."""
    registry, corpus = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "registry.tsv").write_bytes(registry)
        (root / "corpus").mkdir()
        for name, data in corpus.items():
            if data is None:
                (root / "corpus" / name).mkdir()
            else:
                (root / "corpus" / name).write_bytes(data)
        edges, nodes = root / "edges.tsv", root / "nodes.txt"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(["extract", "--corpus", str(root / "corpus"), "--registry",
                      str(root / "registry.tsv"), "--out", str(edges), "--nodes-out", str(nodes)])
        if rc:
            assert rc == 3
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not edges.exists() and not nodes.exists()
        else:
            assert err.getvalue() == ""
            nodes_text = nodes.read_text(encoding="utf-8")
            assert "\ufeff" not in nodes_text  # no invisible slug
            graph = parse_edge_list(edges.read_text(encoding="utf-8"), nodes_text)
            assert list(graph.slugs) == nodes_text.splitlines()
    return rc


def test_seeded_extract_inputs_exit_0_or_3_with_one_line():
    codes = []
    for seed in range(SEEDED_EXTRACT_CASES):
        case = _seeded_extract_case(seed)
        try:
            codes.append(_run_extract_case(case))
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {case!r}") from exc
    assert codes.count(0) >= SEEDED_EXTRACT_CASES // 4


class TestWriteFailures:
    """An output that cannot be written exits 3 with one line and leaves nothing behind."""

    @staticmethod
    def _assert_one_line_exit_3(rc, capsys):
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("lexnet: cannot write ")
        assert len(err.splitlines()) == 1

    def test_analyze_out_in_missing_directory(self, extracted, tmp_path, capsys):
        edges, nodes = extracted
        out = tmp_path / "missing" / "r.json"
        rc = run(["analyze", "--edges", str(edges), "--nodes", str(nodes), "--out", str(out),
                  "--null-samples", "2"])
        self._assert_one_line_exit_3(rc, capsys)
        assert not out.parent.exists()

    def test_analyze_out_is_a_directory(self, extracted, tmp_path, capsys):
        # the temp file is written, then cannot replace the directory
        edges, nodes = extracted
        target = tmp_path / "taken"
        target.mkdir()
        rc = run(["analyze", "--edges", str(edges), "--nodes", str(nodes), "--out", str(target),
                  "--null-samples", "2"])
        self._assert_one_line_exit_3(rc, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert list(target.iterdir()) == []

    def test_extract_out_under_a_regular_file(self, fixture_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        rc = run(["extract", "--corpus", str(fixture_dir / "corpus"),
                  "--registry", str(fixture_dir / "registry.tsv"),
                  "--out", str(blocker / "edges.tsv")])
        self._assert_one_line_exit_3(rc, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert blocker.read_text(encoding="utf-8") == "x"

    def test_fixture_out_dir_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        rc = run(["fixture", "--out-dir", str(blocker / "demo")])
        self._assert_one_line_exit_3(rc, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_fixture_file_that_cannot_replace_its_target(self, tmp_path, capsys):
        # a directory stands where registry.tsv goes, so its rename fails
        registry = tmp_path / "fx" / "registry.tsv"
        registry.mkdir(parents=True)
        rc = run(["fixture", "--out-dir", str(tmp_path / "fx")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"lexnet: cannot write {registry}: ")
        assert len(err.splitlines()) == 1
        assert [p.name for p in (tmp_path / "fx").rglob("*.tmp")] == []

    @pytest.mark.parametrize("command", ["extract", "richclub"])
    def test_closed_standard_output(self, command, extracted, fixture_dir):
        # no --out, and the pipe's read end is closed before lexnet writes
        argv = {
            "extract": ["extract", "--corpus", str(fixture_dir / "corpus"),
                        "--registry", str(fixture_dir / "registry.tsv")],
            "richclub": ["richclub", "--edges", str(extracted[0]), "--null-samples", "2"],
        }[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _python(["-m", "lexnet.cli", *argv], stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("lexnet: cannot write to standard output")
        assert len(proc.stderr.splitlines()) == 1

    def test_written_file_replaces_old_contents(self, extracted, tmp_path):
        edges, nodes = extracted
        out = tmp_path / "report.json"
        out.write_text("stale", encoding="utf-8")
        assert _analyze(extracted, out) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["schema_version"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


# The exit code each error class carries, and so the code run() returns.
_EXIT_CODES = {
    "LexnetError": 3,
    "ConfigError": 2,
    "DegenerateGraphError": 4,
    "MalformedLineError": 3,
    "SchemaViolationError": 3,
}


def test_every_error_class_has_its_exit_code():
    classes = [LexnetError]
    for cls in classes:  # the loop also visits the subclasses appended below
        classes.extend(cls.__subclasses__())
    assert {cls.__name__: cls.exit_code for cls in classes} == _EXIT_CODES


class TestLazyPackage:
    """``import lexnet`` loads no submodule."""

    def test_import_loads_no_submodule(self):
        code = ("import sys, lexnet\n"
                "print([name for name in sys.modules if name.startswith('lexnet.')])")
        assert _fresh_python(["-c", code]) == "[]\n"


def _python(
    args: list[str], cwd: Path | None = None, stdout: int = subprocess.PIPE
) -> subprocess.CompletedProcess:
    """A new interpreter on src/, run without site (-S), its output captured as text.

    A fresh interpreter, since this one has loaded what pytest needs, and
    without site, which preloads different modules on each host. stdout
    may name a file descriptor to write to instead of a captured pipe.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-S", *args], env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
        stdout=stdout, stderr=subprocess.PIPE, text=True,
    )


def _fresh_python(args: list[str], cwd: Path | None = None) -> str:
    """Standard output of _python(args, cwd), which must exit 0."""
    proc = _python(args, cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# The modules that only analysis commands need.
_ANALYSIS_MODULES = {"lexnet.metrics", "lexnet.nullmodels", "lexnet.communities",
                     "lexnet.pipeline", "lexnet.seeding", "lexnet.config"}


@pytest.mark.parametrize(("command", "loads_analysis"), [("extract", False), ("analyze", True)])
def test_each_command_imports_what_it_runs(command, loads_analysis, extracted, fixture_dir,
                                           tmp_path):
    edges, nodes = extracted
    argv = {
        "extract": ["extract", "--corpus", str(fixture_dir / "corpus"),
                    "--registry", str(fixture_dir / "registry.tsv"),
                    "--out", "edges.tsv", "--nodes-out", "nodes.txt"],
        "analyze": ["analyze", "--edges", str(edges), "--nodes", str(nodes),
                    "--null-samples", "2", "--out", "report.json"],
    }[command]
    code = ("import json, sys\n"
            "from lexnet.cli import run\n"
            f"assert run({argv!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(_fresh_python(["-c", code], cwd=tmp_path)))
    assert _ANALYSIS_MODULES & loaded == (_ANALYSIS_MODULES if loads_analysis else set())
    # the seed and config digests take CPython's own SHA-256, not OpenSSL's
    assert not {"hashlib", "_hashlib"} & loaded


def test_normalized_rich_club_loads_no_null_model():
    # the nulls' phi(k) are an argument, so metrics draws no null graph itself
    code = ("import sys\n"
            "from lexnet.graph import UGraph\n"
            "from lexnet.metrics import normalized_rich_club\n"
            "ug = UGraph([{1, 2}, {0, 2}, {0, 1}])\n"
            "assert normalized_rich_club(ug, 1, iter([1.0])) == (1, 1, 1.0, 1.0, 1.0, 0.0)\n"
            "print(sorted({'lexnet.nullmodels', 'lexnet.seeding'} & set(sys.modules)))")
    assert _fresh_python(["-c", code]) == "[]\n"


@pytest.mark.parametrize(("argv", "code"), [
    (["frobnicate"], 2),
    (["fixture", "--out-dir", "fx"], 0),
    (["analyze", "--edges", "missing.tsv"], 3),
    (["analyze", "--edges", "two.tsv"], 4),
])
def test_script_entry_point_exits_with_the_run_code(argv, code, tmp_path, monkeypatch, capsys):
    # main is what the installed `lexnet` script calls
    (tmp_path / "two.tsv").write_text("a\tb\t1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["lexnet", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code
    if code in (3, 4):
        err = capsys.readouterr().err
        assert err.startswith("lexnet: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(("argv", "code"), [
    (["fixture", "--out-dir", "d"], 0),
    (["analyze", "--edges", "missing.tsv"], 3),
])
def test_module_runs_the_cli(argv, code, tmp_path):
    proc = _python(["-m", "lexnet.cli", *argv], cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("lexnet: cannot read missing.tsv: ")
        assert len(proc.stderr.splitlines()) == 1
    else:
        assert (tmp_path / "d" / "registry.tsv").is_file()


def test_readme_configuration_table_matches_pipeline_config():
    section = re.search(r"## Configuration\n(.*?)\n## ", README.read_text(encoding="utf-8"), re.S)
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section.group(1), re.M)
    documented = [(key, json.loads(default)) for key, default in rows]
    assert documented == list(PipelineConfig._field_defaults.items())
    # 2.0, not 2: a float field's default is written as a float; the
    # annotations are postponed, so they are resolved through get_type_hints
    assert [type(default) for _, default in documented] == list(
        typing.get_type_hints(PipelineConfig).values()
    )


def test_readme_library_example_runs(tmp_path, monkeypatch):
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(tmp_path)
    assert run(["fixture", "--out-dir", "demo"]) == 0
    assert run(["extract", "--corpus", "demo/corpus", "--registry", "demo/registry.tsv",
                "--out", "demo/edges.tsv", "--nodes-out", "demo/nodes.txt"]) == 0
    exec(compile(block.group(1), str(README), "exec"), {})


def test_cli_start_loads_no_heavy_stdlib_module():
    # check_imports.py fails on a heavy stdlib module or a lexnet module
    # outside its START_MODULES at start-up, and on any module outside the
    # standard library that a lexnet module imports
    script = Path(__file__).resolve().parent / "check_imports.py"
    assert Path(_fresh_python([str(script)]).strip()).parent == SRC / "lexnet"
