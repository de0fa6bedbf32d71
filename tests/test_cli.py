"""End-to-end CLI behavior: subcommands, exit codes, composition, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

import lexnet
import lexnet.nullmodels
import lexnet.pipeline
from lexnet.cli import run
from lexnet.graph import DiGraph

# sha256 of each command's output on the bundled fixture at the default
# config, run from one working directory with relative input paths (the
# paths are recorded in provenance).
GOLDEN_DIGESTS = {
    "analyze": "05b69b21b8495e33b6fd48966d4fb6bd8667a526e0b909771f4304834ae2ab32",
    "richclub": "7019c1694c4a112f6453817ede80db04564ae7a34a3f821b234271f8b8184075",
    "communities": "01fb13f430080816d33c05a7924c4d76c7d06ce34f8be75b73721b1e8729170a",
    "nulls": "14229651296c8f70a531c3d6374c7be829519ffb0c077bcaba4eaab4f0fbcc71",
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
        calls = {"club_cohesion": 0, "undirected_projection": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        cohesion = counting("club_cohesion", lexnet.nullmodels.club_cohesion)
        monkeypatch.setattr(lexnet.pipeline, "club_cohesion", cohesion)
        monkeypatch.setattr(lexnet.nullmodels, "club_cohesion", cohesion)
        monkeypatch.setattr(
            DiGraph,
            "undirected_projection",
            counting("undirected_projection", DiGraph.undirected_projection),
        )
        assert _analyze(extracted, tmp_path / "r.json") == 0
        # one projection of the whole graph, one of the reduced network
        assert calls == {"club_cohesion": 1, "undirected_projection": 2}

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

    def test_export_requires_a_format(self, extracted, tmp_path):
        edges, nodes = extracted
        report_path = tmp_path / "report.json"
        assert _analyze(extracted, report_path) == 0
        assert run(
            ["export", "--edges", str(edges), "--nodes", str(nodes), "--report", str(report_path)]
        ) == 2


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

    def test_written_file_replaces_old_contents(self, extracted, tmp_path):
        edges, nodes = extracted
        out = tmp_path / "report.json"
        out.write_text("stale", encoding="utf-8")
        assert _analyze(extracted, out) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["schema_version"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_every_public_name_resolves():
    assert [name for name in lexnet.__all__ if not hasattr(lexnet, name)] == []
