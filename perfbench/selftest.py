"""Self-tests of the benchmark itself (about 20 s).

    python3 perfbench/selftest.py

They check that the generators are seeded, that tracing changes no output
byte, that every traced span fires on the workload meant to exercise it,
that the output checks catch a wrong edge list, that metric names are
well formed and match BENCHMARK.json, and the compare rule.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import compare
import reference
import run as bench
import tracing
import workloads

LEXNET_RUN = bench.import_lexnet()

_EVERY = {
    "cli.run", "report.parse_edge_list", "graph.undirected_projection", "graph.remove_nodes",
    "metrics.phi_table", "metrics.normalized_rich_club", "communities.cnm_trace",
    "communities.modularity", "communities.reduced_network_partition", "nullmodels.club_cohesion",
    "nullmodels.degree_preserving_rewire", "pipeline.build_rich_club_section",
    "pipeline.build_communities_section",
}
_EXTRACT = {"extraction.load_registry", "extraction.normalize_text", "extraction.find_citations",
            "extraction.build_edge_list"}
_ANALYZE = {"report.write_report", "metrics.global_clustering", "metrics.average_path_length",
            "metrics.betweenness_scores", "metrics.harmonic_closeness_scores", "nullmodels.er_baseline",
            "nullmodels.ws_baseline", "nullmodels.concentrated_world_assessment",
            "pipeline.build_baseline_sections", "pipeline.build_centrality_section",
            "pipeline.analyze_graph"}
_EXPORT = {"report.read_report", "report.write_graphml", "report.write_dot", "fixture.write_fixture"}

# Spans that must fire at least once per iteration; exact counts are not
# pinned, so removing duplicate work does not break this test.
EXPECTED_SPANS = {
    "fixture": _EVERY | _EXTRACT | _ANALYZE | _EXPORT,
    "corpus_large": _EVERY | _EXTRACT,
    "graph_large": _EVERY | _ANALYZE,
}

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _WorkDir(unittest.TestCase):
    def setUp(self) -> None:
        bench.WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=bench.WORK_ROOT))

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def generate(self, name: str, seed: int, label: str) -> tuple[Path, workloads.Workload]:
        work = self.tmp / label
        work.mkdir()
        return work, workloads.generate(name, work, seed)


class GeneratorTest(_WorkDir):
    def test_same_seed_same_inputs_other_seed_other_inputs(self) -> None:
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                digests = [workloads.input_digest(self.generate(name, seed, f"{name}-{i}")[0])
                           for i, seed in enumerate((3, 3, 4))]
                self.assertEqual(digests[0], digests[1])
                self.assertNotEqual(digests[0], digests[2])


class TracedRunTest(_WorkDir):
    """One untraced and one traced iteration per workload at the pinned seed."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.pinned = json.loads(bench.PINNED.read_text(encoding="utf-8"))

    def test_tracing_keeps_bytes_and_covers_every_span(self) -> None:
        fired_anywhere: set[str] = set()
        for name, expected in EXPECTED_SPANS.items():
            with self.subTest(workload=name):
                work, wl = self.generate(name, self.pinned["seed"], name)
                tracer = tracing.Tracer()
                with bench._cwd(work):
                    plain = bench.run_iteration(LEXNET_RUN, work, wl)
                    self.assertIsNone(plain["problem"])
                    self.assertEqual(workloads.check(work, wl), [])
                    with tracing.patched(tracer):
                        traced = bench.run_iteration(LEXNET_RUN, work, wl, tracer)
                self.assertIsNone(traced["problem"])
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertEqual(plain["digest"], self.pinned["digests"][name])
                fired = {span[0] for span in tracer.spans}
                self.assertEqual(expected - fired, set())
                fired_anywhere |= fired
                metrics = tracer.iteration_metrics()
                self.assertGreater(metrics["cli.self_s"], 0.0)
        self.assertEqual(({s[0] for s in tracing.SPANS} | {tracing.CLI_SPAN}) - fired_anywhere, set())

    def test_patching_is_undone(self) -> None:
        import lexnet.pipeline

        before = lexnet.pipeline.club_cohesion
        with tracing.patched(tracing.Tracer()):
            self.assertIsNot(lexnet.pipeline.club_cohesion, before)
        self.assertIs(lexnet.pipeline.club_cohesion, before)


class CheckTest(_WorkDir):
    def test_wrong_edge_count_is_caught(self) -> None:
        work, wl = self.generate("corpus_large", 5, "c")
        with bench._cwd(work):
            self.assertIsNone(bench.run_iteration(LEXNET_RUN, work, wl)["problem"])
        self.assertEqual(workloads.check(work, wl), [])
        edges = work / "edges.tsv"
        lines = edges.read_text(encoding="utf-8").splitlines()
        citing, cited, count = lines[0].split("\t")
        lines[0] = f"{citing}\t{cited}\t{int(count) + 1}"
        edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertNotEqual(workloads.check(work, wl), [])


class MetricNameTest(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self) -> None:
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        e2e = [m["name"] for m in spec["end_to_end"]]
        layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(e2e, list(bench.E2E_UNITS))
        self.assertEqual(layer, list(tracing.LAYER_METRICS))
        names = (e2e + [n for n, _, _ in layer] + list(compare.DETAIL_METRICS)
                 + ["failed_frac", "reference_kernel_s"])
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))


class ReferenceKernelTest(unittest.TestCase):
    def test_kernel_work_is_unchanged(self) -> None:
        for part, checksum in reference.CHECKSUMS.items():
            self.assertEqual(getattr(reference, part)(), checksum)
        self.assertEqual(set(reference.KERNELS), set(workloads.GENERATORS))


class CompareRuleTest(unittest.TestCase):
    def test_verdicts(self) -> None:
        parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
        faster = [v * 0.8 for v in parent]
        slower = [v * 1.3 for v in parent]
        noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.5, 0.5, 1.2, 0.9, 1.6]
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.1)[0], "gain")
        self.assertEqual(compare.verdict(parent, slower, "lower", 0.1)[0], "regression")
        self.assertEqual(compare.verdict(parent, parent, "lower", 0.1)[0], "no regression")
        self.assertEqual(compare.verdict(parent, noisy, "lower", 0.5)[0], "unresolved")
        self.assertEqual(compare.verdict(parent, slower, "higher", 0.1)[0], "gain")


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:], verbosity=2)
