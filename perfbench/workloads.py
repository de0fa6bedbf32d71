"""Benchmark workloads: seeded input generators, command sequences, output checks.

Each workload writes its inputs into a work directory from the benchmark
seed alone; the program under test only ever sees those files. Commands
use paths relative to the work directory, so report provenance carries
no temporary-directory path and output digests are stable.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Sizes are fixed per workload (only structure varies with the seed), so
# the work done per iteration is nearly seed-independent and medians from
# different seeds can be compared.
CORPUS_CODES = 1000
CORPUS_COMMUNITY = 25
CORPUS_HUBS = 6
CORPUS_HEAVY_CITERS = 5
CORPUS_FILLER_WORDS = 100
CORPUS_NULL_SAMPLES = 2

GRAPH_NODES = 500
GRAPH_COMMUNITY = 25
GRAPH_HUBS = 6
GRAPH_ISOLATED = 4
GRAPH_NULL_SAMPLES = 3


@dataclass
class Workload:
    """Generated inputs of one run plus what the outputs must satisfy."""

    name: str
    commands: list[list[str]]  # argv lists for lexnet.cli.run, cwd = work dir
    outputs: list[str]  # files hashed after every iteration
    corpus_bytes: int = 0  # bytes the extract command reads, 0 if none
    expected: dict = field(default_factory=dict)  # planted facts for check()


def _rng(workload: str, seed: int) -> random.Random:
    # a str seed is hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"lexnet-bench:{workload}:{seed}")


def _write(path: Path, text: str) -> int:
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return len(data)


def _words(rng: random.Random, consonants: str, vowels: str, syllables: int, count: int) -> list[str]:
    """`count` distinct words of exactly `syllables` consonant-vowel pairs."""
    pairs = [c + v for c in consonants for v in vowels]
    space = len(pairs) ** syllables
    words = []
    for index in rng.sample(range(space), count):
        parts = []
        for _ in range(syllables):
            index, digit = divmod(index, len(pairs))
            parts.append(pairs[digit])
        words.append("".join(parts))
    return words


def _write_config(work: Path, **values) -> None:
    _write(work / "config.json", json.dumps(values, sort_keys=True) + "\n")


def _community_arcs(
    rng: random.Random,
    n: int,
    community: int,
    hubs: int,
    heavy: int,
    heavy_out: int,
    allow_reciprocal: bool,
) -> dict[tuple[int, int], int]:
    """A citation digraph with communities, heavily cited hubs and heavy citers.

    Nodes 0..hubs-1 are hubs; the next `heavy` nodes cite `heavy_out`
    others each. Every other node cites 3 nodes of its own community, one
    node elsewhere and hub `s % hubs`, so the arc count and the hub
    degrees (which set the length of the phi table) are fixed by the
    sizes. Counts are citation multiplicities in 1..3.
    """
    arcs: dict[tuple[int, int], int] = {}

    def add(s: int, candidates) -> bool:
        t = rng.choice(candidates)
        if t == s or (s, t) in arcs or (not allow_reciprocal and (t, s) in arcs):
            return False
        arcs[(s, t)] = 1 + rng.randrange(3)
        return True

    everyone = range(n)
    for s in range(hubs, hubs + heavy):
        placed = 0
        while placed < heavy_out:
            placed += add(s, everyone)
    for s in range(hubs + heavy, n):
        start = (s // community) * community
        own = range(start, min(start + community, n))
        for candidates, wanted in (([s % hubs], 1), (own, 3), (everyone, 1)):
            placed = 0
            while placed < wanted:
                placed += add(s, candidates)
    return arcs


# -- fixture -------------------------------------------------------------------------


def make_fixture(work: Path, seed: int) -> Workload:
    """The README quick-start on the bundled corpus; the seed is the analysis seed."""
    _write_config(work, seed=seed)
    commands = [
        ["fixture", "--out-dir", "fx"],
        ["extract", "--corpus", "fx/corpus", "--registry", "fx/registry.tsv",
         "--out", "edges.tsv", "--nodes-out", "nodes.txt"],
        ["analyze", "--edges", "edges.tsv", "--nodes", "nodes.txt",
         "--config", "config.json", "--out", "report.json"],
        ["export", "--edges", "edges.tsv", "--nodes", "nodes.txt", "--report", "report.json",
         "--dot", "graph.dot", "--graphml", "graph.graphml"],
    ]
    return Workload(
        name="fixture",
        commands=commands,
        outputs=["edges.tsv", "nodes.txt", "report.json", "graph.dot", "graph.graphml"],
        expected={"n": 52, "isolated": 1, "pendant": 1, "club": 10, "verdict": "concentrated_world"},
    )


def _check_fixture(work: Path, wl: Workload) -> list[str]:
    from lexnet.fixture import fixture_edge_table

    problems = []
    if _read_edges(work / "edges.tsv") != fixture_edge_table():
        problems.append("fixture: extracted edges differ from the planted table")
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    roles = [entry["role"] for entry in report["roles"].values()]
    facts = {
        "n": report["graph_summary"]["n"],
        "isolated": roles.count("isolated"),
        "pendant": roles.count("pendant"),
        "club": len(report["rich_club"]["members"]),
        "verdict": report["assessment"]["verdict"],
    }
    for key, want in wl.expected.items():
        if facts[key] != want:
            problems.append(f"fixture: {key} is {facts[key]!r}, planted {want!r}")
    return problems


# -- corpus_large --------------------------------------------------------------------


def make_corpus_large(work: Path, seed: int) -> Workload:
    """A large registry and corpus with planted citations over communities and hubs.

    Alias words use the consonants b d g k p t z, filler words only
    f h l m n r s v, so filler can never form or extend an alias and the
    extracted edge list must equal the planted table exactly.
    """
    rng = _rng("corpus_large", seed)
    n = CORPUS_CODES
    names = _words(rng, "bdgkptz", "aeiou", 3, 2 * n)
    filler = _words(rng, "fhlmnrsv", "aeiouy", 2, 600)
    slugs = [f"code_{i:04d}" for i in range(n)]
    alias_a = [f"code {names[2 * i]}" for i in range(n)]
    alias_b = [f"{names[2 * i + 1]} act" for i in range(n)]
    registry = "".join(
        f"{slugs[i]}\tCode {names[2 * i].title()}\t{alias_a[i]}|{alias_b[i]}\n" for i in range(n)
    )
    _write(work / "registry.tsv", registry)

    arcs = _community_arcs(rng, n, CORPUS_COMMUNITY, CORPUS_HUBS, CORPUS_HEAVY_CITERS, 60, True)
    mentions: list[list[int]] = [[] for _ in range(n)]
    for (s, t), count in arcs.items():
        mentions[s].extend([t] * count)
    corpus_bytes = 0
    for s in range(n):
        if s % 7 == 0:
            mentions[s].append(s)  # self-citation: consumed, never reported
        words = [rng.choice(filler) for _ in range(CORPUS_FILLER_WORDS)]
        for t in mentions[s]:
            alias = alias_a[t] if rng.random() < 0.5 else alias_b[t]
            surface = alias.title() if rng.random() < 0.3 else alias
            words.insert(rng.randrange(len(words) + 1), surface + ",")
        lines = [" ".join(words[i:i + 14]) + "." for i in range(0, len(words), 14)]
        corpus_bytes += _write(work / "corpus" / f"{slugs[s]}.txt", "\n".join(lines) + "\n")

    _write_config(work, seed=seed, null_samples=CORPUS_NULL_SAMPLES)
    commands = [
        ["extract", "--corpus", "corpus", "--registry", "registry.tsv",
         "--out", "edges.tsv", "--nodes-out", "nodes.txt"],
        ["communities", "--edges", "edges.tsv", "--nodes", "nodes.txt",
         "--config", "config.json", "--out", "communities.json"],
    ]
    planted = {(slugs[s], slugs[t]): c for (s, t), c in arcs.items()}
    return Workload(
        name="corpus_large",
        commands=commands,
        outputs=["edges.tsv", "nodes.txt", "communities.json"],
        corpus_bytes=corpus_bytes,
        expected={"edges": planted},
    )


def _check_corpus_large(work: Path, wl: Workload) -> list[str]:
    problems = []
    edges = _read_edges(work / "edges.tsv")
    if edges != wl.expected["edges"]:
        missing = len(set(wl.expected["edges"].items()) - set(edges.items()))
        extra = len(set(edges.items()) - set(wl.expected["edges"].items()))
        problems.append(f"corpus_large: edge list differs from planted table ({missing} missing, {extra} extra)")
    payload = json.loads((work / "communities.json").read_text(encoding="utf-8"))
    if not payload.get("communities", {}).get("main"):
        problems.append("corpus_large: communities section has no main community")
    return problems


# -- graph_large ---------------------------------------------------------------------


def make_graph_large(work: Path, seed: int) -> Workload:
    """A citation digraph given directly as edge list plus node sidecar.

    No reciprocal arcs are planted, so the undirected edge count, and with
    it the size of every ER/WS sample, is the same for every seed.
    """
    rng = _rng("graph_large", seed)
    n = GRAPH_NODES
    slugs = [f"n{i:04d}" for i in range(n)]
    connected = n - GRAPH_ISOLATED
    arcs = _community_arcs(rng, connected, GRAPH_COMMUNITY, GRAPH_HUBS, 3, 40, False)
    records = sorted((slugs[s], slugs[t], c) for (s, t), c in arcs.items())
    _write(work / "edges.tsv", "".join(f"{a}\t{b}\t{c}\n" for a, b, c in records))
    _write(work / "nodes.txt", "".join(s + "\n" for s in slugs))
    _write_config(work, seed=seed, null_samples=GRAPH_NULL_SAMPLES)
    commands = [
        ["analyze", "--edges", "edges.tsv", "--nodes", "nodes.txt",
         "--config", "config.json", "--out", "report.json"],
    ]
    return Workload(
        name="graph_large",
        commands=commands,
        outputs=["report.json"],
        expected={"n": n, "arcs": len(records)},
    )


def _check_graph_large(work: Path, wl: Workload) -> list[str]:
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    summary = report["graph_summary"]
    problems = []
    for key, want in wl.expected.items():
        if summary[key] != want:
            problems.append(f"graph_large: {key} is {summary[key]!r}, generated {want!r}")
    if len(report["baselines"]) != 2:
        problems.append("graph_large: expected ER and WS baselines")
    return problems


# -- shared ----------------------------------------------------------------------------


def _read_edges(path: Path) -> dict[tuple[str, str], int]:
    table = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        citing, cited, count = line.split("\t")
        table[(citing, cited)] = int(count)
    return table


GENERATORS = {
    "fixture": make_fixture,
    "corpus_large": make_corpus_large,
    "graph_large": make_graph_large,
}

_CHECKS = {
    "fixture": _check_fixture,
    "corpus_large": _check_corpus_large,
    "graph_large": _check_graph_large,
}


def generate(name: str, work: Path, seed: int) -> Workload:
    return GENERATORS[name](work, seed)


def check(work: Path, wl: Workload) -> list[str]:
    """Planted-fact problems in the outputs of the last iteration (empty if none)."""
    try:
        return _CHECKS[wl.name](work, wl)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{wl.name}: outputs unreadable: {exc!r}"]


def output_digest(work: Path, wl: Workload) -> str:
    """sha256 over every output file, name and bytes, in a fixed order."""
    h = hashlib.sha256()
    for name in wl.outputs:
        data = (work / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def input_digest(work: Path) -> str:
    """sha256 over every generated input file, for the determinism self-test."""
    h = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(work)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
