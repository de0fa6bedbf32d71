"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and budget is pinned here.
"""

import json
import random
import time

import pytest

from lexnet.communities import (
    assignment_after,
    cnm_communities,
    cnm_trace,
    modularity,
)
from lexnet.extraction import CodeDocument, CodeRegistry, RegistryEntry, find_citations, normalize_text
from lexnet.metrics import (
    Role,
    average_path_length,
    betweenness_scores,
    degree_profile,
    density,
    harmonic_closeness_scores,
    phi_table,
    rich_club_members,
)
from lexnet.nullmodels import (
    degree_preserving_rewire,
    erdos_renyi_gnm,
    watts_strogatz,
)
from lexnet.metrics import global_clustering
from lexnet.cli import run

from conftest import (
    assess,
    brute_force_best_partition,
    brute_force_betweenness,
    brute_force_phi,
    degree_multiset,
    digraph_from_ugraph,
    make_ugraph,
    random_ugraph,
    union_find_components,
)


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_modularity_oracle_equivalence():
    """CNM's incremental Q matches the definition at every step and never
    beats the exhaustive optimum; known fixtures are solved exactly."""
    started = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        ug = random_ugraph(rng, rng.randint(2, 8))
        trace = cnm_trace(ug)
        q = modularity(ug, assignment_after(ug.node_count, trace.merges, 0))
        ok = ok and abs(q - trace.q_initial) <= 1e-12
        for step, merge in enumerate(trace.merges, start=1):
            assignment = assignment_after(ug.node_count, trace.merges, step)
            ok = ok and abs(modularity(ug, assignment) - merge.q_after) <= 1e-12
        _, q_star = brute_force_best_partition(ug)
        ok = ok and cnm_communities(ug).q <= q_star + 1e-12

    triangles = make_ugraph(
        "abcdef",
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")],
    )
    ok = ok and abs(cnm_communities(triangles).q - 0.5) <= 1e-12
    bridge = make_ugraph(
        "abcdef",
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")],
    )
    ok = ok and abs(cnm_communities(bridge).q - 5 / 14) <= 1e-12
    k4 = make_ugraph("abcd", [(a, b) for a in "abcd" for b in "abcd" if a < b])
    ok = ok and abs(cnm_communities(k4).q - 0.0) <= 1e-12
    for fixture in (triangles, bridge, k4):
        _, q_star = brute_force_best_partition(fixture)
        ok = ok and abs(cnm_communities(fixture).q - q_star) <= 1e-12

    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    _report("1 (modularity oracle equivalence)", ok)


def test_criterion_2_rich_club_coefficient_oracle():
    """phi(k) equals brute-force induced density for all k on 100 graphs."""
    started = time.monotonic()
    rng = random.Random(202)
    ok = True
    for _ in range(100):
        ug = random_ugraph(rng, rng.randint(2, 12))
        max_deg = max(map(len, ug.adj))
        table = phi_table(ug)
        for k in range(max_deg + 2):
            expected = brute_force_phi(ug, k)
            actual = table.get(k)
            qualifying = sum(1 for nbrs in ug.adj if len(nbrs) > k)
            if qualifying < 2:
                ok = ok and actual is None and expected is None
            else:
                ok = ok and actual is not None and abs(actual - expected) <= 1e-12
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    _report("2 (rich-club coefficient oracle)", ok)


def test_criterion_3_null_model_invariants():
    """Rewiring preserves degrees; ER hits m exactly; WS lattice transitivity."""
    rng = random.Random(303)
    ok = True
    for _ in range(1000):
        ug = random_ugraph(rng, rng.randint(4, 12))
        if ug.edge_count < 2:
            continue
        rewired = degree_preserving_rewire(
            ug, 10 * ug.edge_count, seed=rng.randrange(10**9)
        )
        ok = ok and degree_multiset(rewired) == degree_multiset(ug)
        ok = ok and list(map(len, rewired.adj)) == list(map(len, ug.adj))
    for seed in range(200):
        ok = ok and erdos_renyi_gnm(12, 17, seed).edge_count == 17
        ok = ok and erdos_renyi_gnm(6, 15, seed).edge_count == 15
    lattice = watts_strogatz(10, 4, 0.0, seed=0)
    ok = ok and abs(global_clustering(lattice) - 0.5) <= 1e-12
    _report("3 (null-model invariants)", ok)


def test_criterion_4_betweenness_oracle():
    """Brandes accumulation matches exhaustive shortest-path enumeration."""
    rng = random.Random(404)
    ok = True
    checked = 0
    while checked < 100:
        ug = random_ugraph(rng, rng.randint(3, 7))
        if len(union_find_components(ug)) != 1:
            continue
        checked += 1
        expected = brute_force_betweenness(ug)
        actual = betweenness_scores(ug)
        for a, e in zip(actual, expected):
            ok = ok and abs(a - e) <= 1e-9
    _report("4 (betweenness oracle)", ok)


def test_criterion_5_pipeline_structural_reproduction(tmp_path):
    """extract + analyze on the bundled fixture reproduces the planted facts."""
    started = time.monotonic()
    fx = tmp_path / "fx"
    assert run(["fixture", "--out-dir", str(fx)]) == 0
    edges = tmp_path / "edges.tsv"
    nodes = tmp_path / "nodes.txt"
    assert (
        run(
            ["extract", "--corpus", str(fx / "corpus"), "--registry", str(fx / "registry.tsv"),
             "--out", str(edges), "--nodes-out", str(nodes)]
        )
        == 0
    )
    out = tmp_path / "report.json"
    assert (
        run(["analyze", "--edges", str(edges), "--nodes", str(nodes), "--out", str(out)])
        == 0
    )
    elapsed = time.monotonic() - started
    report = json.loads(out.read_text(encoding="utf-8"))

    roles = [entry["role"] for entry in report["roles"].values()]
    source_only = [
        slug for slug, entry in report["roles"].items()
        if entry["role"] == "source_only"
    ]
    club = report["rich_club"]
    ok = (
        report["graph_summary"]["n"] == 52
        and roles.count("isolated") == 1
        and roles.count("pendant") == 1
        and len(source_only) == 1
        and report["roles"][source_only[0]]["out_degree"] == 4
        and len(club["members"]) == 10
        and len(club["overlap"]) == 1
        and club["internal_density"] > report["graph_summary"]["density"]
        and club["phi_normalized"]["phi_norm"] > 1.0
        and club["cohesion_validated"] is True
        and report["assessment"]["verdict"] == "concentrated_world"
        and elapsed < 5.0
    )
    _report("5 (pipeline structural reproduction)", ok)


def test_criterion_6_discrimination():
    """WS inputs read as small worlds; ER inputs never read as concentrated."""
    started = time.monotonic()
    ok = True
    for seed in range(100):
        ws = watts_strogatz(52, 6, 0.1, seed=seed)
        g = digraph_from_ugraph(ws)
        club = rich_club_members(g, 5, 6)
        verdict = assess(g, club, samples=25, seed=seed).verdict
        ok = ok and verdict == "small_world_like"
    for seed in range(100):
        er = erdos_renyi_gnm(52, 156, seed=seed)
        g = digraph_from_ugraph(er)
        club = rich_club_members(g, 5, 6)
        verdict = assess(g, club, samples=25, seed=seed).verdict
        ok = ok and verdict != "concentrated_world"
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 40.0
    _report("6 (discrimination check)", ok)


def test_criterion_7_determinism(tmp_path):
    """Identical inputs, config and seed give byte-identical JSON and DOT."""
    fx = tmp_path / "fx"
    assert run(["fixture", "--out-dir", str(fx)]) == 0
    edges = tmp_path / "edges.tsv"
    nodes = tmp_path / "nodes.txt"
    assert (
        run(
            ["extract", "--corpus", str(fx / "corpus"), "--registry", str(fx / "registry.tsv"),
             "--out", str(edges), "--nodes-out", str(nodes)]
        )
        == 0
    )
    reports = []
    dots = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"report_{tag}.json"
        assert (
            run(
                ["analyze", "--edges", str(edges), "--nodes", str(nodes),
                 "--out", str(report_path), "--null-samples", "20", "--seed", "42"]
            )
            == 0
        )
        reports.append(report_path.read_bytes())
        dot_path = tmp_path / f"graph_{tag}.dot"
        assert (
            run(
                ["export", "--edges", str(edges), "--nodes", str(nodes),
                 "--report", str(report_path), "--dot", str(dot_path)]
            )
            == 0
        )
        dots.append(dot_path.read_bytes())
    ok = reports[0] == reports[1] and dots[0] == dots[1]
    _report("7 (determinism)", ok)


GOLDEN_REGISTRY = CodeRegistry(
    [
        RegistryEntry("sante", "Code de la santé", ("code de la sante",)),
        RegistryEntry(
            "sante_publique", "Code de la santé publique", ("code de la sante publique",)
        ),
        RegistryEntry("penal", "Code pénal", ("code penal",)),
        RegistryEntry("civil", "Code civil", ("code civil",)),
        RegistryEntry(
            "rural", "Code rural", ("code rural", "code rural et de la peche maritime")
        ),
        RegistryEntry("travail", "Code du travail", ("code du travail",)),
        RegistryEntry("artisanat", "Code de l'artisanat", ("code de l'artisanat",)),
        RegistryEntry(
            "honneur", "Code de la Légion d'honneur", ("code de la legion d'honneur",)
        ),
    ]
)

# (document slug, raw text, expected (cited slug, matched alias) list, in order)
GOLDEN_SNIPPETS = [
    # self-citation exclusion
    ("civil", "le code civil dispose", []),
    ("penal", "Le Code Pénal et le code civil", [("civil", "code civil")]),
    (
        "sante_publique",
        "le code de la santé publique renvoie au code de la santé",
        [("sante", "code de la sante")],
    ),
    ("rural", "selon le code rural et de la pêche maritime", []),
    ("artisanat", "l'artisanat et le code de l'artisanat", []),
    # longest-match nesting
    (
        "civil",
        "voir le code de la santé publique",
        [("sante_publique", "code de la sante publique")],
    ),
    (
        "civil",
        "le code de la santé publique et le code de la santé",
        [("sante_publique", "code de la sante publique"), ("sante", "code de la sante")],
    ),
    (
        "civil",
        "le code rural et de la pêche maritime s'applique",
        [("rural", "code rural et de la peche maritime")],
    ),
    ("civil", "le code rural reste applicable", [("rural", "code rural")]),
    ("civil", "le code rural et la mer", [("rural", "code rural")]),
    # accent and case folding
    ("civil", "LE CODE PÉNAL S'APPLIQUE", [("penal", "code penal")]),
    ("civil", "Voir le Còde Pénal", [("penal", "code penal")]),
    (
        "penal",
        "l’artisanat relève du code de l’artisanat",
        [("artisanat", "code de l'artisanat")],
    ),
    ("civil", "le code pénal", [("penal", "code penal")]),
    ("civil", "le code  du\ntravail", [("travail", "code du travail")]),
    (
        "civil",
        "la grand`route du code de la legion d´honneur",
        [("honneur", "code de la legion d'honneur")],
    ),
    # word-boundary traps
    ("penal", "un code civilisé", []),
    ("penal", "le code civil.", [("civil", "code civil")]),
    ("civil", "les codes pénaux", []),
    ("civil", "(code pénal)", [("penal", "code penal")]),
    ("civil", "le barcode pénal est lu", []),
    ("civil", "code pénalisé", []),
    ("civil", "du code du travailleur", []),
    # aggregation order and repeats
    (
        "civil",
        "code pénal puis code pénal encore code pénal",
        [("penal", "code penal")] * 3,
    ),
    (
        "artisanat",
        "le code pénal, le code du travail et le code de l'artisanat",
        [("penal", "code penal"), ("travail", "code du travail")],
    ),
]


def test_criterion_8_extraction_golden_suite():
    """25 hand-written snippets produce their expected mention lists exactly."""
    assert len(GOLDEN_SNIPPETS) == 25
    ok = True
    for doc_slug, text, expected in GOLDEN_SNIPPETS:
        mentions = find_citations(CodeDocument(doc_slug, text), GOLDEN_REGISTRY)
        got = [(m.cited_slug, m.matched_alias) for m in mentions]
        if got != expected:
            print(f"  snippet {text!r}: expected {expected}, got {got}")
            ok = False
            continue
        # offsets must point at the matched alias in the normalized text,
        # in strictly increasing order
        normalized = normalize_text(text)
        previous = -1
        for mention in mentions:
            span = normalized[mention.offset : mention.offset + len(mention.matched_alias)]
            if span != mention.matched_alias or mention.offset <= previous:
                print(f"  snippet {text!r}: bad offset {mention.offset}")
                ok = False
            previous = mention.offset
    _report("8 (extraction golden suite)", ok)


def test_criterion_9_scale_sanity():
    """Greedy community detection finishes a 10k-node, 50k-edge graph in time."""
    ug = erdos_renyi_gnm(10_000, 50_000, seed=2024)
    # re-keying every neighbor pair after each merge took about 11 s here (2
    # vCPUs); pushing only the pairs a merge changed takes about 0.5 s
    started = time.monotonic()
    partition = cnm_communities(ug)
    elapsed = time.monotonic() - started
    ok = (
        elapsed < 5.0
        and len(partition.assignment) == 10_000
        and partition.community_count >= 1
    )
    print(f"  cnm on 10k/50k: {elapsed:.1f}s, {partition.community_count} communities")
    _report("9 (scale sanity)", ok)


def _syllable_words(rng, consonants, count, syllables):
    pairs = [c + v for c in consonants for v in "aeiou"]
    words = set()
    while len(words) < count:
        words.add("".join(rng.choice(pairs) for _ in range(syllables)))
    return sorted(words)


def test_criterion_10_extraction_throughput():
    """A 2000-alias registry scans about 0.5 MB of filler text within budget."""
    rng = random.Random(10)
    names = _syllable_words(rng, "bdgkptz", 2000, 3)
    registry = CodeRegistry(
        [
            RegistryEntry(f"c{i}", f"Code {i}", (f"code {names[2 * i]}", f"{names[2 * i + 1]} act"))
            for i in range(1000)
        ]
    )
    # filler consonants are disjoint from alias consonants, so filler never
    # forms or extends an alias and every planted alias is one match
    filler = _syllable_words(rng, "fhlmnrsv", 600, 2)
    words, planted, size = [], 0, 0
    while size < 500_000:
        if rng.random() < 0.1:
            i = rng.randrange(1000)
            word = f"code {names[2 * i]}" if rng.random() < 0.5 else f"{names[2 * i + 1]} act"
            planted += 1
        else:
            word = rng.choice(filler)
        words.append(word)
        size += len(word) + 1
    text = " ".join(words)
    # the flat alternation this matcher replaced took about 1.1 s here; the
    # trie-shaped regex takes under 0.02 s
    started = time.monotonic()
    found = sum(1 for _ in registry.scan(text))
    elapsed = time.monotonic() - started
    ok = elapsed < 0.5 and found == planted
    print(f"  scan of {len(text) / 1e6:.2f} MB, 2000 aliases: {elapsed:.3f}s, {found} matches")
    _report("10 (extraction throughput)", ok)


def test_criterion_11_distance_sweep_throughput():
    """Average path length and harmonic closeness of ER 2000/10000 within budget."""
    ug = erdos_renyi_gnm(2000, 10_000, seed=11)
    # one breadth-first search per source takes about 8 s on this graph; the
    # bit-parallel distance sweep takes about 0.25 s
    started = time.monotonic()
    average = average_path_length(ug)
    closeness = harmonic_closeness_scores(ug)
    elapsed = time.monotonic() - started
    ok = elapsed < 1.5 and average > 1.0 and len(closeness) == 2000
    print(f"  path length + closeness on ER 2000/10000: {elapsed:.2f}s")
    _report("11 (distance sweep throughput)", ok)
