"""Citation extraction: normalization, registry loading, mention scanning."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexnet.errors import LexnetError
from lexnet.extraction import (
    CodeDocument,
    CodeRegistry,
    RegistryEntry,
    _TRIE_DEPTH,
    _trie_pattern,
    build_edge_list,
    find_citations,
    load_registry,
    normalize_text,
)
from lexnet.fixture import fixture_corpus

from conftest import reference_normalize_text

# characters that exercise every folding step: accents in both cases,
# ligatures, every apostrophe variant, spacing marks that decompose into
# combining marks, no-break space, U+0149 (decomposes to U+02BC + n)
_FOLDED = "éèêëàçôöûÉÈÇÔœŒæÆﬁﬂ’‘ʼ`´¨\u00a0\u0149 \t\n'aZ"


def _perfbench_workloads():
    """The benchmark's workload generators, loaded from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


class TestNormalizeText:
    def test_accents_and_case(self):
        assert normalize_text("Code Pénal") == "code penal"

    def test_whitespace_collapse(self):
        assert normalize_text("code   de  la\nsanté publique") == "code de la sante publique"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_apostrophe_variants(self):
        assert normalize_text("l’artisanat") == "l'artisanat"
        assert normalize_text("l`artisanat") == "l'artisanat"

    def test_ligature(self):
        assert normalize_text("œuvre") == "oeuvre"

    def test_no_break_space(self):
        assert normalize_text("code civil") == "code civil"

    @given(st.text(max_size=80))
    @settings(max_examples=200, derandomize=True)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.text(st.one_of(st.sampled_from(_FOLDED), st.characters()), max_size=80))
    @settings(max_examples=300, derandomize=True)
    def test_matches_unconditional_mark_filter(self, text):
        assert normalize_text(text) == reference_normalize_text(text)

    def test_matches_unconditional_mark_filter_on_fixture_corpus(self):
        texts = fixture_corpus().values()
        assert not all(text.isascii() for text in texts)
        for text in texts:
            assert normalize_text(text) == reference_normalize_text(text)

    def test_matches_unconditional_mark_filter_on_large_corpus(self, tmp_path):
        _perfbench_workloads().make_corpus_large(tmp_path, seed=1)
        paths = sorted((tmp_path / "corpus").iterdir())
        assert len(paths) == 1000
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert normalize_text(text) == reference_normalize_text(text)


REGISTRY_TEXT = """\
# test registry
sante\tCode de la santé\tcode de la santé
sante_publique\tCode de la santé publique\tcode de la santé publique
penal\tCode pénal\tcode pénal
civil\tCode civil\tcode civil
"""


class TestLoadRegistry:
    def test_fixture_registry_has_52_entries(self):
        from lexnet.fixture import fixture_registry_text

        registry = load_registry(fixture_registry_text())
        assert len(registry.slugs()) == 52

    def test_ambiguous_alias(self):
        text = "a\tCode A\tcode general\nb\tCode B\tcode general\n"
        with pytest.raises(LexnetError, match="alias 'code general' claimed by both 'a' and 'b'"):
            load_registry(text)

    def test_duplicate_slug(self):
        text = "a\tCode A\tcode a\na\tCode A bis\tcode a bis\n"
        with pytest.raises(LexnetError, match="slug 'a' appears twice"):
            load_registry(text)

    def test_malformed_line(self):
        with pytest.raises(LexnetError, match="line 1: expected 3 tab-separated fields, got 1"):
            load_registry("just one field\n")

    def test_empty_alias_of_a_directly_built_registry(self):
        # load_registry rejects an empty alias by its line first
        with pytest.raises(LexnetError, match="entry 'a' has an empty alias"):
            CodeRegistry([RegistryEntry("a", "Code A", ("",))])

    def test_single_entry_registry_yields_empty_edges(self):
        registry = load_registry("civil\tCode civil\tcode civil\n")
        corpus = [CodeDocument("civil", "le code civil cite le code civil")]
        assert build_edge_list(corpus, registry) == []

    def test_aliases_are_normalized(self):
        registry = load_registry(REGISTRY_TEXT)
        doc = CodeDocument("civil", "selon le CODE PENAL en vigueur")
        mentions = find_citations(doc, registry)
        assert [m.cited_slug for m in mentions] == ["penal"]


class TestFindCitations:
    @pytest.fixture
    def registry(self):
        return load_registry(REGISTRY_TEXT)

    def test_basic_mention(self, registry):
        doc = CodeDocument("civil", "les peines prévues par le code pénal")
        mentions = find_citations(doc, registry)
        assert len(mentions) == 1
        assert mentions[0].cited_slug == "penal"
        assert mentions[0].matched_alias == "code penal"

    def test_self_mention_excluded(self, registry):
        doc = CodeDocument("civil", "le code civil dispose")
        assert find_citations(doc, registry) == []

    def test_longest_match_wins(self, registry):
        doc = CodeDocument("civil", "voir le code de la santé publique")
        mentions = find_citations(doc, registry)
        assert [m.cited_slug for m in mentions] == ["sante_publique"]
        assert mentions[0].matched_alias == "code de la sante publique"

    def test_shorter_alias_still_matches_alone(self, registry):
        doc = CodeDocument("civil", "voir le code de la santé au travail")
        mentions = find_citations(doc, registry)
        assert [m.cited_slug for m in mentions] == ["sante"]

    def test_word_boundary_blocks_prefix(self, registry):
        doc = CodeDocument("penal", "un code civilisé ne suffit pas")
        assert find_citations(doc, registry) == []

    def test_offsets_are_normalized_positions(self, registry):
        doc = CodeDocument("civil", "Le Code Pénal puis le code pénal.")
        normalized = normalize_text(doc.text)
        mentions = find_citations(doc, registry)
        assert [m.offset for m in mentions] == [
            normalized.index("code penal"),
            normalized.index("code penal", mentions[0].offset + 1),
        ]

    def test_unknown_document_slug(self, registry):
        with pytest.raises(LexnetError, match="document slug 'nope' not in registry"):
            find_citations(CodeDocument("nope", "text"), registry)

    def test_self_match_consumes_span(self):
        # the document's own (longer) name is consumed whole, so the nested
        # foreign alias inside it is not reported
        registry = load_registry(REGISTRY_TEXT)
        doc = CodeDocument("sante_publique", "le code de la santé publique renvoie")
        assert find_citations(doc, registry) == []


class TestBuildEdgeList:
    @pytest.fixture
    def registry(self):
        return load_registry(REGISTRY_TEXT)

    def test_counts_aggregate(self, registry):
        doc = CodeDocument(
            "civil",
            "le code pénal, encore le code pénal, toujours le code pénal",
        )
        assert build_edge_list([doc], registry) == [("civil", "penal", 3)]

    def test_empty_corpus(self, registry):
        assert build_edge_list([], registry) == []

    def test_duplicate_document(self, registry):
        docs = [CodeDocument("civil", "x"), CodeDocument("civil", "y")]
        with pytest.raises(LexnetError, match="two documents for slug 'civil'"):
            build_edge_list(docs, registry)

    def test_fixture_corpus_structure(self, fixture_graph):
        # qualitative structure verified by independent degree recount
        from lexnet.metrics import Role, degree_profile

        assert fixture_graph.node_count == 52
        roles = [s.role for s in degree_profile(fixture_graph)]
        assert roles.count(Role.ISOLATED) == 1
        assert roles.count(Role.PENDANT) == 1

    def test_count_conservation(self, registry):
        rng = random.Random(9)
        words = ["code pénal", "code civil", "code de la santé publique", "et", "loi", "article"]
        for _ in range(10):
            text = " , ".join(rng.choice(words) for _ in range(30))
            doc = CodeDocument("sante", text)
            mentions = find_citations(doc, registry)
            rows = build_edge_list([doc], registry)
            assert sum(count for _, _, count in rows) == len(mentions)

    def test_scan_determinism(self, registry):
        doc = CodeDocument("civil", "code pénal et code de la santé publique et code civil")
        first = find_citations(doc, registry)
        second = find_citations(doc, registry)
        assert first == second


class TestInvariants:
    def test_no_self_records_ever(self, fixture_graph):
        for s, t, _ in fixture_graph.arcs():
            assert s != t

    def test_longest_match_dominance(self):
        registry = CodeRegistry(
            [
                RegistryEntry("short", "Code A", ("code rural",)),
                RegistryEntry("long", "Code B", ("code rural et maritime",)),
                RegistryEntry("host", "Host", ("code hôte",)),
            ]
        )
        doc = CodeDocument("host", "selon le code rural et maritime cité")
        mentions = find_citations(doc, registry)
        assert [m.cited_slug for m in mentions] == ["long"]
        starts = [m.offset for m in mentions if m.cited_slug == "short"]
        assert starts == []


def oracle_scan(aliases, text):
    """Brute-force longest-match scan: (start, alias) of every match.

    At each position not preceded by a letter, the longest alias that starts
    there and is followed by a non-letter (or the end) wins and the scan
    jumps past it; otherwise it advances one character.
    """

    def is_letter(ch):
        return "a" <= ch <= "z"

    def bounded(alias, start):
        end = start + len(alias)
        return text.startswith(alias, start) and (end == len(text) or not is_letter(text[end]))

    by_length = sorted(aliases, key=len, reverse=True)
    matches = []
    i = 0
    while i < len(text):
        if i == 0 or not is_letter(text[i - 1]):
            alias = next((a for a in by_length if bounded(a, i)), None)
            if alias is not None:
                matches.append((i, alias))
                i += len(alias)
                continue
        i += 1
    return matches


def _registry_of(aliases):
    return CodeRegistry(
        [RegistryEntry(f"c{i}", f"Code {i}", (alias,)) for i, alias in enumerate(sorted(aliases))]
    )


def _scan_spans(registry, text):
    return [(m.start(), m.group(0)) for m in registry.scan(text)]


class TestTriePattern:
    """Literal patterns, so that a rewrite of the trie walk keeps its output."""

    def test_prefix_pair(self):
        assert _trie_pattern(["code civil", "code"]) == r"code(?:\ civil)?"

    def test_nested_and_sibling_branches(self):
        assert _trie_pattern(["ab", "a", "abc", "b"]) == "(?:a(?:b(?:c)?)?|b)"
        codes = ["code penal", "code de commerce", "code du travail", "code de la route",
                 "code de l'urbanisme"]
        assert _trie_pattern(codes) == (
            r"code\ (?:d(?:e\ (?:commerce|l(?:'urbanisme|a\ route))|u\ travail)|penal)"
        )

    def test_past_depth_cap(self):
        # past the cap the suffixes form one flat alternation, longest first
        x = "x" * (_TRIE_DEPTH + 6)
        aliases = ["q", x, x + "a", x + "bb", "x" * (_TRIE_DEPTH + 2) + "yz"]
        assert _trie_pattern(aliases) == (
            "(?:q|" + "x" * (_TRIE_DEPTH + 2) + "(?:xxxxbb|xxxxa|xxxx|yz))"
        )
        y = "y" * _TRIE_DEPTH
        assert _trie_pattern([y, y + "c", y + "ab"]) == y + "(?:ab|c)?"


class TestScanOracle:
    @given(st.data())
    @settings(max_examples=400, derandomize=True)
    def test_scan_matches_oracle(self, data):
        # aliases are prefixes of a few words, so they nest; the text splices
        # whole aliases between single characters, so matches are frequent
        word = st.text(alphabet="ab '-", min_size=1, max_size=8)
        words = data.draw(st.lists(word, min_size=1, max_size=4))
        prefixes = sorted({w[:k] for w in words for k in range(1, len(w) + 1)})
        aliases = data.draw(st.sets(st.sampled_from(prefixes), min_size=1))
        pieces = st.one_of(st.sampled_from(sorted(aliases)), st.sampled_from(list("ab '-z")))
        text = "".join(data.draw(st.lists(pieces, max_size=20)))
        registry = _registry_of(aliases)
        assert _scan_spans(registry, text) == oracle_scan(aliases, text)

    def test_nested_prefix_chain_beyond_depth_cap(self):
        # 1000 nested prefix-aliases: far deeper than the regex parser could
        # nest groups, so the deep end must fall back to a flat alternation
        # the two multi-word aliases end past the cap, where the longest
        # flat suffix must still win
        aliases = ["a" * i for i in range(1, 1001)] + ["a" * 70 + " b", "a" * 70 + " b c"]
        registry = _registry_of(aliases)
        text = " ".join(
            ["a" * 1500, "a" * 999, "a" * 70, "ab", "a" * 64, "a" * 65, "a" * 1000, "b"]
            + ["a" * 70, "b c d", "a" * 70, "b", "bc"]
        )
        spans = _scan_spans(registry, text)
        assert spans == oracle_scan(aliases, text)
        assert [len(alias) for _, alias in spans] == [999, 70, 64, 65, 1000, 74, 72]

    def test_empty_registry(self):
        registry = CodeRegistry([])
        assert len(registry.slugs()) == 0
        assert _scan_spans(registry, "code civil et code penal") == []
        assert load_registry("# nothing here\n").slugs() == []
