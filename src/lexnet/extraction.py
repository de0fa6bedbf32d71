"""Citation extraction: registry-driven mention detection in code texts.

A corpus document is scanned against the normalized aliases of every code
in the registry. At each position the longest matching alias wins and the
scan resumes after it; matches must start and end at word boundaries
(non-letter characters on the normalized alphabet), and mentions of the
document's own code are dropped.

All aliases are compiled into one regex shaped as a character trie: each
node is a group over its child characters, and a node where an alias ends
makes its continuation greedy-optional. The branches of a node start with
different characters, so the engine follows a single path per start
position and backs off to a shorter alias only when the longer one is not
followed by a word boundary. The cost of a scan therefore grows with alias
length, not with the number of aliases. Past _TRIE_DEPTH characters a
subtree's remaining suffixes form one flat alternation, longest first, so
the regex nesting (which the regex parser handles by recursion) stays
bounded however deeply aliases nest as prefixes of each other.
"""

from __future__ import annotations

import os
import re
import unicodedata
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import LexnetError, MalformedLineError
from .files import tsv_records

_APOSTROPHES = "’‘ʼ`´"  # curly quotes, modifier letter, backtick, acute
_LIGATURES = {"œ": "oe", "æ": "ae"}  # not decomposed by NFKD


def normalize_text(text: str) -> str:
    """Lowercase, fold diacritics and ligatures, unify apostrophes, collapse whitespace.

    Diacritics are removed by decomposition plus mark stripping; the oe/ae
    ligatures need explicit folding. The result is idempotent under
    re-normalization.
    """
    # apostrophes are folded twice: U+00B4/U+0060 decompose into combining
    # marks (so they must be caught before NFKD), while e.g. U+0149 emits a
    # U+02BC only during decomposition
    for ch in _APOSTROPHES:
        text = text.replace(ch, "'")
    decomposed = unicodedata.normalize("NFKD", text)
    if decomposed.isascii():
        stripped = decomposed  # no combining marks to strip
    else:
        stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    lowered = stripped.lower()
    for ligature, expansion in _LIGATURES.items():
        lowered = lowered.replace(ligature, expansion)
    for ch in _APOSTROPHES:
        lowered = lowered.replace(ch, "'")
    return " ".join(lowered.split())


_TRIE_DEPTH = 64  # characters; deeper suffixes form one flat alternation


def _group(branches: list[str], optional: bool) -> str:
    if not branches:
        return ""
    if len(branches) == 1 and not optional:
        return branches[0]
    return "(?:" + "|".join(branches) + (")?" if optional else ")")


def _trie_pattern(aliases: Iterable[str]) -> str:
    """Regex body matching exactly the given aliases, shaped as a prefix trie.

    Sorting puts every trie subtree in one contiguous run of words, so nodes
    are index ranges and chains of single children collapse into literals.
    The walk uses an explicit stack: its depth does not depend on alias
    length. A node is ``(lo, hi, depth)``: ``words[lo:hi]`` share their
    first ``depth`` characters, and ``words[lo]`` ends there if it is that
    short (a prefix sorts before its extensions).
    """
    words = sorted(aliases)
    done: list[str] = []  # finished sub-patterns, each node's children in order
    # (lo, hi, depth, kids): kids is None until the node is expanded, then the
    # node waits under its kids and is emitted once their patterns are done
    stack: list[tuple[int, int, int, list | None]] = [(0, len(words), 0, None)]
    while stack:
        lo, hi, depth, kids = stack.pop()
        optional = len(words[lo]) == depth
        if kids is not None:
            parts = done[len(done) - len(kids) :]
            del done[len(done) - len(kids) :]
            branches = [
                re.escape(words[k_lo][depth:k_depth]) + part
                for (k_lo, _, k_depth, _), part in zip(kids, parts)
            ]
            done.append(_group(branches, optional))
        elif depth >= _TRIE_DEPTH:
            tails = sorted(
                (w[depth:] for w in words[lo + optional : hi]), key=lambda t: (-len(t), t)
            )
            done.append(_group([re.escape(t) for t in tails], optional))
        else:
            kids = []
            start = lo + optional
            while start < hi:
                head = words[start][depth]
                end = start + 1
                while end < hi and words[end][depth] == head:
                    end += 1
                shared = len(os.path.commonprefix((words[start], words[end - 1])))
                kids.append((start, end, shared, None))
                start = end
            stack.append((lo, hi, depth, kids))
            stack.extend(reversed(kids))
    return done[0]


class RegistryEntry(NamedTuple):
    slug: str
    display_name: str
    aliases: tuple[str, ...]  # normalized


class CodeRegistry:
    """The universe of codes and the surface forms that denote them."""

    def __init__(self, entries: Sequence[RegistryEntry]):
        self._alias_to_slug: dict[str, str] = {}
        slugs = set()
        for entry in entries:
            if entry.slug in slugs:
                raise LexnetError(f"slug {entry.slug!r} appears twice")
            slugs.add(entry.slug)
            for alias in entry.aliases:
                if not alias:
                    raise LexnetError(f"entry {entry.slug!r} has an empty alias")
                owner = self._alias_to_slug.get(alias)
                if owner is not None and owner != entry.slug:
                    raise LexnetError(
                        f"alias {alias!r} claimed by both {owner!r} and {entry.slug!r}"
                    )
                self._alias_to_slug[alias] = entry.slug
        self._slugs = slugs
        # one trie-shaped regex over all aliases; its greedy optional groups
        # and the trailing guard implement the longest-match rule
        self._matcher = (
            re.compile(rf"(?<![a-z])(?:{_trie_pattern(self._alias_to_slug)})(?![a-z])")
            if self._alias_to_slug
            else None
        )

    def __contains__(self, slug: str) -> bool:
        return slug in self._slugs

    def slugs(self) -> list[str]:
        return sorted(self._slugs)

    def slug_of_alias(self, alias: str) -> str:
        return self._alias_to_slug[alias]

    def scan(self, normalized_text: str):
        if self._matcher is None:
            return iter(())
        return self._matcher.finditer(normalized_text)


def load_registry(content: str) -> CodeRegistry:
    """Parse the tab-separated registry format.

    Each record reads ``slug<TAB>display_name<TAB>alias1|alias2|...``
    (lines as ``files.tsv_records`` reads them). Aliases are stored normalized.
    """
    entries = []
    for lineno, (slug, display_name, alias_field) in tsv_records(content, 3):
        if not slug or not display_name or not alias_field:
            raise MalformedLineError(lineno, "empty field")
        aliases = tuple(normalize_text(a) for a in alias_field.split("|"))
        if any(not a for a in aliases):
            raise MalformedLineError(lineno, "empty alias")
        entries.append(RegistryEntry(slug, display_name, aliases))
    return CodeRegistry(entries)


class CodeDocument(NamedTuple):
    slug: str
    text: str


class Mention(NamedTuple):
    """One occurrence of another code's name inside a document.

    The offset is the character position of the match in the normalized
    text of the document.
    """

    cited_slug: str
    offset: int
    matched_alias: str


def find_citations(doc: CodeDocument, registry: CodeRegistry) -> list[Mention]:
    """All mentions of other codes in the document, in offset order."""
    if doc.slug not in registry:
        raise LexnetError(f"document slug {doc.slug!r} not in registry")
    normalized = normalize_text(doc.text)
    mentions = []
    for match in registry.scan(normalized):
        alias = match.group(0)
        slug = registry.slug_of_alias(alias)
        if slug == doc.slug:
            continue  # self-quotation: consumed by the scan but not reported
        mentions.append(Mention(slug, match.start(), alias))
    return mentions


def build_edge_list(
    corpus: Iterable[CodeDocument], registry: CodeRegistry
) -> list[tuple[str, str, int]]:
    """Scan every document and aggregate mentions into sorted ``(citing, cited, count)`` rows."""
    counts: Counter[tuple[str, str]] = Counter()
    seen = set()
    for doc in corpus:
        if doc.slug in seen:
            raise LexnetError(f"two documents for slug {doc.slug!r}")
        seen.add(doc.slug)
        for mention in find_citations(doc, registry):
            counts[(doc.slug, mention.cited_slug)] += 1
    return sorted((citing, cited, count) for (citing, cited), count in counts.items())
