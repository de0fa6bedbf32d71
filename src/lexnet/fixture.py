"""The bundled synthetic 52-code corpus and registry.

The fixture is engineered, not real data: its registry names actual
French codes but the texts and the citation structure are generated.
The structure plants the qualitative facts the analyses look for: one
isolated code, one pendant code, one code citing four others without
ever being cited, a ten-member rich club (five most citing, six most
cited, overlapping in one), and three well-separated communities of
13, 12 and 12 codes in the network left after removing the club.
"""

from __future__ import annotations

from pathlib import Path

from .files import write_text_atomic

# (slug, display name, extra aliases beyond the display name), one table
# per planted group; the registry lists the groups in this order
_CLUB_CODES = (
    # the five most citing: the hexagon, which is also most cited, then
    # the four squares
    ("sante_publique", "Code de la santé publique", ("csp",)),
    ("collectivites_territoriales", "Code général des collectivités territoriales", ("cgct",)),
    ("environnement", "Code de l'environnement", ()),
    ("securite_sociale", "Code de la sécurité sociale", ()),
    ("rural", "Code rural", ("code rural et de la pêche maritime",)),
    # the five circles, most cited
    ("penal", "Code pénal", ()),
    ("civil", "Code civil", ()),
    ("procedure_penale", "Code de procédure pénale", ()),
    ("travail", "Code du travail", ()),
    ("commerce", "Code de commerce", ()),
)
# the isolated, the pendant and the source-only code
_SINGULAR_CODES = (
    (
        "legion_honneur",
        "Code de la Légion d'honneur et de la médaille militaire",
        ("code de la légion d'honneur",),
    ),
    (
        "instruments_monetaires",
        "Code des instruments monétaires et des médailles",
        ("code des instruments monétaires",),
    ),
    ("artisanat", "Code de l'artisanat", ()),
)
_TERR_CODES = (
    ("urbanisme", "Code de l'urbanisme", ()),
    ("construction_habitation", "Code de la construction et de l'habitation", ()),
    (
        "expropriation",
        "Code de l'expropriation pour cause d'utilité publique",
        ("code de l'expropriation",),
    ),
    ("domaine_etat", "Code du domaine de l'État", ()),
    ("voirie_routiere", "Code de la voirie routière", ()),
    ("forestier", "Code forestier", ()),
    ("minier", "Code minier", ()),
    ("ports_maritimes", "Code des ports maritimes", ()),
    (
        "domaine_public_fluvial",
        "Code du domaine public fluvial et de la navigation intérieure",
        (),
    ),
    ("route", "Code de la route", ()),
    ("tourisme", "Code du tourisme", ()),
    ("patrimoine", "Code du patrimoine", ()),
    ("propriete_publique", "Code général de la propriété des personnes publiques", ()),
)
_SOCIAL_CODES = (
    ("action_sociale", "Code de l'action sociale et des familles", ()),
    ("consommation", "Code de la consommation", ()),
    ("mutualite", "Code de la mutualité", ()),
    ("assurances", "Code des assurances", ()),
    ("education", "Code de l'éducation", ()),
    ("sport", "Code du sport", ()),
    ("cinema", "Code du cinéma et de l'image animée", ()),
    ("service_national", "Code du service national", ()),
    ("pensions_retraite", "Code des pensions civiles et militaires de retraite", ()),
    (
        "pensions_invalidite",
        "Code des pensions militaires d'invalidité et des victimes de guerre",
        (),
    ),
    (
        "etrangers",
        "Code de l'entrée et du séjour des étrangers et du droit d'asile",
        (),
    ),
    ("recherche", "Code de la recherche", ()),
)
_ADMIN_CODES = (
    ("justice_administrative", "Code de justice administrative", ()),
    ("juridictions_financieres", "Code des juridictions financières", ()),
    ("organisation_judiciaire", "Code de l'organisation judiciaire", ()),
    ("justice_militaire", "Code de justice militaire", ()),
    ("defense", "Code de la défense", ()),
    ("douanes", "Code des douanes", ()),
    ("marches_publics", "Code des marchés publics", ()),
    ("postes_communications", "Code des postes et des communications électroniques", ()),
    ("monetaire_financier", "Code monétaire et financier", ()),
    ("aviation_civile", "Code de l'aviation civile", ()),
    ("communes", "Code des communes", ()),
    ("electoral", "Code électoral", ()),
)
_STRAGGLER_CODES = (
    ("propriete_intellectuelle", "Code de la propriété intellectuelle", ()),
    ("marine_marchande", "Code disciplinaire et pénal de la marine marchande", ()),
)
_GROUPS = (
    _CLUB_CODES, _SINGULAR_CODES, _TERR_CODES, _SOCIAL_CODES, _ADMIN_CODES, _STRAGGLER_CODES
)
CODES: tuple[tuple[str, str, tuple[str, ...]], ...] = tuple(
    code for group in _GROUPS for code in group
)
CLUB, _SINGULAR, TERR, SOCIAL, ADMIN, STRAGGLERS = (
    tuple(slug for slug, _, _ in group) for group in _GROUPS
)
HEXAGON, CITING_FIVE, CIRCLES = CLUB[0], CLUB[:5], CLUB[5:]
PENDANT, SOURCE_ONLY = _SINGULAR[1:]
COMMUNITY = TERR + SOCIAL + ADMIN

# arcs raised above count 1 to exercise citation multiplicities
_MULTI_COUNTS = {
    (HEXAGON, "penal"): 3,
    ("collectivites_territoriales", "environnement"): 2,
    ("penal", "civil"): 2,
    ("urbanisme", "construction_habitation"): 2,
}

# periphery arcs each club member cites, in club order
_CLUB_OUT_QUOTA = tuple(zip(CLUB, (12, 10, 9, 8, 7, 3, 3, 2, 2, 2)))
# periphery arcs citing each club member: the circles, then the five most citing
_CLUB_IN_QUOTA = tuple(zip(CIRCLES + CITING_FIVE, (9, 9, 10, 8, 7, 12, 4, 4, 4, 4)))


def fixture_edge_table() -> dict[tuple[str, str], int]:
    """The planted citation structure as (citing, cited) -> count."""
    arcs: dict[tuple[str, str], int] = {}

    def add(citing: str, cited: str) -> None:
        key = (citing, cited)
        if key in arcs:
            raise AssertionError(f"duplicate planted arc {key}")
        arcs[key] = 1

    # dense club core: the five most-citing codes cite every other member,
    # the five most-cited codes cite each other
    for x in CITING_FIVE:
        for y in CLUB:
            if y != x:
                add(x, y)
    for x in CIRCLES:
        for y in CIRCLES:
            if y != x:
                add(x, y)

    # club members cite the periphery (stragglers first, then round-robin)
    cursor = 0
    for i, (src, quota) in enumerate(_CLUB_OUT_QUOTA):
        if i == 0:
            for straggler in STRAGGLERS:
                add(src, straggler)
            quota -= len(STRAGGLERS)
        for _ in range(quota):
            add(src, COMMUNITY[cursor % len(COMMUNITY)])
            cursor += 1

    # the three singular codes and the stragglers
    for cited in ("penal", "civil", "travail", "commerce"):
        add(SOURCE_ONLY, cited)
    add(PENDANT, "penal")
    for straggler in STRAGGLERS:
        add(straggler, "penal")
        add(straggler, "civil")

    # the periphery cites the club (round-robin over community members)
    cursor = 0
    for dst, quota in _CLUB_IN_QUOTA:
        for _ in range(quota):
            add(COMMUNITY[cursor % len(COMMUNITY)], dst)
            cursor += 1

    # three internally connected communities: a ring plus second-neighbor chords
    for group in (TERR, SOCIAL, ADMIN):
        size = len(group)
        for i in range(size):
            add(group[i], group[(i + 1) % size])
            add(group[i], group[(i + 2) % size])

    for key, count in _MULTI_COUNTS.items():
        if key not in arcs:
            raise AssertionError(f"multiplicity on unplanted arc {key}")
        arcs[key] = count
    return arcs


def fixture_registry_text() -> str:
    lines = [
        "# Synthetic registry for the bundled fixture corpus.",
        "# slug<TAB>display name<TAB>alias1|alias2|...",
    ]
    for slug, display, extra in CODES:
        aliases = "|".join((display,) + extra)
        lines.append(f"{slug}\t{display}\t{aliases}")
    return "\n".join(lines) + "\n"


_TEMPLATES = (
    "Les dispositions du {m} s'appliquent sous réserve du présent livre.",
    "Par dérogation, les sanctions prévues par le {m} demeurent applicables.",
    "Un décret précise l'articulation du présent code avec le {m}.",
    "Voir également les renvois opérés vers le {m}.",
    "Les modalités définies par le {m} sont reprises ici.",
)

_INTRO = "Le présent code rassemble les textes codifiés de son domaine."
_SELF_TEMPLATE = "Les renvois internes au {m} ne comptent pas comme citations."
_SELF_QUOTERS = ("sante_publique", "civil", "urbanisme", "legion_honneur")

_TRAPS = {
    "legion_honneur": (
        "Un code civilisé ne pénalise aucun artisan honnête.",
        "Les notions de codification, de code source et de code civique restent hors champ.",
    ),
    "artisanat": (
        "Le créateur recodifie sans codifier le code pénitentiaire.",
    ),
}


def _aliases_by_slug() -> dict[str, tuple[str, ...]]:
    return {slug: (display,) + extra for slug, display, extra in CODES}


def _surface_form(alias: str, occurrence: int) -> str:
    """Vary the surface form so normalization is exercised end to end."""
    variant = occurrence % 4
    if variant == 1:
        return alias.upper()
    if variant == 2:
        return alias.replace(" ", " ", 1)  # no-break space inside the name
    if variant == 3 and "'" in alias:
        return alias.replace("'", "’")  # curly apostrophe
    return alias


def fixture_corpus() -> dict[str, str]:
    """Render one document per code from the planted edge table."""
    aliases = _aliases_by_slug()
    arcs = fixture_edge_table()
    outgoing: dict[str, list[tuple[str, int]]] = {slug: [] for slug, _, _ in CODES}
    for (citing, cited), count in sorted(arcs.items()):
        outgoing[citing].append((cited, count))

    corpus: dict[str, str] = {}
    for slug, _, _ in CODES:
        sentences = [_INTRO]
        sentences.extend(_TRAPS.get(slug, ()))
        occurrence = 0
        for cited, count in outgoing[slug]:
            cited_aliases = aliases[cited]
            for _ in range(count):
                alias = cited_aliases[occurrence % len(cited_aliases)]
                template = _TEMPLATES[occurrence % len(_TEMPLATES)]
                sentences.append(template.format(m=_surface_form(alias, occurrence)))
                occurrence += 1
        if slug in _SELF_QUOTERS:
            sentences.append(_SELF_TEMPLATE.format(m=aliases[slug][0]))
        corpus[slug] = "\n".join(sentences) + "\n"
    return corpus


_FIXTURE_README = """\
# Synthetic fixture corpus

These 52 documents and the registry are generated test data. The code
names are real French codes, but every text is synthetic and the
citation structure between them is planted by the generator; it is not
a reconstruction of any real citation network.

Layout:
  registry.tsv   slug / display name / aliases, tab separated
  corpus/        one <slug>.txt document per code
"""


def write_fixture(directory: str | Path) -> Path:
    """Write registry.tsv, corpus/<slug>.txt and a README under directory, each atomically."""
    root = Path(directory)
    corpus_dir = root / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(root / "registry.tsv", fixture_registry_text())
    write_text_atomic(root / "README.md", _FIXTURE_README)
    for slug, text in fixture_corpus().items():
        write_text_atomic(corpus_dir / f"{slug}.txt", text)
    return root
