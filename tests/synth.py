"""Small in-memory knowledge bases for targeted scoring tests, the view
of each pipeline stage that `link_document` gives, and the text strategy
shared by the tokenizer properties."""

from __future__ import annotations

from dataclasses import dataclass, replace

from hypothesis import strategies as st

from peyvand import kb
from peyvand.corpus import Document
from peyvand.kb import (
    ClassFilter,
    KnowledgeBase,
    NerType,
    PosCategory,
    ReferenceLists,
)
from peyvand.linker import LinkerConfig, ScoredCandidate, link_document
from peyvand.textnorm import ARABIC_DIACRITICS, ARABIC_KAF, ARABIC_YEH, TATWEEL, ZWNJ

# What the tokenizer must split or keep: Persian and Arabic letters, the
# Arabic kaf/yeh, ZWNJ, tatweel, harakat, the madda and hamza marks
# (U+0653-U+0655, which compose with alef once a tatweel or ZWNJ between
# them is deleted), a combining mark, ASCII and Arabic punctuation, Unicode spaces,
# digits and Latin letters.
tokenizer_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x0621, max_codepoint=0x064A),
        st.sampled_from("پچژگکیآ" + ARABIC_KAF + ARABIC_YEH + ZWNJ + TATWEEL),
        st.sampled_from(ARABIC_DIACRITICS + ("\u0301", "\u0670", "\u0653", "\u0654", "\u0655")),
        st.sampled_from(".,!?;:()-\"'،؛؟٫«»…"),
        st.sampled_from(" \t\n\u00a0\u2009\u202f\u3000\u2028"),
        st.sampled_from("0123456789۰۱۲۳۴۵۶۷۸۹"),
        st.characters(min_codepoint=ord("A"), max_codepoint=ord("z")),
    ),
    max_size=40,
)


@dataclass(frozen=True)
class DumpRecord:
    """A dump record as `entity` makes it, with its raw article, before
    `build_kb` counts the article into a bag."""

    id: str
    canonical_label: str
    variant_labels: frozenset[str]
    kb_class: str
    ner_type: NerType
    pos_category: PosCategory
    article: str
    out_links: frozenset[str]
    rare: bool


def entity(
    entity_id: str,
    label: str | None = None,
    variants: tuple[str, ...] = (),
    kb_class: str = "thing",
    ner_type: NerType = NerType.OTHER,
    pos: PosCategory = PosCategory.UNKNOWN,
    article: str = "",
    links: tuple[str, ...] = (),
    rare: bool = False,
) -> DumpRecord:
    return DumpRecord(
        id=entity_id,
        canonical_label=label or entity_id,
        variant_labels=frozenset(variants),
        kb_class=kb_class,
        ner_type=ner_type,
        pos_category=pos,
        article=article,
        out_links=frozenset(links),
        rare=rare,
    )


def dump_line(record: DumpRecord) -> dict:
    """The dump line of an `entity` record."""
    return {
        "id": record.id,
        "label": record.canonical_label,
        "variants": sorted(record.variant_labels),
        "class": record.kb_class,
        "ner_type": record.ner_type.value,
        "pos": record.pos_category.value,
        "article": record.article,
        "links": sorted(record.out_links),
        "rare": record.rare,
    }


def build_kb(records: list[DumpRecord], stopwords: frozenset[str] = frozenset()) -> KnowledgeBase:
    """Index records the way `load_kb` reads a dump, without file round-trips."""
    lines = enumerate(map(dump_line, records), start=1)
    return kb.read_dump(lines, "records", stopwords)[0]


def empty_lists(**overrides) -> ReferenceLists:
    base = dict(
        rare_blocklist=frozenset(),
        class_filters={},
        type_mapping={},
    )
    base.update(overrides)
    return ReferenceLists(**base)


def kept_candidates(
    kb: KnowledgeBase, lists: ReferenceLists, cfg: LinkerConfig, doc: Document
) -> list[dict[str, ScoredCandidate]]:
    """Each mention's kept candidates by entity id, with the context score,
    graph score and penalty that `cfg` gives them: above a NIL threshold
    of 1 every mention abstains and lists them all on its ambiguity list."""
    results = link_document(kb, lists, replace(cfg, nil_threshold=2.0), doc)
    return [{c.entity_id: c for c in result.ambiguity} for result in results]


__all__ = [
    "ClassFilter", "DumpRecord", "build_kb", "dump_line", "empty_lists", "entity",
    "kept_candidates", "tokenizer_text",
]
