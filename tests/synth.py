"""Small in-memory knowledge bases for targeted scoring tests, the view
of each pipeline stage that `link_document` gives, and the text strategy
shared by the tokenizer properties."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from peyvand import kb
from peyvand.corpus import Document
from peyvand.kb import (
    ClassFilter,
    EntityRecord,
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
) -> EntityRecord:
    """A dump record: `article_text` holds the raw article, as the dump
    does, and `article_counts` is empty until `build_kb` counts it."""
    return EntityRecord(
        id=entity_id,
        canonical_label=label or entity_id,
        variant_labels=frozenset(variants),
        kb_class=kb_class,
        ner_type=ner_type,
        pos_category=pos,
        article_text=article,
        article_counts=(),
        out_links=frozenset(links),
        rare=rare,
    )


def dump_line(record: EntityRecord) -> dict:
    """The dump line of an `entity` record, its raw article as a string."""
    return {**kb.record_to_obj(record), "article": record.article_text}


def build_kb(records: list[EntityRecord], stopwords: frozenset[str] = frozenset()) -> KnowledgeBase:
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
    "ClassFilter", "build_kb", "dump_line", "empty_lists", "entity", "kept_candidates",
    "tokenizer_text",
]
