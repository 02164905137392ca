"""Small in-memory knowledge bases for targeted scoring tests."""

from __future__ import annotations

from peyvand import kb
from peyvand.kb import (
    ClassFilter,
    EntityRecord,
    KnowledgeBase,
    NerType,
    PosCategory,
    ReferenceLists,
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
    return EntityRecord(
        id=entity_id,
        canonical_label=label or entity_id,
        variant_labels=frozenset(variants),
        kb_class=kb_class,
        ner_type=ner_type,
        pos_category=pos,
        article_text=article,
        out_links=frozenset(links),
        rare=rare,
    )


def build_kb(records: list[EntityRecord], stopwords: frozenset[str] = frozenset()) -> KnowledgeBase:
    """Index records the same way the loader would, without file round-trips."""
    return kb.build_kb(records, kb.doc_freq(records, stopwords))


def empty_lists(**overrides) -> ReferenceLists:
    base = dict(
        rare_blocklist=frozenset(),
        class_filters={},
        type_mapping={},
        stopwords=frozenset(),
    )
    base.update(overrides)
    return ReferenceLists(**base)


__all__ = ["ClassFilter", "build_kb", "empty_lists", "entity"]
