"""Independent reference implementations used to check the pipeline.

Everything here recomputes results the slow, obvious way: candidate sets
by scanning every entity's labels, cosine over dense numpy vectors built
from an explicit term-weight table, graph counts by exhaustive pair
enumeration, tokens by scanning characters one at a time, and a full
re-implementation of the linking pipeline on top of those, with the
normalizer's six steps written out in full. Only the data containers are
shared with the package; no normalizing, tokenizing or scoring code is.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from typing import Callable, Mapping, Sequence

import numpy as np

from peyvand.corpus import Document, Mention, NIL
from peyvand.kb import (
    KnowledgeBase,
    NerType,
    PosCategory,
    ReferenceLists,
)
from peyvand.linker import LinkResult, LinkerConfig, ScoredCandidate


def oracle_normalize(s: str) -> str:
    """The normalizer's six steps, each on the whole string: NFC; Arabic
    kaf (U+0643) to Persian kaf (U+06A9) and Arabic yeh (U+064A) to
    Persian yeh (U+06CC), with tatweel (U+0640), ZWNJ (U+200C) and the
    harakat U+064B-U+0652 deleted; NFC; whitespace runs collapsed to one
    space and stripped; case folding; NFC."""
    s = unicodedata.normalize("NFC", s)
    kept = []
    for ch in s:
        if ch == "\u0643":
            kept.append("\u06a9")
        elif ch == "\u064a":
            kept.append("\u06cc")
        elif ch not in ("\u0640", "\u200c") and not "\u064b" <= ch <= "\u0652":
            kept.append(ch)
    s = unicodedata.normalize("NFC", "".join(kept))
    s = re.sub(r"\s+", " ", s).strip()
    s = s.casefold()
    return unicodedata.normalize("NFC", s)


def oracle_is_separator(ch: str) -> bool:
    """Whitespace or Unicode punctuation (category P*)."""
    return ch.isspace() or unicodedata.category(ch).startswith("P")


def oracle_tokenize(s: str, norm: Callable[[str], str]) -> list[tuple[str, int, int]]:
    """`(normalized text, start, end)` of each maximal run of characters
    that are not `oracle_is_separator`, with offsets into `s`; runs that
    normalize to "" are dropped."""
    tokens = []
    start = None
    for i, ch in enumerate(s + " "):  # the final space ends the last run
        if oracle_is_separator(ch):
            text = norm(s[start:i]) if start is not None else ""
            if text:
                tokens.append((text, start, i))
            start = None
        elif start is None:
            start = i
    return tokens


def brute_force_candidates(kb: KnowledgeBase, surface: str) -> set[str]:
    """Scan every entity's canonical and variant labels directly; a surface
    that normalizes to nothing matches no label."""
    key = oracle_normalize(surface)
    if not key:
        return set()
    found = set()
    for entity in kb.entities.values():
        labels = {entity.canonical_label, *entity.variant_labels}
        if any(oracle_normalize(label) == key for label in labels):
            found.add(entity.id)
    return found


def brute_force_adjacency(kb: KnowledgeBase) -> set[frozenset[str]]:
    """Undirected link pairs, enumerated from raw out-link sets."""
    pairs: set[frozenset[str]] = set()
    for a in kb.entities.values():
        for b in a.out_links:
            if b in kb.entities and b != a.id:
                pairs.add(frozenset((a.id, b)))
    return pairs


def dense_cosine(
    context_terms: Sequence[str],
    article_terms: Sequence[str],
    doc_freq: Mapping[str, int],
    doc_count: int,
) -> float:
    """Cosine over dense vectors from an explicit TF-IDF weight table."""
    if not context_terms or not article_terms:
        return 0.0
    vocab = sorted(set(context_terms) | set(article_terms))
    ctx_counts = Counter(context_terms)
    art_counts = Counter(article_terms)

    def idf(term: str) -> float:
        return math.log((1 + doc_count) / (1 + doc_freq.get(term, 0))) + 1.0

    weights = np.array([idf(t) for t in vocab], dtype=np.float64)
    v1 = np.array([ctx_counts.get(t, 0) for t in vocab], dtype=np.float64) * weights
    v2 = np.array([art_counts.get(t, 0) for t in vocab], dtype=np.float64) * weights
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return float(np.dot(v1, v2) / (n1 * n2))


def exhaustive_raw_links(
    kb: KnowledgeBase,
    mention_index: int,
    doc_candidates: Mapping[int, set[str] | frozenset[str]],
) -> dict[str, int]:
    """For each candidate, count distinct linked entities among every other
    mention's candidates, by looping over all pairs."""
    adjacency = brute_force_adjacency(kb)
    counts: dict[str, int] = {}
    for candidate in doc_candidates.get(mention_index, ()):
        linked: set[str] = set()
        for other_index, others in doc_candidates.items():
            if other_index == mention_index:
                continue
            for other in others:
                if frozenset((candidate, other)) in adjacency:
                    linked.add(other)
        counts[candidate] = len(linked)
    return counts


def oracle_filter(
    kb: KnowledgeBase,
    lists: ReferenceLists,
    cfg: LinkerConfig,
    mention: Mention,
    candidates: set[str] | frozenset[str],
    doc_terms: set[str],
) -> tuple[set[str], dict[str, float]]:
    kept = set()
    for candidate in candidates:
        record = kb.entities[candidate]
        if "type" in cfg.filters and mention.ner_type is not None and mention.ner_type != NerType.UNKNOWN:
            if mention.ner_type in lists.type_mapping:
                if record.kb_class not in lists.type_mapping[mention.ner_type]:
                    continue
        if "pos" in cfg.filters and mention.pos_tag is not None and mention.pos_tag != PosCategory.UNKNOWN:
            if record.pos_category != PosCategory.UNKNOWN and record.pos_category != mention.pos_tag:
                continue
        if "popularity" in cfg.filters and (candidate in lists.rare_blocklist or record.rare):
            continue
        kept.add(candidate)
    penalties = {}
    for candidate in kept:
        penalties[candidate] = 1.0
        if "class" in cfg.filters:
            class_filter = lists.class_filters.get(kb.entities[candidate].kb_class)
            if class_filter is not None and len(class_filter.triggers & doc_terms) == 0:
                penalties[candidate] = class_filter.penalty
    return kept, penalties


def oracle_context_terms(doc: Document, mention: Mention, kb: KnowledgeBase) -> list[str]:
    context = []
    for text, start, end in oracle_tokenize(doc.text, oracle_normalize):
        if end > mention.start and start < mention.end:
            continue
        if text not in kb.stopwords:
            context.append(text)
    return context


def oracle_article_terms(entity_id: str, kb: KnowledgeBase) -> list[str]:
    # The KB stores each article as its bag: its distinct terms in normal
    # form, which normalizes to itself, each with its count. Each term is
    # repeated its count of times, so the terms come back grouped, which a
    # dense vector does not see. `test_stored_articles_are_the_oracle_terms`
    # checks the bag against the raw dump.
    record = kb.entities[entity_id]
    tokens = oracle_tokenize(record.article_text, oracle_normalize)
    return [
        text
        for (text, _, _), count in zip(tokens, record.article_counts, strict=True)
        if text not in kb.stopwords
        for _ in range(count)
    ]


def oracle_kept(
    kb: KnowledgeBase, lists: ReferenceLists, cfg: LinkerConfig, doc: Document
) -> tuple[dict[int, set[str]], dict[int, dict[str, float]]]:
    """Each mention's candidates that survive the filters, and their penalties."""
    doc_terms = {
        text
        for text, _, _ in oracle_tokenize(doc.text, oracle_normalize)
        if text not in kb.stopwords
    }
    doc_candidates: dict[int, set[str]] = {}
    penalties: dict[int, dict[str, float]] = {}
    for i, mention in enumerate(doc.mentions):
        candidates = brute_force_candidates(kb, mention.surface)
        doc_candidates[i], penalties[i] = oracle_filter(kb, lists, cfg, mention, candidates, doc_terms)
    return doc_candidates, penalties


def oracle_link_document(
    kb: KnowledgeBase, lists: ReferenceLists, cfg: LinkerConfig, doc: Document
) -> list[LinkResult]:
    """Full pipeline recomputed independently (shares only data types)."""
    doc_candidates, penalties = oracle_kept(kb, lists, cfg, doc)
    results = []
    for i, mention in enumerate(doc.mentions):
        raw = exhaustive_raw_links(kb, i, doc_candidates)
        max_raw = max(raw.values()) if raw else 0
        scored = []
        for candidate in doc_candidates[i]:
            ctx = dense_cosine(
                oracle_context_terms(doc, mention, kb),
                oracle_article_terms(candidate, kb),
                kb.doc_freq,
                kb.doc_count,
            )
            graph = raw[candidate] / max_raw if max_raw > 0 else 0.0
            penalty = penalties[i][candidate]
            combined = penalty * (cfg.lambda_weight * ctx + (1.0 - cfg.lambda_weight) * graph)
            scored.append(ScoredCandidate(candidate, ctx, graph, penalty, combined))
        scored.sort(key=lambda c: (-c.combined, c.entity_id))
        if not scored:
            results.append(LinkResult(NIL, 0.0, ()))
        elif scored[0].combined < cfg.nil_threshold:
            results.append(LinkResult(NIL, scored[0].combined, tuple(scored)))
        else:
            results.append(LinkResult(scored[0].entity_id, scored[0].combined, tuple(scored[1:])))
    return results
