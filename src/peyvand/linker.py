"""The linking pipeline: candidates, filters, scoring, NIL abstention.

For every mention the pipeline looks up candidates in the alias index,
applies the heuristic filters of `FILTERS` that the config turns on (type,
POS, popularity, class-specific evidence), then scores each survivor with

    combined = penalty * (lambda * context + (1 - lambda) * graph)

where `context` is the TF-IDF cosine between the candidate's article and
the whole document minus the tokens that touch the mention, and `graph`
is the min-max-normalized count of distinct candidates of the document's
other mentions whose articles link to the candidate (either direction).
The top candidate wins unless its combined score falls below the NIL
threshold; rejected candidates are kept on a ranked ambiguity list.

`link_document` is the one entry point. Above a NIL threshold of 1 every
mention abstains, so its ambiguity list holds each kept candidate with its
context score, graph score and penalty; the tests check each stage that way.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import InputError, PeyvandError
from .corpus import Document, Mention, NIL, _Nil
from .kb import (
    EntityRecord,
    KnowledgeBase,
    NerType,
    PosCategory,
    ReferenceLists,
    decode_json,
    key_error,
    lookup_alias,
)
from .textnorm import terms, tokenize


# The heuristic filters in the order they run and in the config's key order.
FILTERS = ("type", "pos", "popularity", "class")


class ConfigError(PeyvandError):
    """An invalid `LinkerConfig`; `from_file` reports it as an `InputError`."""


@dataclass(frozen=True)
class LinkerConfig:
    """Pipeline knobs. `lambda_weight` mixes context against graph score;
    `filters` names the filters of `FILTERS` that run."""

    lambda_weight: float = 0.5
    nil_threshold: float = 0.05
    filters: frozenset[str] = frozenset(FILTERS)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lambda_weight}")
        if not 0.0 <= self.nil_threshold < math.inf:
            raise ConfigError(
                f"nil_threshold must be finite and non-negative, got {self.nil_threshold}"
            )
        unknown = set(self.filters).difference(FILTERS)
        if unknown:
            raise ConfigError(f"unknown filter keys: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, data: object) -> "LinkerConfig":
        """Keys missing from `data` take the defaults."""
        defaults = cls().to_dict()
        if reason := key_error(data, "config", (), defaults):
            raise ConfigError(reason)
        filters = data.get("filters", {})
        if reason := key_error(filters, "filters", (), FILTERS):
            raise ConfigError(reason)
        values = {**defaults, **data}
        for key, value in filters.items():
            if type(value) is not bool:
                raise ConfigError(f"filters.{key} must be true or false, got {value!r}")
        for key in ("lambda", "nil_threshold"):
            value = values[key]
            if type(value) is bool or not isinstance(value, (int, float)):
                raise ConfigError(f"{key} must be a number, got {value!r}")
        try:
            return cls(
                lambda_weight=float(values["lambda"]),
                nil_threshold=float(values["nil_threshold"]),
                filters=frozenset(name for name in FILTERS if filters.get(name, True)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "LinkerConfig":
        """Load a config file; every error it raises is an `InputError`."""
        data = decode_json(Path(path).read_bytes(), path, 1)
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise InputError(path, None, str(exc)) from None

    def to_dict(self) -> dict:
        return {
            "lambda": self.lambda_weight,
            "nil_threshold": self.nil_threshold,
            "filters": {name: name in self.filters for name in FILTERS},
        }


@dataclass(frozen=True)
class ScoredCandidate:
    entity_id: str
    context_score: float
    graph_score: float
    penalty: float
    combined: float


@dataclass(frozen=True)
class LinkResult:
    mention_index: int
    decision: str | _Nil
    score: float
    ambiguity: tuple[ScoredCandidate, ...]


def _tfidf_vector(terms: Sequence[str], kb: KnowledgeBase) -> dict[str, float]:
    """Raw term count times the smoothed IDF, ln((1 + N) / (1 + df)) + 1,
    which `kb.idf` holds by document frequency."""
    idf, doc_freq = kb.idf, kb.doc_freq
    return {term: count * idf[doc_freq.get(term, 0)] for term, count in Counter(terms).items()}


def _vector_norm(vector: Mapping[str, float]) -> float:
    return math.sqrt(sum(w * w for w in vector.values()))


def _cosine(a: Mapping[str, float], norm_a: float, b: Mapping[str, float], norm_b: float) -> float:
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b, norm_a, norm_b = b, a, norm_b, norm_a
    # Weights are counts times IDFs of at least 1, so both norms are >= 1.
    return sum(w * b[t] for t, w in a.items() if t in b) / (norm_a * norm_b)


def _graph_scores(
    kb: KnowledgeBase,
    mention_index: int,
    doc_candidates: Mapping[int, set[str]],
) -> dict[str, float]:
    """Graph score of each candidate of the mention: its count of distinct
    linked candidates of other mentions over the mention's best count."""
    own = doc_candidates[mention_index]
    others = set().union(*(cands for j, cands in doc_candidates.items() if j != mention_index))
    linked = {c: others & kb.entities[c].out_links for c in own}
    for o in others:
        for c in kb.entities[o].out_links & own:
            linked[c].add(o)
    raw = {c: len(linked[c]) for c in sorted(own)}
    max_raw = max(raw.values(), default=0)
    return {c: n / max_raw if max_raw else 0.0 for c, n in raw.items()}


class _DocScorer:
    """Shared per-document state so the text is tokenized once per
    `link_document` call, into the `(text, start, end)` tuples of
    `tokenize`. `context_vector` is the one context path; article vectors
    live on the KB's memo."""

    def __init__(
        self,
        kb: KnowledgeBase,
        lists: ReferenceLists,
        cfg: LinkerConfig,
        doc: Document,
    ):
        self.kb = kb
        self.lists = lists
        self.cfg = cfg
        self.doc = doc
        self.tokens = tokenize(doc.text)
        self.doc_terms = {t for t, _, _ in self.tokens if t not in lists.stopwords}
        self._article_vectors = kb.article_vectors.setdefault(lists.stopwords, {})

    def apply_filters(
        self, mention: Mention, candidates: frozenset[str]
    ) -> tuple[set[str], dict[str, float]]:
        """The candidates that survive the filters of `cfg`, in `FILTERS`
        order, and a penalty for each: 1.0 unless a class filter fired."""
        kb, lists, cfg = self.kb, self.lists, self.cfg
        kept = set(candidates)

        # Type check: only when the mention carries a usable type and the
        # mapping has an opinion about it.
        if "type" in cfg.filters and mention.ner_type not in (None, NerType.UNKNOWN):
            allowed = lists.type_mapping.get(mention.ner_type)
            if allowed is not None:
                kept = {c for c in kept if kb.entities[c].kb_class in allowed}

        # POS check: UNKNOWN on either side keeps the candidate.
        if "pos" in cfg.filters and mention.pos_tag not in (None, PosCategory.UNKNOWN):
            kept = {
                c
                for c in kept
                if kb.entities[c].pos_category in (mention.pos_tag, PosCategory.UNKNOWN)
            }

        # Popularity: the manually curated rare list, whether shipped as a
        # blocklist or as per-record flags in the dump.
        if "popularity" in cfg.filters:
            kept = {
                c for c in kept if c not in lists.rare_blocklist and not kb.entities[c].rare
            }

        penalties = {c: 1.0 for c in kept}

        # Class-specific evidence: generic names (artwork titles and the like)
        # keep their full rate only when a trigger term appears in the document.
        if "class" in cfg.filters:
            for c in kept:
                class_filter = lists.class_filters.get(kb.entities[c].kb_class)
                if class_filter is not None and not (class_filter.triggers & self.doc_terms):
                    penalties[c] = class_filter.penalty

        return kept, penalties

    def article_vector(self, entity: EntityRecord) -> tuple[dict[str, float], float]:
        """The article's TF-IDF vector and norm, built once per KB."""
        cached = self._article_vectors.get(entity.id)
        if cached is None:
            normal = self.kb.normal_forms.__getitem__
            article_terms = [
                t for t in terms(entity.article_text, normal) if t not in self.lists.stopwords
            ]
            vector = _tfidf_vector(article_terms, self.kb)
            cached = self._article_vectors[entity.id] = (vector, _vector_norm(vector))
        return cached

    def context_vector(self, mention: Mention) -> tuple[dict[str, float], float]:
        """The TF-IDF vector and norm of the document terms around the
        mention: every token that does not touch the mention span, in
        document order."""
        start, end, stopwords = mention.start, mention.end, self.lists.stopwords
        ctx = [t for t, s, e in self.tokens if (e <= start or s >= end) and t not in stopwords]
        vector = _tfidf_vector(ctx, self.kb)
        return vector, _vector_norm(vector)

    def rank(
        self,
        mention_index: int,
        doc_candidates: Mapping[int, set[str]],
        penalties: Mapping[str, float],
    ) -> LinkResult:
        """Ties on the combined score go to the lowest entity id; with no
        kept candidate, or a top score below the NIL threshold, the
        decision is NIL and every scored candidate is on the ambiguity list."""
        mention = self.doc.mentions[mention_index]
        graph_scores = _graph_scores(self.kb, mention_index, doc_candidates)
        context = self.context_vector(mention)
        scored = []
        for entity_id in sorted(doc_candidates[mention_index]):
            ctx = _cosine(*context, *self.article_vector(self.kb.entities[entity_id]))
            graph = graph_scores[entity_id]
            penalty = penalties[entity_id]
            combined = penalty * (
                self.cfg.lambda_weight * ctx + (1.0 - self.cfg.lambda_weight) * graph
            )
            scored.append(ScoredCandidate(entity_id, ctx, graph, penalty, combined))
        scored.sort(key=lambda c: (-c.combined, c.entity_id))
        if not scored:
            return LinkResult(mention_index, NIL, 0.0, ())
        top = scored[0]
        if top.combined < self.cfg.nil_threshold:
            return LinkResult(mention_index, NIL, top.combined, tuple(scored))
        return LinkResult(mention_index, top.entity_id, top.combined, tuple(scored[1:]))


def link_document(
    kb: KnowledgeBase,
    lists: ReferenceLists,
    cfg: LinkerConfig,
    doc: Document,
) -> list[LinkResult]:
    """Run the full pipeline over a document, one result per mention.

    Post-filter candidate sets for all mentions are built first because the
    graph score is collective; scoring then proceeds mention by mention.
    """
    scorer = _DocScorer(kb, lists, cfg, doc)
    doc_candidates: dict[int, set[str]] = {}
    penalties_by_mention: dict[int, dict[str, float]] = {}
    for i, mention in enumerate(doc.mentions):
        candidates = lookup_alias(kb, mention.surface)
        doc_candidates[i], penalties_by_mention[i] = scorer.apply_filters(mention, candidates)
    return [
        scorer.rank(i, doc_candidates, penalties_by_mention[i])
        for i in range(len(doc.mentions))
    ]
