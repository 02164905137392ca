"""The linking pipeline: candidates, filters, scoring, NIL abstention.

For every mention the pipeline looks up candidates in the alias index,
applies the four heuristic filters (type, POS, popularity, class-specific
evidence), then scores each surviving candidate with

    combined = penalty * (lambda * context + (1 - lambda) * graph)

where `context` is the TF-IDF cosine between the candidate's article and
the whole document minus the tokens that touch the mention, and `graph`
is the min-max-normalized count of distinct candidates of the document's
other mentions whose articles link to the candidate (either direction).
The top candidate wins unless its combined score falls below the NIL
threshold; rejected candidates are kept on a ranked ambiguity list.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import PeyvandError
from .corpus import Document, Mention, NIL, _Nil
from .kb import (
    EntityRecord,
    KnowledgeBase,
    NerType,
    PosCategory,
    ReferenceLists,
    decode_json,
    lookup_alias,
)
from .textnorm import Token, get_normalizer, terms, tokenize


class ConfigError(PeyvandError):
    pass


def _config_error(path: str | Path, line: int, reason: str) -> ConfigError:
    return ConfigError(f"{path}:{line}: {reason}")


@dataclass(frozen=True)
class LinkerConfig:
    """Pipeline knobs. `lambda_weight` mixes context against graph score."""

    lambda_weight: float = 0.5
    nil_threshold: float = 0.05
    type_filter: bool = True
    pos_filter: bool = True
    popularity_filter: bool = True
    class_filter: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lambda_weight}")
        if not 0.0 <= self.nil_threshold < math.inf:
            raise ConfigError(
                f"nil_threshold must be finite and non-negative, got {self.nil_threshold}"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "LinkerConfig":
        """Keys missing from `data` take the defaults."""
        defaults = cls().to_dict()
        unknown = set(data) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        filters = data.get("filters", {})
        if not isinstance(filters, Mapping):
            raise ConfigError(f"filters must be an object, got {filters!r}")
        bad = set(filters) - set(defaults["filters"])
        if bad:
            raise ConfigError(f"unknown filter keys: {sorted(bad)}")
        values = {**defaults, **data}
        filters = {**defaults["filters"], **filters}
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
                type_filter=filters["type"],
                pos_filter=filters["pos"],
                popularity_filter=filters["popularity"],
                class_filter=filters["class"],
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "LinkerConfig":
        data = decode_json(Path(path).read_bytes(), path, 1, _config_error)
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "lambda": self.lambda_weight,
            "nil_threshold": self.nil_threshold,
            "filters": {
                "type": self.type_filter,
                "pos": self.pos_filter,
                "popularity": self.popularity_filter,
                "class": self.class_filter,
            },
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


def generate_candidates(kb: KnowledgeBase, mention: Mention) -> frozenset[str]:
    """All entities whose alias matches the mention surface."""
    return lookup_alias(kb, mention.surface)


def filter_candidates(
    kb: KnowledgeBase,
    lists: ReferenceLists,
    cfg: LinkerConfig,
    doc: Document,
    mention: Mention,
    candidates: frozenset[str] | set[str],
) -> tuple[set[str], dict[str, float]]:
    """Apply type, POS, popularity and class filters, in that order.

    Returns the surviving candidate set and a penalty per survivor
    (1.0 unless a class filter fired). Filters never add candidates.
    """
    return _DocScorer(kb, lists, cfg, doc).apply_filters(mention, candidates)


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
    dot = sum(w * b[t] for t, w in a.items() if t in b)
    if dot == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def _context_terms(
    tokens: Sequence[Token],
    mention: Mention,
    stopwords: frozenset[str],
) -> list[str]:
    """Document terms around the mention: every token that does not touch
    the mention span, in document order."""
    return [
        t.text
        for t in tokens
        if (t.end <= mention.start or t.start >= mention.end) and t.text not in stopwords
    ]


def _graph_scores(
    kb: KnowledgeBase,
    mention_index: int,
    doc_candidates: Mapping[int, frozenset[str] | set[str]],
) -> dict[str, float]:
    """Graph score of each candidate of the mention: its count of distinct
    linked candidates of other mentions over the mention's best count."""
    own = doc_candidates.get(mention_index, frozenset())
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
    `link_document` call; article vectors live on the KB's memo."""

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
        self.tokens = tokenize(doc.text, get_normalizer(kb.normalizer))
        self.doc_terms = {t.text for t in self.tokens if t.text not in lists.stopwords}
        self._article_vectors = kb.article_vectors.setdefault(lists.stopwords, {})

    def apply_filters(
        self, mention: Mention, candidates: frozenset[str] | set[str]
    ) -> tuple[set[str], dict[str, float]]:
        kb, lists, cfg = self.kb, self.lists, self.cfg
        kept = set(candidates)

        # Type check: only when the mention carries a usable type and the
        # mapping has an opinion about it.
        if cfg.type_filter and mention.ner_type not in (None, NerType.UNKNOWN):
            allowed = lists.type_mapping.get(mention.ner_type)
            if allowed is not None:
                kept = {c for c in kept if kb.entities[c].kb_class in allowed}

        # POS check: UNKNOWN on either side keeps the candidate.
        if cfg.pos_filter and mention.pos_tag not in (None, PosCategory.UNKNOWN):
            kept = {
                c
                for c in kept
                if kb.entities[c].pos_category in (mention.pos_tag, PosCategory.UNKNOWN)
            }

        # Popularity: the manually curated rare list, whether shipped as a
        # blocklist or as per-record flags in the dump.
        if cfg.popularity_filter:
            kept = {
                c for c in kept if c not in lists.rare_blocklist and not kb.entities[c].rare
            }

        penalties = {c: 1.0 for c in kept}

        # Class-specific evidence: generic names (artwork titles and the like)
        # keep their full rate only when a trigger term appears in the document.
        if cfg.class_filter:
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
        ctx = _context_terms(self.tokens, mention, self.lists.stopwords)
        vector = _tfidf_vector(ctx, self.kb)
        return vector, _vector_norm(vector)

    def context_score(self, mention: Mention, entity: EntityRecord) -> float:
        return _cosine(*self.context_vector(mention), *self.article_vector(entity))

    def rank(
        self,
        mention_index: int,
        doc_candidates: Mapping[int, frozenset[str] | set[str]],
        penalties: Mapping[str, float],
    ) -> LinkResult:
        mention = self.doc.mentions[mention_index]
        graph_scores = _graph_scores(self.kb, mention_index, doc_candidates)
        context = self.context_vector(mention)
        scored = []
        for entity_id in sorted(doc_candidates.get(mention_index, ())):
            ctx = _cosine(*context, *self.article_vector(self.kb.entities[entity_id]))
            graph = graph_scores[entity_id]
            penalty = penalties.get(entity_id, 1.0)
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


def context_score(
    kb: KnowledgeBase,
    lists: ReferenceLists,
    doc: Document,
    mention: Mention,
    entity: EntityRecord,
) -> float:
    """TF-IDF cosine between the mention's context and the entity article.

    TF is the raw term count; IDF(t) = ln((1 + N) / (1 + df(t))) + 1 over
    the knowledge base's article collection. Empty context or empty
    article yields 0.
    """
    return _DocScorer(kb, lists, LinkerConfig(), doc).context_score(mention, entity)


def graph_score(
    kb: KnowledgeBase,
    candidate: str,
    mention_index: int,
    doc_candidates: Mapping[int, frozenset[str] | set[str]],
) -> float:
    """Distinct candidates of other mentions linked to `candidate`,
    normalized by the best raw count among this mention's candidates."""
    if candidate not in doc_candidates.get(mention_index, ()):
        raise ValueError(f"{candidate!r} is not a candidate of mention {mention_index}")
    return _graph_scores(kb, mention_index, doc_candidates)[candidate]


def rank_and_select(
    kb: KnowledgeBase,
    lists: ReferenceLists,
    cfg: LinkerConfig,
    doc: Document,
    mention_index: int,
    doc_candidates: Mapping[int, frozenset[str] | set[str]],
    penalties: Mapping[str, float] | None = None,
) -> LinkResult:
    """Score one mention's kept candidates and pick the winner or NIL.

    Ties on the combined score go to the lowest entity id. With an empty
    candidate set, or a top score below the NIL threshold, the decision is
    NIL and every scored candidate lands on the ambiguity list.
    """
    return _DocScorer(kb, lists, cfg, doc).rank(mention_index, doc_candidates, penalties or {})


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
        candidates = generate_candidates(kb, mention)
        doc_candidates[i], penalties_by_mention[i] = scorer.apply_filters(mention, candidates)
    return [
        scorer.rank(i, doc_candidates, penalties_by_mention[i])
        for i in range(len(doc.mentions))
    ]
