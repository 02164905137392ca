"""The linking pipeline: candidates, filters, scoring, NIL abstention.

`link_document` is one function. It tokenizes the document once, then
builds every mention's kept map, because the graph score is collective:
the alias candidates that survive the filters of `FILTERS` that the config
turns on (type, POS, popularity, class-specific evidence), each with its
penalty. It then scores each mention's kept candidates with

    combined = penalty * (lambda * context + (1 - lambda) * graph)

where `context` is the TF-IDF cosine between the candidate's article and
the whole document minus the tokens that touch the mention, and `graph`
is the min-max-normalized count of distinct candidates of the document's
other mentions whose articles link to the candidate (either direction).
The top candidate wins unless its combined score falls below the NIL
threshold; rejected candidates are kept on a ranked ambiguity list.

Above a NIL threshold of 1 every mention abstains, so its ambiguity list
holds each kept candidate with its context score, graph score and penalty;
the tests check each stage that way.
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
    decision: str | _Nil
    score: float
    ambiguity: tuple[ScoredCandidate, ...]


def _tfidf(words: Sequence[str], kb: KnowledgeBase) -> tuple[dict[str, float], float]:
    """The TF-IDF vector of `words` and its norm: raw term count times the
    smoothed IDF, ln((1 + N) / (1 + df)) + 1, which `kb.idf` holds by
    document frequency."""
    idf, doc_freq = kb.idf, kb.doc_freq
    vector = {term: count * idf[doc_freq.get(term, 0)] for term, count in Counter(words).items()}
    return vector, math.sqrt(sum(w * w for w in vector.values()))


def _cosine(a: Mapping[str, float], norm_a: float, b: Mapping[str, float], norm_b: float) -> float:
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b, norm_a, norm_b = b, a, norm_b, norm_a
    # Weights are counts times IDFs of at least 1, so both norms are >= 1.
    return sum(w * b[t] for t, w in a.items() if t in b) / (norm_a * norm_b)


def _kept(
    kb: KnowledgeBase,
    lists: ReferenceLists,
    cfg: LinkerConfig,
    mention: Mention,
    doc_terms: set[str],
) -> dict[str, float]:
    """The mention's alias candidates that survive the filters of `cfg`, in
    `FILTERS` order, each with its penalty: 1.0 unless a class filter fired."""
    kept = lookup_alias(kb, mention.surface)

    # Type check: only when the mention carries a usable type and the
    # mapping has an opinion about it.
    if "type" in cfg.filters and mention.ner_type not in (None, NerType.UNKNOWN):
        allowed = lists.type_mapping.get(mention.ner_type)
        if allowed is not None:
            kept = {c for c in kept if kb.entities[c].kb_class in allowed}

    # POS check: UNKNOWN on either side keeps the candidate.
    if "pos" in cfg.filters and mention.pos_tag not in (None, PosCategory.UNKNOWN):
        allowed = (mention.pos_tag, PosCategory.UNKNOWN)
        kept = {c for c in kept if kb.entities[c].pos_category in allowed}

    # Popularity: the manually curated rare list, whether shipped as a
    # blocklist or as per-record flags in the dump.
    if "popularity" in cfg.filters:
        kept = {c for c in kept if c not in lists.rare_blocklist and not kb.entities[c].rare}

    penalties = dict.fromkeys(kept, 1.0)

    # Class-specific evidence: generic names (artwork titles and the like)
    # keep their full rate only when a trigger term appears in the document.
    if "class" in cfg.filters:
        for c in penalties:
            class_filter = lists.class_filters.get(kb.entities[c].kb_class)
            if class_filter is not None and not (class_filter.triggers & doc_terms):
                penalties[c] = class_filter.penalty

    return penalties


def _graph_scores(kb: KnowledgeBase, i: int, kept: list[dict[str, float]]) -> dict[str, float]:
    """Graph score of each kept candidate of mention `i`: its count of distinct
    linked candidates of other mentions over the mention's best count."""
    # A real set: intersecting `out_links` with a dict's keys view is slower.
    own = set(kept[i])
    others = set().union(*(cands for j, cands in enumerate(kept) if j != i))
    linked = {c: others & kb.entities[c].out_links for c in own}
    for o in others:
        for c in kb.entities[o].out_links & own:
            linked[c].add(o)
    raw = {c: len(linked[c]) for c in sorted(own)}
    max_raw = max(raw.values(), default=0)
    return {c: n / max_raw if max_raw else 0.0 for c, n in raw.items()}


def link_document(
    kb: KnowledgeBase,
    lists: ReferenceLists,
    cfg: LinkerConfig,
    doc: Document,
) -> list[LinkResult]:
    """One result per mention, the i-th for the i-th. Ties on the combined
    score go to the lowest entity id; with no kept candidate, or a top
    score below the NIL threshold, the decision is NIL and every scored
    candidate is on the ambiguity list."""
    stopwords, lam = lists.stopwords, cfg.lambda_weight
    tokens = tokenize(doc.text)
    doc_terms = {t for t, _, _ in tokens if t not in stopwords}
    kept = [_kept(kb, lists, cfg, mention, doc_terms) for mention in doc.mentions]
    article_vectors = kb.article_vectors.setdefault(stopwords, {})
    results = []
    for i, mention in enumerate(doc.mentions):
        if not kept[i]:
            results.append(LinkResult(NIL, 0.0, ()))
            continue
        graph_scores = _graph_scores(kb, i, kept)
        # Every token that does not touch the mention span, in document order.
        start, end = mention.start, mention.end
        ctx_terms = [t for t, s, e in tokens if (e <= start or s >= end) and t not in stopwords]
        context = _tfidf(ctx_terms, kb)
        scored = []
        for entity_id in sorted(kept[i]):
            article = article_vectors.get(entity_id)
            if article is None:
                words = terms(kb.entities[entity_id].article_text, kb.normal_forms.__getitem__)
                article = article_vectors[entity_id] = _tfidf(
                    [t for t in words if t not in stopwords], kb
                )
            ctx = _cosine(*context, *article)
            graph = graph_scores[entity_id]
            penalty = kept[i][entity_id]
            combined = penalty * (lam * ctx + (1.0 - lam) * graph)
            scored.append(ScoredCandidate(entity_id, ctx, graph, penalty, combined))
        scored.sort(key=lambda c: (-c.combined, c.entity_id))
        top = scored[0]
        if top.combined < cfg.nil_threshold:
            results.append(LinkResult(NIL, top.combined, tuple(scored)))
        else:
            results.append(LinkResult(top.entity_id, top.combined, tuple(scored[1:])))
    return results
