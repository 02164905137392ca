"""The linking pipeline: candidates, filters, scoring, NIL abstention.

`link_document` is one function. It first runs the type, POS and
popularity filters that the config turns on, in `FILTERS` order, in one
pass over each mention's alias candidates. A document in which no mention
keeps a candidate is not tokenized: each mention is NIL. Otherwise the
document is tokenized once, and each kept candidate gets its penalty from
the class-specific evidence filter. Every mention's kept map is built
before any is scored, because the graph score is collective. It then
scores each mention's kept candidates with

    combined = penalty * (lambda * context + (1 - lambda) * graph)

where `context` is the TF-IDF cosine between the candidate's article and
the whole document minus the tokens that touch the mention, and `graph`
is the count of distinct candidates of the document's other mentions that
link to the candidate or that it links to, divided by the highest such
count among the mention's candidates (0 when that is 0).
The top candidate wins unless its combined score falls below the NIL
threshold; rejected candidates are kept on a ranked ambiguity list, by
combined score and then by entity id. Candidates are named tuples, so
each costs one tuple to build.

The document's terms are counted and weighted once, up front. Each
mention's context vector is a copy of that vector with the terms of its
touched tokens patched: a term left with no count goes, one that also
occurs before the span gets its new weight in place. The terms keep the
order of their first occurrence in the context, because the norm and the
cosine sum in that order and another order would round differently. A
touched term that first occurs in the span and recurs after it moves in
that order, so then the patched vector is re-keyed by the context's
distinct words, in order. That is exact: after patching, each term of the
context holds its context count times its IDF, the same product that a
fresh count would give, and only the order was off. Both sums are
explicit left-to-right loops, not `sum()`, which compensates its rounding
from Python 3.12 on, so the scores are the same bits on every supported
Python.

The document's candidate graph is built once too, up front:
each kept candidate's neighbours among all kept candidates, either way.

An article's vector is built on the first use of its entity and kept in
`kb.article_vectors`. The knowledge base stores each article as its bag:
its distinct terms outside the stopwords, in order of first occurrence,
each with its count. Those are the counts, in the same order, that
`Counter` gives of the article's terms once the stopwords are dropped, so
the vector equals `_tfidf(Counter(terms))` item for item and in order,
and so do its norm and every cosine, to the bit. A record holds its bag
undecoded, and `kb.read_bag` decodes it on that first use and checks its
shape, so an article that no mention scores is never decoded. Every
stored term is a `doc_freq` key, because the frequencies are counted
from the bags. Building the vector checks the rest for free: a term that
is no `doc_freq` key fails its lookup, a repeated term leaves the vector
shorter than the terms, and counts too large to weigh leave no finite
norm. Such a bag was edited after the build, and linking fails instead
of weighing a term with df 0 or scoring with an infinite norm, with the
error that `cache.bag_error` builds.

Above a NIL threshold of 1 every mention abstains, so its ambiguity list
holds each kept candidate with its context score, graph score and penalty;
the tests check each stage that way.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from operator import itemgetter
from typing import Mapping, NamedTuple

from .errors import InputError, PeyvandError
from .cache import bag_error
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
    read_bag,
)
from .textnorm import tokenize


# The heuristic filters in the order they run and in the config's key order.
FILTERS = ("type", "pos", "popularity", "class")

# Keys that bisect a document's `(text, start, end)` tokens by offset.
_START, _END = itemgetter(1), itemgetter(2)


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


class ScoredCandidate(NamedTuple):
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


# The result of a mention that keeps no candidate. It is immutable, so all share it.
_NO_CANDIDATE = LinkResult(NIL, 0.0, ())
_COMBINED = itemgetter(4)  # `ScoredCandidate.combined`


def _tfidf(counts: Mapping[str, int], kb: KnowledgeBase) -> dict[str, float]:
    """The TF-IDF vector of the terms of `counts` outside `kb.stopwords`, in
    the order of `counts`: raw term count times the smoothed IDF,
    ln((1 + N) / (1 + df)) + 1, which `kb.idf` holds by document frequency."""
    idf, doc_freq, stopwords = kb.idf, kb.doc_freq, kb.stopwords
    return {t: n * idf[doc_freq.get(t, 0)] for t, n in counts.items() if t not in stopwords}


def _norm(vector: Mapping[str, float]) -> float:
    # Summed left to right in the vector's order, as `_cosine` sums, so a
    # vector in another term order, or a 3.12+ `sum()`, would round differently.
    total = 0.0
    for w in vector.values():
        total += w * w
    return math.sqrt(total)


def _context(
    words: list[str],
    a: int,
    b: int,
    counts: Counter[str],
    doc_vector: dict[str, float],
    kb: KnowledgeBase,
) -> dict[str, float]:
    """The TF-IDF vector of `words` without `words[a:b]`, term for term and
    in the order `_tfidf(Counter(...))` gives: the document's `doc_vector`,
    built from its `counts`, with each touched term's weight patched in
    place and, when a touched term moves in that order, re-keyed in the
    order of the context's words."""
    if a == b:
        return doc_vector
    idf, doc_freq, stopwords = kb.idf, kb.doc_freq, kb.stopwords
    vector = doc_vector.copy()
    touched = words[a:b]
    moved = False
    for t in touched:
        if t in stopwords:
            continue
        n = counts[t] - touched.count(t)
        if not n:
            vector.pop(t, None)  # `touched` may hold `t` twice
        else:
            vector[t] = n * idf[doc_freq.get(t, 0)]
            # `t` moves if it first occurs in the span, since it recurs after it.
            moved = moved or words.index(t) >= a
    if moved:
        return {t: vector[t] for t in dict.fromkeys(words[:a] + words[b:]) if t in vector}
    return vector


def _cosine(a: Mapping[str, float], norm_a: float, b: Mapping[str, float], norm_b: float) -> float:
    # Sums over the smaller vector in its term order: `_context` keeps that
    # order so that a patched context vector gives the same float.
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b, norm_a, norm_b = b, a, norm_b, norm_a
    dot = 0.0
    for t, w in a.items():
        if t in b:
            dot += w * b[t]
    # Weights are counts times IDFs of at least 1, so both norms are >= 1.
    return dot / (norm_a * norm_b)


def _article_vector(
    kb: KnowledgeBase, entity_id: str, record: EntityRecord
) -> tuple[dict[str, float], float]:
    """The TF-IDF vector and norm of the entity's article bag, which
    `read_bag` decodes and checks here, each distinct term interned once,
    so that the vectors of all articles share one string per term. A bag
    that `read_bag` refuses, a term that `kb.doc_freq` does not hold, a
    repeated term, or counts too large to weigh to a finite norm raise
    `bag_error`: the stored article was edited."""
    try:
        terms, counts = read_bag(record.bag)
    except ValueError as exc:
        raise bag_error(kb, entity_id, str(exc)) from None
    idf, doc_freq = kb.idf, kb.doc_freq
    try:
        weights = {sys.intern(t): n * idf[doc_freq[t]] for t, n in zip(terms, counts)}
    except KeyError as exc:
        reason = f"stored article term {exc.args[0]!r} has no document frequency"
        raise bag_error(kb, entity_id, reason) from None
    except OverflowError:  # a count too large to convert to a float
        norm = math.inf
    else:
        # A weight whose square overflows makes the norm infinite, not an error.
        norm = _norm(weights)
    if norm == math.inf:
        raise bag_error(kb, entity_id, "stored article counts are too large to weigh")
    if len(weights) != len(terms):
        repeated = next(t for i, t in enumerate(terms) if t in terms[:i])
        raise bag_error(kb, entity_id, f"stored article repeats the term {repeated!r}")
    return weights, norm


def _kept(
    kb: KnowledgeBase, lists: ReferenceLists, cfg: LinkerConfig, mention: Mention
) -> dict[str, EntityRecord]:
    """The mention's alias candidates that survive the type, POS and
    popularity filters of `cfg`, tested in `FILTERS` order, each with its
    record."""
    # Type check: only when the mention carries a usable type and the
    # mapping has an opinion about it.
    types = None
    if "type" in cfg.filters and mention.ner_type not in (None, NerType.UNKNOWN):
        types = lists.type_mapping.get(mention.ner_type)
    # POS check: UNKNOWN on either side keeps the candidate.
    pos = None
    if "pos" in cfg.filters and mention.pos_tag not in (None, PosCategory.UNKNOWN):
        pos = (mention.pos_tag, PosCategory.UNKNOWN)
    # Popularity: the manually curated rare list, whether shipped as a
    # blocklist or as per-record flags in the dump.
    popularity = "popularity" in cfg.filters
    kept = {}
    for c in lookup_alias(kb, mention.surface):
        record = kb.entities[c]
        if (
            (types is None or record.kb_class in types)
            and (pos is None or record.pos_category in pos)
            and not (popularity and (record.rare or c in lists.rare_blocklist))
        ):
            kept[c] = record
    return kept


def _link_graph(kb: KnowledgeBase, kept: list[dict]) -> tuple[set[str], dict[str, set[str]]]:
    """The candidates that more than one mention keeps, and each kept
    candidate's neighbours among the kept candidates, linked either way."""
    union, shared = set(), set()
    for cands in kept:
        shared.update(union.intersection(cands))
        union.update(cands)
    # `union` first, so each neighbour set is a `set` that can grow.
    neighbours = {c: union & kb.entities[c].out_links for c in union}
    for c, linked in neighbours.items():
        # Never grows `linked` itself: `o` is `c` only for a self-link.
        for o in linked:
            neighbours[o].add(c)
    return shared, neighbours


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
    lam = cfg.lambda_weight
    kept = [_kept(kb, lists, cfg, mention) for mention in doc.mentions]
    if not any(kept):
        return [_NO_CANDIDATE] * len(kept)
    tokens = tokenize(doc.text)
    words = [t for t, _, _ in tokens]
    counts = Counter(words)
    doc_vector = _tfidf(counts, kb)
    shared, neighbours = _link_graph(kb, kept)
    class_filters = lists.class_filters if "class" in cfg.filters else {}
    article_vectors = kb.article_vectors
    results = []
    for mention, candidates in zip(doc.mentions, kept):
        if not candidates:
            results.append(_NO_CANDIDATE)
            continue
        # Class-specific evidence: generic names (artwork titles and the like) keep their
        # full rate only when a non-stopword trigger term is in the document (`doc_vector`).
        own = {}
        for c, record in candidates.items():
            class_filter = class_filters.get(record.kb_class)
            missing = class_filter is not None and class_filter.triggers.isdisjoint(doc_vector)
            own[c] = class_filter.penalty if missing else 1.0
        # Count the neighbours that another mention keeps: all but those
        # that only this mention keeps.
        mine = own.keys() - shared
        linked = {c: len(neighbours[c]) - len(neighbours[c] & mine) for c in own}
        max_linked = max(linked.values())
        # Tokens a..b-1 touch the mention span: they end after its start and
        # start before its end.
        a = bisect_right(tokens, mention.start, key=_END)
        b = bisect_left(tokens, mention.end, lo=a, key=_START)
        vector = _context(words, a, b, counts, doc_vector, kb)
        context = vector, _norm(vector)
        scored = []
        for entity_id in sorted(own):
            article = article_vectors.get(entity_id)
            if article is None:
                article = article_vectors[entity_id] = _article_vector(
                    kb, entity_id, candidates[entity_id]
                )
            ctx = _cosine(*context, *article)
            graph = linked[entity_id] / max_linked if max_linked else 0.0
            penalty = own[entity_id]
            combined = penalty * (lam * ctx + (1.0 - lam) * graph)
            scored.append(ScoredCandidate(entity_id, ctx, graph, penalty, combined))
        # Stable, and `scored` is in id order: a tie goes to the lowest id.
        scored.sort(key=_COMBINED, reverse=True)
        top = scored[0]
        if top.combined < cfg.nil_threshold:
            results.append(LinkResult(NIL, top.combined, tuple(scored)))
        else:
            results.append(LinkResult(top.entity_id, top.combined, tuple(scored[1:])))
    return results
