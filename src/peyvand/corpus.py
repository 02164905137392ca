"""Annotated documents, prediction records and corpus statistics.

Corpus files are UTF-8 JSON lines:

    {"id": ..., "category": ..., "text": ...,
     "mentions": [{"start": 0, "end": 5, "surface": ...,
                   "ner_type"?: ..., "pos"?: ..., "gold"?: id-or-null}]}

`gold` carries three states: an entity id, JSON null for an explicit
"no KB entry exists" annotation, and an absent key for "not annotated".
Prediction files share the shape, with `gold` replaced by `prediction`
plus `score` and `ambiguity`, and are read by the same document loop under
the same rules. A key outside these shapes is an error, and so is any broken
rule: an `InputError` that names the file and the line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence, TYPE_CHECKING

from .errors import InputError
from .kb import KnowledgeBase, NerType, PosCategory, key_error, lookup_alias, read_json_lines
from .textnorm import persian_normalize, terms

if TYPE_CHECKING:  # pragma: no cover
    from .linker import LinkResult


class _Nil(Enum):
    """Singleton marking an explicit unlinkable annotation or decision."""

    NIL = "NIL"

    def __repr__(self) -> str:
        return "NIL"

    __str__ = __repr__


NIL = _Nil.NIL


@dataclass(frozen=True)
class Mention:
    start: int
    end: int
    surface: str
    ner_type: NerType | None = None
    pos_tag: PosCategory | None = None
    gold: str | _Nil | None = None


@dataclass
class Document:
    """Mentions are `Mention`s in a corpus, `PredictedMention`s in a prediction file."""

    id: str
    category: str
    text: str
    mentions: list[Mention | PredictedMention] = field(default_factory=list)


@dataclass(frozen=True)
class RankedCandidate:
    entity_id: str
    score: float


@dataclass(frozen=True)
class PredictedMention:
    start: int
    end: int
    surface: str
    prediction: str | _Nil
    score: float
    ambiguity: tuple[RankedCandidate, ...]
    ner_type: NerType | None = None
    pos_tag: PosCategory | None = None


def _validate_mentions(doc: Document, path: str | Path, line_no: int) -> None:
    for i, m in enumerate(doc.mentions):
        if not (0 <= m.start < m.end <= len(doc.text)):
            reason = f"span [{m.start}, {m.end}) out of bounds"
        elif doc.text[m.start : m.end] != m.surface:
            reason = "surface does not equal the text slice"
        else:
            continue
        raise InputError(path, line_no, f"document {doc.id!r}, mention {i}: {reason}")
    spans = sorted((m.start, m.end) for m in doc.mentions)
    for (_, prev_end), (nxt_start, _) in zip(spans, spans[1:]):
        if nxt_start < prev_end:
            raise InputError(path, line_no, f"document {doc.id!r} has overlapping mentions")


_DOCUMENT_KEYS = ("id", "category", "text", "mentions")
_MENTION_KEYS = ("start", "end", "surface")
_CORPUS_MENTION_KEYS = frozenset((*_MENTION_KEYS, "ner_type", "pos", "gold"))
_PREDICTION_KEYS = (*_MENTION_KEYS, "prediction", "score", "ambiguity")
_PREDICTION_MENTION_KEYS = frozenset((*_PREDICTION_KEYS, "ner_type", "pos"))
_RANKED_KEYS = ("id", "score")


def _parse_mention(
    obj: object,
    path: str | Path,
    line_no: int,
    required: tuple[str, ...] = _MENTION_KEYS,
    allowed: frozenset[str] = _CORPUS_MENTION_KEYS,
) -> Mention:
    if reason := key_error(obj, "mention", required, allowed):
        raise InputError(path, line_no, reason)
    if type(obj["start"]) is not int or type(obj["end"]) is not int:
        raise InputError(path, line_no, "mention offsets must be integers")
    if not isinstance(obj["surface"], str):
        raise InputError(path, line_no, "mention surface must be a string")
    ner = obj.get("ner_type")
    pos = obj.get("pos")
    try:
        ner_type = NerType(ner) if ner is not None else None
        pos_tag = PosCategory(pos) if pos is not None else None
    except ValueError as exc:
        raise InputError(path, line_no, str(exc)) from None
    if "gold" in obj:
        raw_gold = obj["gold"]
        if raw_gold is None:
            gold: str | _Nil | None = NIL
        elif isinstance(raw_gold, str) and raw_gold:
            gold = raw_gold
        else:
            raise InputError(path, line_no, "gold must be an entity id or null")
    else:
        gold = None
    return Mention(obj["start"], obj["end"], obj["surface"], ner_type, pos_tag, gold)


def _read_documents(
    path: str | Path,
    parse_mention: Callable[[object, str | Path, int], Mention | PredictedMention],
) -> list[Document]:
    """Every document of a corpus or prediction file, with each mention read by
    `parse_mention`; a broken rule is an `InputError` naming the line."""
    docs: list[Document] = []
    seen: set[str] = set()
    for line_no, obj in read_json_lines(path):
        if reason := key_error(obj, "document", _DOCUMENT_KEYS):
            raise InputError(path, line_no, reason)
        doc_id, category, text = obj["id"], obj["category"], obj["text"]
        if not isinstance(doc_id, str) or not doc_id:
            raise InputError(path, line_no, "id must be a non-empty string")
        if not isinstance(category, str) or not isinstance(text, str):
            raise InputError(path, line_no, "category and text must be strings")
        if doc_id in seen:
            raise InputError(path, line_no, f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        if not isinstance(obj["mentions"], list):
            raise InputError(path, line_no, "mentions must be an array")
        mentions = [parse_mention(m, path, line_no) for m in obj["mentions"]]
        docs.append(Document(doc_id, category, text, mentions))
        _validate_mentions(docs[-1], path, line_no)
    return docs


def load_corpus(path: str | Path) -> list[Document]:
    return _read_documents(path, _parse_mention)


def _mention_to_obj(m: Mention) -> dict:
    """Span, surface, type and POS, as corpus and prediction files write them."""
    obj: dict = {"start": m.start, "end": m.end, "surface": m.surface}
    if m.ner_type is not None:
        obj["ner_type"] = m.ner_type.value
    if m.pos_tag is not None:
        obj["pos"] = m.pos_tag.value
    return obj


def _document_line(doc: Document, mentions: list[dict]) -> str:
    """A document's file line, given its mentions in file shape."""
    record = {"id": doc.id, "category": doc.category, "text": doc.text, "mentions": mentions}
    return json.dumps(record, ensure_ascii=False) + "\n"


def save_corpus(docs: Iterable[Document], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            mentions = []
            for m in doc.mentions:
                obj = _mention_to_obj(m)
                if m.gold is not None:
                    obj["gold"] = None if isinstance(m.gold, _Nil) else m.gold
                mentions.append(obj)
            fh.write(_document_line(doc, mentions))


def write_predictions(
    docs: Sequence[Document],
    results: Sequence[Sequence["LinkResult"]],
    path: str | Path,
) -> None:
    """Serialize one prediction record per document, in input order."""
    if len(docs) != len(results):
        raise ValueError("one result list per document required")
    with open(path, "w", encoding="utf-8") as fh:
        for doc, doc_results in zip(docs, results):
            if len(doc.mentions) != len(doc_results):
                raise ValueError(f"document {doc.id!r}: one result per mention required")
            mentions = []
            for mention, res in zip(doc.mentions, doc_results):
                obj = _mention_to_obj(mention)
                obj["prediction"] = None if isinstance(res.decision, _Nil) else res.decision
                obj["score"] = res.score
                obj["ambiguity"] = [
                    {"id": c.entity_id, "score": c.combined} for c in res.ambiguity
                ]
                mentions.append(obj)
            fh.write(_document_line(doc, mentions))


def _parse_prediction(obj: object, path: str | Path, line_no: int) -> PredictedMention:
    mention = _parse_mention(obj, path, line_no, _PREDICTION_KEYS, _PREDICTION_MENTION_KEYS)
    prediction, score, ambiguity = obj["prediction"], obj["score"], obj["ambiguity"]
    if prediction is not None and not (isinstance(prediction, str) and prediction):
        raise InputError(path, line_no, "prediction must be an entity id or null")
    if type(score) not in (int, float):
        raise InputError(path, line_no, "score must be a number")
    if not isinstance(ambiguity, list):
        raise InputError(path, line_no, "ambiguity must be an array of {id, score} objects")
    for c in ambiguity:
        if reason := key_error(c, "ambiguity entry", _RANKED_KEYS):
            raise InputError(path, line_no, reason)
        if not (isinstance(c["id"], str) and c["id"]) or type(c["score"]) not in (int, float):
            raise InputError(path, line_no, "ambiguity must be an array of {id, score} objects")
    try:
        ranked = tuple(RankedCandidate(c["id"], float(c["score"])) for c in ambiguity)
        score = float(score)
    except OverflowError:
        raise InputError(path, line_no, "score too large for a float") from None
    return PredictedMention(
        mention.start, mention.end, mention.surface, NIL if prediction is None else prediction,
        score, ranked, mention.ner_type, mention.pos_tag,
    )


def load_predictions(path: str | Path) -> list[Document]:
    """A prediction file, under the corpus rules; mentions are `PredictedMention`s."""
    return _read_documents(path, _parse_prediction)


@dataclass(frozen=True)
class CorpusStats:
    documents: int
    sentences: int
    words: int
    entities: int
    candidates: int
    words_per_article: float
    entities_per_article: float
    candidates_per_mention: float


_SENTENCE_BREAK = re.compile(r"[.!?؟\n]")


def count_sentences(text: str) -> int:
    """Approximate sentence count: split on ., !, ?, ؟ and newline."""
    return sum(1 for part in _SENTENCE_BREAK.split(text) if part.strip())


def corpus_stats(docs: Sequence[Document], kb: KnowledgeBase) -> CorpusStats:
    """Dataset-level counts; candidates are pre-filter alias matches."""
    documents = len(docs)
    sentences = sum(count_sentences(d.text) for d in docs)
    words = sum(len(terms(d.text, persian_normalize)) for d in docs)
    entities = sum(len(d.mentions) for d in docs)
    candidates = sum(
        len(lookup_alias(kb, m.surface)) for d in docs for m in d.mentions
    )

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return CorpusStats(
        documents=documents,
        sentences=sentences,
        words=words,
        entities=entities,
        candidates=candidates,
        words_per_article=ratio(words, documents),
        entities_per_article=ratio(entities, documents),
        candidates_per_mention=ratio(candidates, entities),
    )


def stats_by_category(docs: Sequence[Document], kb: KnowledgeBase) -> dict[str, CorpusStats]:
    categories = sorted({d.category for d in docs})
    return {
        cat: corpus_stats([d for d in docs if d.category == cat], kb) for cat in categories
    }
