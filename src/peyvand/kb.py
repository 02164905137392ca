"""Knowledge-base dump loading, alias indexing and the entity link graph.

A dump is UTF-8 JSON lines, one entity per line:

    {"id": ..., "label": ..., "variants": [...], "class": ..., "ner_type": ...,
     "pos": ..., "article": ..., "links": [...], "rare": false}

A knowledge base keeps each article as its bag of terms: its distinct
normalized terms outside the stopwords, in order of first occurrence,
each with its count. The index writes a record in the dump's shape with
that bag as its article, `["t1 t2", [2, 1]]`, and reads it back through
the same record reader.

Reference lists live in a single JSON file: the filter lists `rare_blocklist`,
`class_filters` and `type_mapping`, and the knowledge base's `stopwords`.

Every reader in the package decodes its files with `decode_json` and checks
each object's keys with `key_error`; a key outside the shape is an error.
A malformed file raises `errors.InputError` naming the file and the line.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import filterfalse
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import InputError
from .textnorm import NormalForms, persian_normalize, terms


class NerType(str, Enum):
    PER = "PER"
    LOC = "LOC"
    ORG = "ORG"
    WORK = "WORK"
    OTHER = "OTHER"
    UNKNOWN = "UNKNOWN"


class PosCategory(str, Enum):
    PROPER_NOUN = "PROPER_NOUN"
    COMMON_NOUN = "COMMON_NOUN"
    OTHER = "OTHER"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class EntityRecord:
    """One entity. Its article is a bag of terms: `article_text` holds the
    article's distinct normalized terms outside the stopwords, in order of
    first occurrence, joined by single spaces, and `article_counts` holds
    how often each occurs, so that `zip(article_text.split(),
    article_counts)` gives the article's term counts in order."""

    id: str
    canonical_label: str
    variant_labels: frozenset[str]
    kb_class: str
    ner_type: NerType
    pos_category: PosCategory
    article_text: str
    article_counts: tuple[int, ...]
    out_links: frozenset[str]
    rare: bool = False


@dataclass(frozen=True)
class ClassFilter:
    """Extra-evidence requirement for one fine class: if none of the trigger
    terms occurs in the document, the candidate keeps only `penalty` of its
    score."""

    triggers: frozenset[str]
    penalty: float


@dataclass(frozen=True)
class ReferenceLists:
    rare_blocklist: frozenset[str]
    class_filters: dict[str, ClassFilter]
    type_mapping: dict[NerType, frozenset[str]]


class IdfTable(dict):
    """Smoothed IDF by document frequency over `doc_count` articles,
    ln((1 + N) / (1 + df)) + 1, computed on first use of each df."""

    def __init__(self, doc_count: int):
        super().__init__()
        self.doc_count = doc_count

    def __missing__(self, df: int) -> float:
        value = self[df] = math.log((1 + self.doc_count) / (1 + df)) + 1.0
        return value


@dataclass
class KnowledgeBase:
    """Immutable after load apart from two memos that `linker.link_document`
    fills on first use. `stopwords` are the terms that `doc_freq` leaves out
    and that no vector holds; they are fixed when the KB is built.

    - `idf` maps a document frequency to its IDF weight. It is bounded by
      the distinct df values, at most `doc_count + 1` of them.
    - `article_vectors` holds each article's TF-IDF vector and norm, keyed
      by entity id. It is bounded by the entities.

    The memos are derived data, not part of the KB: they are never saved
    to the index, `==` ignores them and `dataclasses.replace` starts them
    empty.
    """

    entities: dict[str, EntityRecord]
    alias_index: dict[str, frozenset[str]]
    doc_count: int
    doc_freq: dict[str, int]
    stopwords: frozenset[str]
    idf: IdfTable = field(init=False, repr=False, compare=False)
    article_vectors: dict[str, tuple[dict[str, float], float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.idf = IdfTable(self.doc_count)


def decode_json(data: bytes, path: str | Path, line_no: int) -> object:
    """The JSON value of `data`, UTF-8 text that starts on line `line_no` of
    `path`. Every input file is decoded here. Bytes that are not UTF-8
    (reported by their offset in `data`), invalid JSON, nesting too deep to
    decode, integers too long to convert, the constants NaN and Infinity,
    floats too large to be finite and strings or keys that hold a lone
    surrogate, which no UTF-8 writer can encode, raise `InputError`."""
    try:
        text = data.decode("utf-8")
        value = _DECODER.decode(text)
    except UnicodeDecodeError as exc:
        line = line_no + data.count(b"\n", 0, exc.start)
        raise InputError(path, line, f"not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        # An error at the end of the input is on the last line that holds text.
        end = min(exc.pos, len(exc.doc.rstrip(" \t\n\r")))
        line = line_no + exc.doc.count("\n", 0, end)
        raise InputError(path, line, f"invalid JSON: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        raise InputError(path, line_no, f"invalid JSON: {exc}") from exc
    # UTF-8 text holds no surrogates, so only a `\u` escape can give one. Most
    # lines hold no backslash at all, and one character is the fastest search.
    if "\\" in text and ("\\ud" in text or "\\uD" in text):
        for escape in _ESCAPE.finditer(text):
            if escape[1]:
                line = line_no + text.count("\n", 0, escape.start())
                raise InputError(path, line, f"invalid JSON: lone surrogate {escape[0]}")
    return value


# An escape in valid JSON text: a surrogate pair, a lone surrogate (group 1)
# or any other; four hex digits follow each `\u`.
_ESCAPE = re.compile(r"\\(?:u[dD][89abAB]..\\u[dD][c-fC-F]..|(u[dD][89a-fA-F]..)|.)")


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_constant)


def json_lines(
    numbered: Iterable[tuple[int, bytes]], path: str | Path
) -> Iterator[tuple[int, object]]:
    """Line number and decoded value of each non-blank numbered line."""
    for line_no, line in numbered:
        if line.strip():
            yield line_no, decode_json(line, path, line_no)


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """Line number and decoded value of each non-blank line of a JSON-lines file."""
    with open(path, "rb") as fh:
        yield from json_lines(enumerate(fh, start=1), path)


def key_error(
    obj: object, what: str, required: Sequence[str], allowed: Collection[str] | None = None
) -> str | None:
    """Why `obj`, described as `what`, is not a JSON object that holds every
    key of `required` and no key outside `allowed` (by default `required`);
    None when it is. Every reader checks its objects' keys here."""
    if not isinstance(obj, dict):
        return f"{what} must be a JSON object"
    for key in required:
        if key not in obj:
            return f"{what} missing key {key!r}"
    unknown = obj.keys() - (required if allowed is None else allowed)
    return f"unknown keys in {what}: {sorted(unknown)}" if unknown else None


def load_reference_lists(path: str | Path) -> tuple[ReferenceLists, frozenset[str]]:
    """Load and validate a reference-lists file: its filter lists and stopwords."""
    return parse_reference_lists(decode_json(Path(path).read_bytes(), path, 1), path)


_LISTS_KEYS = ("rare_blocklist", "class_filters", "type_mapping", "stopwords")
_CLASS_FILTER_KEYS = ("triggers", "penalty")


def parse_reference_lists(
    data: object, path: str | Path, line: int | None = None
) -> tuple[ReferenceLists, frozenset[str]]:
    """Validate decoded reference lists; returns the filter lists and the
    stopwords. `path` and `line` name their source in errors.

    Trigger terms and stopwords are stored normalized so membership tests
    against normalized tokens are direct; normalizing is idempotent.
    """
    if reason := key_error(data, "reference lists", (), _LISTS_KEYS):
        raise InputError(path, line, reason)

    blocklist = data.get("rare_blocklist", [])
    if not isinstance(blocklist, list) or not all(isinstance(x, str) for x in blocklist):
        raise InputError(path, line, "rare_blocklist must be an array of entity ids")

    class_filters: dict[str, ClassFilter] = {}
    raw_filters = data.get("class_filters", {})
    if not isinstance(raw_filters, dict):
        raise InputError(path, line, "class_filters must be an object")
    for cls, spec in raw_filters.items():
        if reason := key_error(spec, f"class_filters[{cls!r}]", _CLASS_FILTER_KEYS):
            raise InputError(path, line, reason)
        penalty = spec["penalty"]
        if not isinstance(penalty, (int, float)) or not 0.0 < penalty < 1.0:
            reason = f"class_filters[{cls!r}].penalty must lie strictly between 0 and 1"
            raise InputError(path, line, reason)
        triggers = spec["triggers"]
        if not isinstance(triggers, list) or not all(isinstance(t, str) for t in triggers):
            raise InputError(path, line, f"class_filters[{cls!r}].triggers must be strings")
        class_filters[cls] = ClassFilter(
            frozenset(persian_normalize(t) for t in triggers), float(penalty)
        )

    type_mapping: dict[NerType, frozenset[str]] = {}
    raw_mapping = data.get("type_mapping", {})
    if not isinstance(raw_mapping, dict):
        raise InputError(path, line, "type_mapping must be an object")
    for key, classes in raw_mapping.items():
        try:
            ner = NerType(key)
        except ValueError:
            raise InputError(path, line, f"type_mapping key {key!r} is not a NER type") from None
        if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
            raise InputError(path, line, f"type_mapping[{key!r}] must be an array of classes")
        type_mapping[ner] = frozenset(classes)

    stopwords = data.get("stopwords", [])
    if not isinstance(stopwords, list) or not all(isinstance(w, str) for w in stopwords):
        raise InputError(path, line, "stopwords must be an array of strings")

    lists = ReferenceLists(frozenset(blocklist), class_filters, type_mapping)
    return lists, frozenset(persian_normalize(w) for w in stopwords)


def lists_to_obj(lists: ReferenceLists, stopwords: frozenset[str]) -> dict:
    """The lists file shape, sorted; `parse_reference_lists` reads it back."""
    return {
        "rare_blocklist": sorted(lists.rare_blocklist),
        "class_filters": {
            cls: {"triggers": sorted(f.triggers), "penalty": f.penalty}
            for cls, f in lists.class_filters.items()
        },
        "type_mapping": {ner.value: sorted(classes) for ner, classes in lists.type_mapping.items()},
        "stopwords": sorted(stopwords),
    }


_RECORD_KEYS = ("id", "label", "variants", "class", "ner_type", "pos", "article", "links")
_RECORD_ALLOWED = frozenset((*_RECORD_KEYS, "rare"))
_INT = {int}


def stored_article(value: object) -> tuple[str, tuple[int, ...]]:
    """The bag of an article that `record_to_obj` wrote: `[terms, counts]`,
    the terms joined by single spaces and one positive integer count per
    term. A value of another shape raises `ValueError`; a term that is
    repeated or empty is left to `linker.link_document` to refuse."""
    if type(value) is not list or len(value) != 2 or type(value[0]) is not str:
        raise ValueError("article must be an array of its terms and their counts")
    text, counts = value
    # JSON gives `bool` for true, which `type(n) is int` leaves out.
    if type(counts) is not list or (counts and (set(map(type, counts)) != _INT or min(counts) < 1)):
        raise ValueError("article counts must be an array of positive integers")
    stored = text.count(" ") + 1 if text else 0
    if len(counts) != stored:
        raise ValueError(f"article holds {stored} term(s) but {len(counts)} count(s)")
    return text, tuple(counts)


def parse_record(
    obj: object,
    path: str | Path,
    line_no: int,
    article: Callable[[object], tuple[str, tuple[int, ...]]] = stored_article,
) -> EntityRecord:
    """Validate one record; returns it with its out-links unresolved and
    its article the bag that `article` makes of the record's `article`
    value, or an error on the record's line with the reason of the
    `ValueError` that `article` raises. By default the value is a stored
    bag, as `record_to_obj` writes it."""
    if reason := key_error(obj, "record", _RECORD_KEYS, _RECORD_ALLOWED):
        raise InputError(path, line_no, reason)
    entity_id = obj["id"]
    label = obj["label"]
    if not isinstance(entity_id, str) or not entity_id:
        raise InputError(path, line_no, "id must be a non-empty string")
    if not isinstance(label, str) or not label:
        raise InputError(path, line_no, "label must be a non-empty string")
    variants = obj["variants"]
    if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
        raise InputError(path, line_no, "variants must be an array of strings")
    links = obj["links"]
    if not isinstance(links, list) or not all(isinstance(l, str) for l in links):
        raise InputError(path, line_no, "links must be an array of entity ids")
    if not isinstance(obj["class"], str):
        raise InputError(path, line_no, "class must be a string")
    try:
        text, counts = article(obj["article"])
    except ValueError as exc:
        raise InputError(path, line_no, str(exc)) from None
    try:
        ner = NerType(obj["ner_type"])
    except ValueError:
        raise InputError(path, line_no, f"ner_type {obj['ner_type']!r} is invalid") from None
    try:
        pos = PosCategory(obj["pos"])
    except ValueError:
        raise InputError(path, line_no, f"pos {obj['pos']!r} is invalid") from None
    rare = obj.get("rare", False)
    if not isinstance(rare, bool):
        raise InputError(path, line_no, "rare must be a boolean")
    return EntityRecord(
        id=entity_id,
        canonical_label=label,
        variant_labels=frozenset(variants),
        kb_class=obj["class"],
        ner_type=ner,
        pos_category=pos,
        article_text=text,
        article_counts=counts,
        out_links=frozenset(links),  # resolved by `build_kb`
        rare=rare,
    )


def record_to_obj(record: EntityRecord) -> dict:
    """The dump-line shape of a record, with its sets sorted and its article
    the bag `[terms, counts]` that `stored_article` reads."""
    return {
        "id": record.id,
        "label": record.canonical_label,
        "variants": sorted(record.variant_labels),
        "class": record.kb_class,
        "ner_type": record.ner_type.value,
        "pos": record.pos_category.value,
        "article": [record.article_text, list(record.article_counts)],
        "links": sorted(record.out_links),
        "rare": record.rare,
    }


def build_kb(
    records: Collection[EntityRecord], frequencies: dict[str, int], doc_count: int,
    stopwords: frozenset[str],
) -> tuple[KnowledgeBase, tuple[int, int]]:
    """Build a knowledge base from `parse_record` output, its articles'
    document frequencies, its count of non-empty articles and the
    stopwords that the frequencies leave out.

    Out-links that point outside the records or back at the entity
    itself are dropped; an incomplete dump subset is not an error. The
    second value counts them: the links outside, then the self-links. A
    link repeated in the dump is one out-link. An alias that normalizes
    to nothing is not indexed, so no surface can match it.
    """
    ids = {record.id for record in records}
    entities: dict[str, EntityRecord] = {}
    outside = self_links = 0
    for record in records:
        links = record.out_links
        if not links <= ids or record.id in links:
            outside += len(links - ids)
            self_links += record.id in links
            resolved = frozenset(l for l in links if l in ids and l != record.id)
            record = replace(record, out_links=resolved)
        entities[record.id] = record

    alias_sets: dict[str, set[str]] = {}
    for entity in entities.values():
        for alias in {entity.canonical_label, *entity.variant_labels}:
            if key := persian_normalize(alias):
                alias_sets.setdefault(key, set()).add(entity.id)

    kb = KnowledgeBase(
        entities=entities,
        alias_index={key: frozenset(members) for key, members in alias_sets.items()},
        doc_count=doc_count,
        doc_freq=frequencies,
        stopwords=stopwords,
    )
    return kb, (outside, self_links)


def read_records(
    lines: Iterable[tuple[int, object]],
    path: str | Path,
    article: Callable[[object], tuple[str, tuple[int, ...]]] = stored_article,
) -> Collection[EntityRecord]:
    """`parse_record` each numbered dump line, in order, with `article`; a
    repeated id is an `InputError` on the line that repeats it."""
    records: dict[str, EntityRecord] = {}
    for line_no, obj in lines:
        record = parse_record(obj, path, line_no, article)
        if record.id in records:
            raise InputError(path, line_no, f"duplicate entity id {record.id!r}")
        records[record.id] = record
    return records.values()


def load_kb(
    dump_path: str | Path, lists_path: str | Path
) -> tuple[KnowledgeBase, ReferenceLists, tuple[int, int]]:
    """Load a dump and its reference lists and build all indexes; the
    third value counts the dropped out-links as `build_kb` does."""
    lists, stopwords = load_reference_lists(lists_path)
    kb, dropped = read_dump(read_json_lines(dump_path), dump_path, stopwords)
    return kb, lists, dropped


def read_dump(
    lines: Iterable[tuple[int, object]], path: str | Path, stopwords: frozenset[str]
) -> tuple[KnowledgeBase, tuple[int, int]]:
    """The knowledge base of numbered dump lines and its dropped out-links,
    counted as `build_kb` does. Each article is tokenized and counted
    once, stopwords dropped, and its bag gives both the stored record and
    its share of `doc_freq`: the number of non-empty articles that hold
    each of its terms. `doc_count` counts the non-empty raw articles, so
    an article of punctuation or stopwords alone, stored as an empty bag,
    still counts."""
    # Articles repeat words, so normalize each distinct run once; the memo
    # lives only as long as this call.
    normal = NormalForms().__getitem__
    is_stopword = stopwords.__contains__
    frequencies: Counter[str] = Counter()
    doc_count = 0

    def article(raw: object) -> tuple[str, tuple[int, ...]]:
        nonlocal doc_count
        if not isinstance(raw, str):
            raise ValueError("article must be a string")
        if not raw:
            return "", ()
        doc_count += 1
        bag = Counter(filterfalse(is_stopword, terms(raw, normal)))
        frequencies.update(bag.keys())
        return " ".join(bag), tuple(bag.values())

    records = read_records(lines, path, article)
    return build_kb(records, dict(frequencies), doc_count, stopwords)


def lookup_alias(kb: KnowledgeBase, surface: str) -> frozenset[str]:
    """Entity ids whose canonical or variant label normalizes to `surface`.
    A key is in normal form, so a surface that is a key is not normalized."""
    # No key maps to an empty set, so `or` tries the normal form only for a non-key.
    index = kb.alias_index
    return index.get(surface) or index.get(persian_normalize(surface), frozenset())
