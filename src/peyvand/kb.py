"""Knowledge-base dump loading, alias indexing and the entity link graph.

A dump is UTF-8 JSON lines, one entity per line:

    {"id": ..., "label": ..., "variants": [...], "class": ..., "ner_type": ...,
     "pos": ..., "article": ..., "links": [...], "rare": false}

A knowledge base keeps each article as its bag of terms: its distinct
normalized terms outside the stopwords, in order of first occurrence,
each with its count. A record holds its bag as the compact JSON text
`["t1 t2",[2,1]]` that the index stores on a line of its own, and
`read_bag` is the one reader of that text: it decodes the bag when it is
read and checks its shape.

A record keeps in memory what the filters and the link graph read: its
id, class, POS category, rare flag and out-links. It reads its label,
variants, NER type and bag from its `source`: a record of a dump holds
them in a `RecordText`, and one that `cache.load_index` read fetches
them from its index on each read, through `parse_labels` and `read_bag`.

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
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, PeyvandError
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


class RecordText(NamedTuple):
    """The label, variants, NER type and article bag of a record that a
    dump gave, held in memory."""

    label: str
    variants: frozenset[str]
    ner_type: NerType
    bag: bytes


class _InMemory:
    """The source of the records that a dump gave: each record's key is its
    `RecordText`. `cache.IndexText` is the source of a loaded index."""

    @staticmethod
    def labels(text: RecordText) -> tuple[str, frozenset[str], NerType]:
        return text.label, text.variants, text.ner_type

    @staticmethod
    def bag(text: RecordText) -> bytes:
        return text.bag

    @staticmethod
    def bag_error(text: RecordText, entity_id: str, reason: str) -> PeyvandError:
        return PeyvandError(f"entity {entity_id!r}: {reason}")


IN_MEMORY = _InMemory()


@dataclass(frozen=True, slots=True, eq=False)
class EntityRecord:
    """One entity. The filters and the link graph read its first five
    fields, which it holds. Its label, variants, NER type and article bag
    are read from `source` at `key` on each access and not kept:
    `source.labels(key)` gives the first three and `source.bag(key)` the
    bag, undecoded, as the UTF-8 JSON text `["t1 t2",[2,1]]` that
    `bag_json` writes and the index stores; `read_bag(record.bag)` gives
    its terms and counts. `source.bag_error(key, id, reason)` is the error
    of a bag that fails when it is used. The read-only `article_text` is
    the article's distinct normalized terms outside the stopwords, in
    order of first occurrence, joined by single spaces. `==` compares
    every field that a record reads, not where it reads them from."""

    id: str
    kb_class: str
    pos_category: PosCategory
    out_links: frozenset[str]
    rare: bool
    source: Any = field(repr=False)
    key: Any = field(repr=False)

    @property
    def canonical_label(self) -> str:
        return self.source.labels(self.key)[0]

    @property
    def variant_labels(self) -> frozenset[str]:
        return self.source.labels(self.key)[1]

    @property
    def ner_type(self) -> NerType:
        return self.source.labels(self.key)[2]

    @property
    def bag(self) -> bytes:
        return self.source.bag(self.key)

    @property
    def article_text(self) -> str:
        try:
            return " ".join(read_bag(self.bag)[0])
        except ValueError as exc:
            raise self.bag_error(str(exc)) from None

    def bag_error(self, reason: str) -> PeyvandError:
        """The error of this record's bag, which fails for `reason`."""
        return self.source.bag_error(self.key, self.id, reason)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityRecord):
            return NotImplemented
        return (
            (self.id, self.kb_class, self.pos_category, self.out_links, self.rare)
            == (other.id, other.kb_class, other.pos_category, other.out_links, other.rare)
            and self.source.labels(self.key) == other.source.labels(other.key)
            and self.bag == other.bag
        )


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
    `index_sha256` is the SHA-256 of the index file that `cache.load_index`
    read the KB from, hashed as it was read; it is None for a KB built from
    a dump, and `==` ignores it.

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
    index_sha256: str | None = field(default=None, repr=False, compare=False)
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


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """Line number and decoded value of each non-blank line of a JSON-lines file."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                yield line_no, decode_json(line, path, line_no)


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


def dump_json(obj: object) -> bytes:
    """The compact UTF-8 JSON text of `obj`, keys sorted: the form of each
    line of the index and of each article bag."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode()


def bag_json(terms: str, counts: Iterable[int]) -> bytes:
    """The bag `[terms, counts]` of an article as `EntityRecord.bag` holds it."""
    return dump_json([terms, list(counts)])


EMPTY_BAG = bag_json("", ())


def read_bag(data: bytes) -> tuple[list[str], list[int]]:
    """The terms and counts of an article bag as `bag_json` writes it: the
    JSON text of `[terms, counts]`, the terms joined by single spaces and
    one positive integer count per term. This is the one reader of a bag.
    Text that `decode_json` refuses, a value of another shape, or a count
    for each space-separated term that is not also a count for each term
    of `str.split` raises `ValueError` with the reason. A repeated term is
    left to the caller, which finds it for free when it maps the terms to
    their counts."""
    try:
        value = decode_json(data, "bag", 1)
    except InputError as exc:
        raise ValueError(exc.reason) from None
    if type(value) is not list or len(value) != 2 or type(value[0]) is not str:
        raise ValueError("article must be an array of its terms and their counts")
    text, counts = value
    # JSON gives `bool` for true, which `type(n) is int` leaves out.
    if type(counts) is not list or (counts and (set(map(type, counts)) != _INT or min(counts) < 1)):
        raise ValueError("article counts must be an array of positive integers")
    terms = text.split()
    # Single spaces join the terms, so the spaces count them too; the two
    # counts differ when a term is empty or holds other whitespace.
    for held in (text.count(" ") + 1 if text else 0, len(terms)):
        if held != len(counts):
            raise ValueError(f"article holds {held} term(s) but {len(counts)} count(s)")
    return terms, counts


def parse_labels(obj: dict, path: str | Path, line_no: int) -> tuple[str, frozenset[str], NerType]:
    """The checked label, variants and NER type of a dump record, or of the
    label line of an index, that `path` holds on line `line_no`; a bad one
    is an `InputError` on that line."""
    label = obj["label"]
    if not isinstance(label, str) or not label:
        raise InputError(path, line_no, "label must be a non-empty string")
    variants = obj["variants"]
    if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
        raise InputError(path, line_no, "variants must be an array of strings")
    try:
        ner = NerType(obj["ner_type"])
    except ValueError:
        raise InputError(path, line_no, f"ner_type {obj['ner_type']!r} is invalid") from None
    return label, frozenset(variants), ner


def parse_record(
    obj: object, path: str | Path, line_no: int, article: Callable[[object], bytes]
) -> EntityRecord:
    """Validate one record; returns it with its out-links unresolved and
    its bag the bytes that `article` makes of the record's `article`
    value, or an error on the record's line with the reason of the
    `ValueError` that `article` raises."""
    if reason := key_error(obj, "record", _RECORD_KEYS, _RECORD_ALLOWED):
        raise InputError(path, line_no, reason)
    entity_id = obj["id"]
    if not isinstance(entity_id, str) or not entity_id:
        raise InputError(path, line_no, "id must be a non-empty string")
    label, variants, ner = parse_labels(obj, path, line_no)
    links = obj["links"]
    if not isinstance(links, list) or not all(isinstance(l, str) for l in links):
        raise InputError(path, line_no, "links must be an array of entity ids")
    if not isinstance(obj["class"], str):
        raise InputError(path, line_no, "class must be a string")
    try:
        bag = article(obj["article"])
    except ValueError as exc:
        raise InputError(path, line_no, str(exc)) from None
    try:
        pos = PosCategory(obj["pos"])
    except ValueError:
        raise InputError(path, line_no, f"pos {obj['pos']!r} is invalid") from None
    rare = obj.get("rare", False)
    if not isinstance(rare, bool):
        raise InputError(path, line_no, "rare must be a boolean")
    return EntityRecord(
        id=entity_id,
        kb_class=obj["class"],
        pos_category=pos,
        out_links=frozenset(links),  # resolved by `build_kb`
        rare=rare,
        source=IN_MEMORY,
        key=RecordText(label, variants, ner, bag),
    )


def build_kb(
    entities: dict[str, EntityRecord], frequencies: dict[str, int], doc_count: int,
    stopwords: frozenset[str],
) -> tuple[KnowledgeBase, tuple[int, int]]:
    """Build a knowledge base from `read_records` output (which it takes
    over and changes), its articles' document frequencies, its count of
    non-empty articles and the stopwords that the frequencies leave out.

    Out-links that point outside the records or back at the entity
    itself are dropped; an incomplete dump subset is not an error. The
    second value counts them: the links outside, then the self-links. A
    link repeated in the dump is one out-link. An alias that normalizes
    to nothing is not indexed, so no surface can match it.
    """
    outside = self_links = 0
    for entity_id, record in entities.items():
        links = record.out_links
        if not links <= entities.keys() or entity_id in links:
            resolved = frozenset(l for l in links if l in entities and l != entity_id)
            self_link = entity_id in links
            self_links += self_link
            outside += len(links) - len(resolved) - self_link
            entities[entity_id] = replace(record, out_links=resolved)

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
    lines: Iterable[tuple[int, object]], path: str | Path, article: Callable[[object], bytes]
) -> dict[str, EntityRecord]:
    """`parse_record` each numbered dump line, in order, with `article`,
    keyed by id; a repeated id is an `InputError` on the line that repeats
    it."""
    records: dict[str, EntityRecord] = {}
    for line_no, obj in lines:
        record = parse_record(obj, path, line_no, article)
        if record.id in records:
            raise InputError(path, line_no, f"duplicate entity id {record.id!r}")
        records[record.id] = record
    return records


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
    once, stopwords dropped, and its bag gives both the record's `bag`,
    encoded as the index stores it, and its share of `doc_freq`: the
    number of non-empty articles that hold each of its terms. `doc_count`
    counts the non-empty raw articles, so an article of punctuation or
    stopwords alone, stored as an empty bag, still counts."""
    # Articles repeat words, so normalize each distinct run once; the memo
    # lives only as long as this call.
    normal = NormalForms().__getitem__
    is_stopword = stopwords.__contains__
    frequencies: Counter[str] = Counter()
    doc_count = 0

    def article(raw: object) -> bytes:
        nonlocal doc_count
        if not isinstance(raw, str):
            raise ValueError("article must be a string")
        if not raw:
            return EMPTY_BAG
        doc_count += 1
        bag = Counter(filterfalse(is_stopword, terms(raw, normal)))
        frequencies.update(bag.keys())
        return bag_json(" ".join(bag), bag.values())

    records = read_records(lines, path, article)
    return build_kb(records, dict(frequencies), doc_count, stopwords)


def lookup_alias(kb: KnowledgeBase, surface: str) -> frozenset[str]:
    """Entity ids whose canonical or variant label normalizes to `surface`.
    A key is in normal form, so a surface that is a key is not normalized."""
    # No key maps to an empty set, so `or` tries the normal form only for a non-key.
    index = kb.alias_index
    return index.get(surface) or index.get(persian_normalize(surface), frozenset())
