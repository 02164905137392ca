"""Knowledge-base dump loading, alias indexing and the entity link graph.

A dump is UTF-8 JSON lines, one entity per line:

    {"id": ..., "label": ..., "variants": [...], "class": ..., "ner_type": ...,
     "pos": ..., "article": ..., "links": [...], "rare": false}

Reference lists live in a single JSON file with keys `rare_blocklist`,
`class_filters`, `type_mapping` and `stopwords`.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator

from .errors import PeyvandError
from .textnorm import NormalForms, get_normalizer, terms


class MalformedRecord(PeyvandError):
    def __init__(self, path: str | Path, line: int | None, reason: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {reason}")
        self.path = str(path)
        self.line = line
        self.reason = reason


class DuplicateEntityId(PeyvandError):
    def __init__(self, path: str | Path, line: int, entity_id: str):
        super().__init__(f"{path}:{line}: duplicate entity id {entity_id!r}")
        self.entity_id = entity_id


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
    id: str
    canonical_label: str
    variant_labels: frozenset[str]
    kb_class: str
    ner_type: NerType
    pos_category: PosCategory
    article_text: str
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
    stopwords: frozenset[str]


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
    """Immutable after load apart from three memos that the linker fills
    on first use.

    - `normal_forms` maps each raw article run to its interned normal form.
      It is bounded by the article vocabulary: document words and aliases
      do not go through it.
    - `idf` maps a document frequency to its IDF weight. It is bounded by
      the distinct df values, at most `doc_count + 1` of them.
    - `article_vectors` holds each article's TF-IDF vector and norm, keyed
      by the stopwords and then by entity id. It is bounded by the
      entities.

    The memos are derived data, not part of the KB: they are never saved
    to the index, `==` ignores them and `dataclasses.replace` starts them
    empty.

    `dropped_links` counts the out-links that `build_kb` dropped, and
    `self_links` how many of those pointed back at their own entity. The
    index keeps the sum alone, so a loaded KB reads 0 self-links, and `==`
    ignores them.
    """

    entities: dict[str, EntityRecord]
    alias_index: dict[str, frozenset[str]]
    doc_count: int
    doc_freq: dict[str, int]
    normalizer: str = "persian"
    dropped_links: int = 0
    self_links: int = field(default=0, compare=False)
    normal_forms: NormalForms = field(init=False, repr=False, compare=False)
    idf: IdfTable = field(init=False, repr=False, compare=False)
    article_vectors: dict[frozenset[str], dict[str, tuple[dict[str, float], float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.normal_forms = NormalForms(get_normalizer(self.normalizer))
        self.idf = IdfTable(self.doc_count)


ErrorFactory = Callable[[str | Path, int, str], PeyvandError]


def decode_json(data: bytes, path: str | Path, line_no: int, error: ErrorFactory) -> object:
    """The JSON value of `data`, UTF-8 text that starts on line `line_no` of
    `path`. Every input file is decoded here. Bytes that are not UTF-8
    (reported by their offset in `data`), invalid JSON, nesting too deep to
    decode, integers too long to convert, the constants NaN and Infinity
    and floats too large to be finite raise `error(path, line, reason)`."""
    try:
        return _DECODER.decode(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = line_no + data.count(b"\n", 0, exc.start)
        raise error(path, line, f"not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise error(path, line_no + exc.lineno - 1, f"invalid JSON: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        raise error(path, line_no, f"invalid JSON: {exc}") from exc


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_constant)


def json_lines(
    numbered: Iterable[tuple[int, bytes]], path: str | Path, error: ErrorFactory
) -> Iterator[tuple[int, object]]:
    """Line number and decoded value of each non-blank numbered line."""
    for line_no, line in numbered:
        if line.strip():
            yield line_no, decode_json(line, path, line_no, error)


def read_json_lines(path: str | Path, error: ErrorFactory) -> Iterator[tuple[int, object]]:
    """Line number and decoded value of each non-blank line of a JSON-lines file."""
    with open(path, "rb") as fh:
        yield from json_lines(enumerate(fh, start=1), path, error)


def load_reference_lists(path: str | Path, normalizer: str = "persian") -> ReferenceLists:
    """Load and validate a reference-lists file."""
    data = decode_json(Path(path).read_bytes(), path, 1, MalformedRecord)
    return parse_reference_lists(data, path, normalizer)


def parse_reference_lists(data: object, path: str | Path, normalizer: str) -> ReferenceLists:
    """Validate decoded reference lists; `path` names their source in errors.

    Trigger terms and stopwords are stored normalized so membership tests
    against normalized tokens are direct; normalizing is idempotent.
    """
    norm = get_normalizer(normalizer)
    if not isinstance(data, dict):
        raise MalformedRecord(path, None, "reference lists must be a JSON object")

    blocklist = data.get("rare_blocklist", [])
    if not isinstance(blocklist, list) or not all(isinstance(x, str) for x in blocklist):
        raise MalformedRecord(path, None, "rare_blocklist must be an array of entity ids")

    class_filters: dict[str, ClassFilter] = {}
    raw_filters = data.get("class_filters", {})
    if not isinstance(raw_filters, dict):
        raise MalformedRecord(path, None, "class_filters must be an object")
    for cls, spec in raw_filters.items():
        if not isinstance(spec, dict) or "triggers" not in spec or "penalty" not in spec:
            raise MalformedRecord(path, None, f"class_filters[{cls!r}] needs triggers and penalty")
        penalty = spec["penalty"]
        if not isinstance(penalty, (int, float)) or not 0.0 < penalty < 1.0:
            raise MalformedRecord(
                path, None, f"class_filters[{cls!r}].penalty must lie strictly between 0 and 1"
            )
        triggers = spec["triggers"]
        if not isinstance(triggers, list) or not all(isinstance(t, str) for t in triggers):
            raise MalformedRecord(path, None, f"class_filters[{cls!r}].triggers must be strings")
        class_filters[cls] = ClassFilter(frozenset(norm(t) for t in triggers), float(penalty))

    type_mapping: dict[NerType, frozenset[str]] = {}
    raw_mapping = data.get("type_mapping", {})
    if not isinstance(raw_mapping, dict):
        raise MalformedRecord(path, None, "type_mapping must be an object")
    for key, classes in raw_mapping.items():
        try:
            ner = NerType(key)
        except ValueError:
            raise MalformedRecord(path, None, f"type_mapping key {key!r} is not a NER type") from None
        if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
            raise MalformedRecord(path, None, f"type_mapping[{key!r}] must be an array of classes")
        type_mapping[ner] = frozenset(classes)

    stopwords = data.get("stopwords", [])
    if not isinstance(stopwords, list) or not all(isinstance(w, str) for w in stopwords):
        raise MalformedRecord(path, None, "stopwords must be an array of strings")

    return ReferenceLists(
        rare_blocklist=frozenset(blocklist),
        class_filters=class_filters,
        type_mapping=type_mapping,
        stopwords=frozenset(norm(w) for w in stopwords),
    )


def lists_to_obj(lists: ReferenceLists) -> dict:
    """The lists file shape, sorted; `parse_reference_lists` reads it back."""
    return {
        "rare_blocklist": sorted(lists.rare_blocklist),
        "class_filters": {
            cls: {"triggers": sorted(f.triggers), "penalty": f.penalty}
            for cls, f in lists.class_filters.items()
        },
        "type_mapping": {ner.value: sorted(classes) for ner, classes in lists.type_mapping.items()},
        "stopwords": sorted(lists.stopwords),
    }


_RECORD_KEYS = ("id", "label", "variants", "class", "ner_type", "pos", "article", "links")


def parse_record(obj: object, path: str | Path, line_no: int) -> EntityRecord:
    """Validate one dump record; returns it with its out-links unresolved."""
    if not isinstance(obj, dict):
        raise MalformedRecord(path, line_no, "record must be a JSON object")
    for key in _RECORD_KEYS:
        if key not in obj:
            raise MalformedRecord(path, line_no, f"missing key {key!r}")
    entity_id = obj["id"]
    label = obj["label"]
    if not isinstance(entity_id, str) or not entity_id:
        raise MalformedRecord(path, line_no, "id must be a non-empty string")
    if not isinstance(label, str) or not label:
        raise MalformedRecord(path, line_no, "label must be a non-empty string")
    variants = obj["variants"]
    if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
        raise MalformedRecord(path, line_no, "variants must be an array of strings")
    links = obj["links"]
    if not isinstance(links, list) or not all(isinstance(l, str) for l in links):
        raise MalformedRecord(path, line_no, "links must be an array of entity ids")
    if not isinstance(obj["class"], str):
        raise MalformedRecord(path, line_no, "class must be a string")
    if not isinstance(obj["article"], str):
        raise MalformedRecord(path, line_no, "article must be a string")
    try:
        ner = NerType(obj["ner_type"])
    except ValueError:
        raise MalformedRecord(path, line_no, f"ner_type {obj['ner_type']!r} is invalid") from None
    try:
        pos = PosCategory(obj["pos"])
    except ValueError:
        raise MalformedRecord(path, line_no, f"pos {obj['pos']!r} is invalid") from None
    rare = obj.get("rare", False)
    if not isinstance(rare, bool):
        raise MalformedRecord(path, line_no, "rare must be a boolean")
    return EntityRecord(
        id=entity_id,
        canonical_label=label,
        variant_labels=frozenset(variants),
        kb_class=obj["class"],
        ner_type=ner,
        pos_category=pos,
        article_text=obj["article"],
        out_links=frozenset(links),  # resolved by `build_kb`
        rare=rare,
    )


def record_to_obj(record: EntityRecord) -> dict:
    """The dump-line shape of a record, with its sets sorted."""
    return {
        "id": record.id,
        "label": record.canonical_label,
        "variants": sorted(record.variant_labels),
        "class": record.kb_class,
        "ner_type": record.ner_type.value,
        "pos": record.pos_category.value,
        "article": record.article_text,
        "links": sorted(record.out_links),
        "rare": record.rare,
    }


def doc_freq(
    records: Iterable[EntityRecord], stopwords: frozenset[str], normalizer: str
) -> dict[str, int]:
    """Number of non-empty articles each content term occurs in."""
    # Articles repeat words, so normalize each distinct run once; the memo
    # lives only as long as this call.
    norm = functools.cache(get_normalizer(normalizer))
    counts: Counter[str] = Counter()
    for record in records:
        if record.article_text:
            counts.update({t for t in terms(record.article_text, norm) if t not in stopwords})
    return dict(counts)


def build_kb(
    records: Collection[EntityRecord],
    normalizer: str,
    frequencies: dict[str, int],
) -> KnowledgeBase:
    """Build a knowledge base from `parse_record` output and `doc_freq`.

    Out-links that point outside the records or back at the entity
    itself are dropped and counted on `KnowledgeBase.dropped_links`, the
    latter also on `self_links`; an incomplete dump subset is not an
    error. A link repeated in the dump is one out-link.
    """
    norm = get_normalizer(normalizer)
    ids = {record.id for record in records}
    entities: dict[str, EntityRecord] = {}
    dropped = self_links = 0
    for record in records:
        resolved = frozenset(l for l in record.out_links if l in ids and l != record.id)
        dropped += len(record.out_links) - len(resolved)
        self_links += record.id in record.out_links
        if resolved != record.out_links:
            record = replace(record, out_links=resolved)
        entities[record.id] = record

    alias_sets: dict[str, set[str]] = {}
    for entity in entities.values():
        for alias in {entity.canonical_label, *entity.variant_labels}:
            alias_sets.setdefault(norm(alias), set()).add(entity.id)

    return KnowledgeBase(
        entities=entities,
        alias_index={key: frozenset(members) for key, members in alias_sets.items()},
        doc_count=sum(1 for entity in entities.values() if entity.article_text),
        doc_freq=frequencies,
        normalizer=normalizer,
        dropped_links=dropped,
        self_links=self_links,
    )


def read_records(lines: Iterable[tuple[int, object]], path: str | Path) -> Collection[EntityRecord]:
    """`parse_record` each numbered dump line, in order; a repeated id
    raises `DuplicateEntityId` naming the line that repeats it."""
    records: dict[str, EntityRecord] = {}
    for line_no, obj in lines:
        record = parse_record(obj, path, line_no)
        if record.id in records:
            raise DuplicateEntityId(path, line_no, record.id)
        records[record.id] = record
    return records.values()


def load_kb(
    dump_path: str | Path,
    lists_path: str | Path,
    normalizer: str = "persian",
) -> tuple[KnowledgeBase, ReferenceLists]:
    """Load a dump and its reference lists and build all indexes."""
    lists = load_reference_lists(lists_path, normalizer)
    records = read_records(read_json_lines(dump_path, MalformedRecord), dump_path)
    frequencies = doc_freq(records, lists.stopwords, normalizer)
    return build_kb(records, normalizer, frequencies), lists


def lookup_alias(kb: KnowledgeBase, surface: str) -> frozenset[str]:
    """Entity ids whose canonical or variant label normalizes to `surface`."""
    norm = get_normalizer(kb.normalizer)
    return kb.alias_index.get(norm(surface), frozenset())
