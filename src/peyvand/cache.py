"""On-disk index cache: knowledge base plus reference lists in one file.

The format is a magic header line followed by canonical JSON (sorted keys,
sorted set members), so rebuilding from unchanged inputs is byte-identical.
The body holds the dump's records keyed by id, the reference lists in the
lists file's shape and the article document frequencies; records and
lists are read back by the dump's and the lists file's own parsers, so a
malformed body fails the same way a malformed input does. A version bump
in the header invalidates old caches loudly instead of misreading them.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import PeyvandError
from .kb import (
    KnowledgeBase,
    ReferenceLists,
    build_kb,
    lists_to_obj,
    parse_record,
    parse_reference_lists,
    record_to_obj,
)
from .textnorm import get_normalizer

MAGIC = b"#peyvand-index"
CACHE_VERSION = 2
_HEADER = MAGIC + b":v%d\n" % CACHE_VERSION
_BODY_KEYS = {"doc_freq", "dropped_links", "entities", "lists", "normalizer"}


class CacheError(PeyvandError):
    pass


class CacheVersionMismatch(CacheError):
    def __init__(self, path: str | Path, found: str):
        super().__init__(
            f"{path}: index cache version {found} does not match v{CACHE_VERSION}; "
            "rebuild it with `peyvand build-index`"
        )


def save_index(kb: KnowledgeBase, lists: ReferenceLists, path: str | Path) -> None:
    payload = {
        "normalizer": kb.normalizer,
        "dropped_links": kb.dropped_links,
        "doc_freq": kb.doc_freq,
        "entities": {e.id: record_to_obj(e) for e in kb.entities.values()},
        "lists": lists_to_obj(lists),
    }
    body = json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    Path(path).write_bytes(_HEADER + body.encode("utf-8") + b"\n")


def load_index(path: str | Path) -> tuple[KnowledgeBase, ReferenceLists]:
    raw = Path(path).read_bytes()
    header, _, body = raw.partition(b"\n")
    if not header.startswith(MAGIC + b":"):
        raise CacheError(f"{path}: not an index cache (bad magic header)")
    version = header[len(MAGIC) + 1 :].decode("ascii", "replace")
    if version != f"v{CACHE_VERSION}":
        raise CacheVersionMismatch(path, version)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheError(f"{path}: corrupt index cache: {exc}") from exc

    def corrupt(reason: str) -> CacheError:
        return CacheError(f"{path}: corrupt index cache: {reason}")

    if not isinstance(payload, dict) or payload.keys() != _BODY_KEYS:
        raise corrupt(f"the body must be an object with the keys {sorted(_BODY_KEYS)}")
    normalizer = payload["normalizer"]
    try:
        get_normalizer(normalizer)
    except (TypeError, ValueError):
        raise corrupt(f"unknown normalizer {normalizer!r}") from None
    dropped = payload["dropped_links"]
    if type(dropped) is not int or dropped < 0:
        raise corrupt("dropped_links must be a non-negative integer")
    frequencies = payload["doc_freq"]
    if not isinstance(frequencies, dict) or not all(
        type(n) is int and n >= 0 for n in frequencies.values()
    ):
        raise corrupt("doc_freq must map terms to non-negative integers")
    entities = payload["entities"]
    if not isinstance(entities, dict):
        raise corrupt("entities must map ids to records")

    lists = parse_reference_lists(payload["lists"], path, normalizer)
    parsed = []
    for entity_id, obj in entities.items():
        if not isinstance(obj, dict):
            raise corrupt(f"entity {entity_id!r} is not a record")
        obj["id"] = entity_id
        parsed.append(parse_record(obj, path, None))
    kb = build_kb(parsed, normalizer, frequencies)
    kb.dropped_links = dropped
    return kb, lists
