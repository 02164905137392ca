"""On-disk index cache: knowledge base plus reference lists in one file.

The format is a magic header line followed by JSON lines: the metadata
(record count and the reference lists in the lists file's shape), then
the article document frequencies, then one dump record per line, sorted
by id. Keys and set members are sorted, so rebuilding from unchanged
inputs is byte-identical. The records are read back by the dump's own
record loop (`kb.read_records`) and the lists by the lists file's
parser, so a malformed or repeated record fails the way it does in a
dump, naming its line. The record count makes a file cut off at a line
boundary fail instead of loading part of the knowledge base. A version
bump in the header invalidates old caches loudly instead of misreading
them.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from .errors import PeyvandError
from .kb import (
    KnowledgeBase,
    MalformedRecord,
    ReferenceLists,
    build_kb,
    json_lines,
    lists_to_obj,
    parse_reference_lists,
    read_records,
    record_to_obj,
)

MAGIC = b"#peyvand-index"
CACHE_VERSION = 4
_HEADER = MAGIC + b":v%d\n" % CACHE_VERSION
_META_KEYS = {"lists", "records"}


class CacheError(PeyvandError):
    pass


class CacheVersionMismatch(CacheError):
    def __init__(self, path: str | Path, found: str):
        super().__init__(
            f"{path}: index cache version {found} does not match v{CACHE_VERSION}; "
            "rebuild it with `peyvand build-index`"
        )


def _corrupt(path: str | Path, line: int, reason: str) -> CacheError:
    return CacheError(f"{path}:{line}: corrupt index cache: {reason}")


def _line(obj: object) -> bytes:
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


def save_index(kb: KnowledgeBase, lists: ReferenceLists, path: str | Path) -> None:
    meta = {"lists": lists_to_obj(lists), "records": len(kb.entities)}
    with open(path, "wb") as fh:
        fh.write(_HEADER + _line(meta) + _line(kb.doc_freq))
        fh.writelines(_line(record_to_obj(kb.entities[i])) for i in sorted(kb.entities))


def load_index(path: str | Path) -> tuple[KnowledgeBase, ReferenceLists]:
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n")
        if not header.startswith(MAGIC + b":"):
            raise CacheError(f"{path}: not an index cache (bad magic header)")
        version = header[len(MAGIC) + 1 :].decode("ascii", "replace")
        if version != f"v{CACHE_VERSION}":
            raise CacheVersionMismatch(path, version)

        lines = json_lines(enumerate(fh, start=2), path, _corrupt)
        head = list(itertools.islice(lines, 2))
        if len(head) < 2:
            raise CacheError(f"{path}: corrupt index cache: it ends before the doc_freq line")
        (meta_line, meta), (freq_line, frequencies) = head
        if not isinstance(meta, dict) or meta.keys() != _META_KEYS:
            keys = sorted(_META_KEYS)
            raise _corrupt(path, meta_line, f"metadata must be an object with the keys {keys}")
        count = meta["records"]
        if type(count) is not int or count < 0:
            raise _corrupt(path, meta_line, "records must be an integer >= 0")
        try:
            lists = parse_reference_lists(meta["lists"], path)
        except MalformedRecord as exc:
            raise _corrupt(path, meta_line, exc.reason) from None
        records = read_records(lines, path)
    if len(records) != count:
        raise CacheError(f"{path}: corrupt index cache: {len(records)} records, not {count}")

    kb = build_kb(records, frequencies)
    # A term occurs in at least one and at most every non-empty article.
    if not isinstance(frequencies, dict) or not all(
        type(n) is int and 0 < n <= kb.doc_count for n in frequencies.values()
    ):
        reason = f"doc_freq must map terms to integers from 1 to {kb.doc_count}"
        raise _corrupt(path, freq_line, reason)
    return kb, lists
