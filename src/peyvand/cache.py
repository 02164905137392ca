"""On-disk index cache: knowledge base plus reference lists in one file.

The format is a magic header line followed by JSON lines: the metadata
(record count, `doc_count` and the reference lists in the lists file's
shape), then the article document frequencies, then one dump record per
line, sorted by id, with its out-links resolved and its article stored
as its bag of terms, `[terms, counts]`: the distinct normalized terms
outside the stopwords, in order of first occurrence and joined by single
spaces, and one count per term. Keys and set members are sorted, so
rebuilding from unchanged inputs is byte-identical. The records are read
back by the dump's own record loop (`kb.read_records`) and the lists by
the lists file's parser, so a malformed or repeated record, or a bag
whose counts are not one positive integer per term, fails the way a dump
record does, naming its line; no article is normalized or counted again.
Every error after the header is an `InputError` whose reason starts
`corrupt index cache:`. The record count makes a file cut off at a line
boundary fail instead of loading part of the knowledge base. `doc_count`
is stored because an article of punctuation or stopwords alone is stored
as an empty bag yet counts in it. A link to an unknown id or to its own
entity, which `build-index` drops, is an error. A version bump in the
header invalidates old caches loudly instead of misreading them.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import BinaryIO

from .errors import InputError
from .kb import (
    KnowledgeBase,
    ReferenceLists,
    build_kb,
    json_lines,
    key_error,
    lists_to_obj,
    parse_reference_lists,
    read_records,
    record_to_obj,
)

MAGIC = b"#peyvand-index"
CACHE_VERSION = 6
_HEADER = MAGIC + b":v%d\n" % CACHE_VERSION
_META_KEYS = ("doc_count", "lists", "records")


def _line(obj: object) -> bytes:
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


def save_index(kb: KnowledgeBase, lists: ReferenceLists, path: str | Path) -> None:
    lists_obj = lists_to_obj(lists, kb.stopwords)
    meta = {"doc_count": kb.doc_count, "lists": lists_obj, "records": len(kb.entities)}
    with open(path, "wb") as fh:
        fh.write(_HEADER + _line(meta) + _line(kb.doc_freq))
        fh.writelines(_line(record_to_obj(kb.entities[i])) for i in sorted(kb.entities))


def load_index(path: str | Path) -> tuple[KnowledgeBase, ReferenceLists]:
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n")
        if not header.startswith(MAGIC + b":"):
            raise InputError(path, None, "not an index cache (bad magic header)")
        version = header[len(MAGIC) + 1 :].decode("ascii", "replace")
        if version != f"v{CACHE_VERSION}":
            reason = f"index cache version {version} does not match v{CACHE_VERSION}"
            raise InputError(path, None, f"{reason}; rebuild it with `peyvand build-index`")
        try:
            return _load_body(fh, path)
        except InputError as exc:
            raise InputError(path, exc.line, f"corrupt index cache: {exc.reason}") from None


def _load_body(fh: BinaryIO, path: str | Path) -> tuple[KnowledgeBase, ReferenceLists]:
    """The knowledge base and lists of an index whose header `fh` has read."""
    lines = json_lines(enumerate(fh, start=2), path)
    head = list(itertools.islice(lines, 2))
    if len(head) < 2:
        raise InputError(path, None, "it ends before the doc_freq line")
    (meta_line, meta), (freq_line, frequencies) = head
    if reason := key_error(meta, "metadata", _META_KEYS):
        raise InputError(path, meta_line, reason)
    count = meta["records"]
    if type(count) is not int or count < 0:
        raise InputError(path, meta_line, "records must be an integer >= 0")
    lists, stopwords = parse_reference_lists(meta["lists"], path, meta_line)
    records = read_records(lines, path)
    if len(records) != count:
        raise InputError(path, None, f"{len(records)} records, not {count}")
    # Every non-empty stored article comes from a non-empty raw one.
    doc_count = meta["doc_count"]
    stored = sum(1 for record in records.values() if record.article_text)
    if type(doc_count) is not int or not stored <= doc_count <= count:
        reason = f"doc_count must be an integer from {stored} to {count}"
        raise InputError(path, meta_line, reason)

    kb, dropped = build_kb(records, frequencies, doc_count, stopwords)
    if n := sum(dropped):
        reason = f"{n} out-link(s) point outside the index or back at their entity"
        raise InputError(path, None, reason)
    # A term occurs in at least one and at most every non-empty article.
    if not isinstance(frequencies, dict) or not all(
        type(n) is int and 0 < n <= kb.doc_count for n in frequencies.values()
    ):
        reason = f"doc_freq must map terms to integers from 1 to {kb.doc_count}"
        raise InputError(path, freq_line, reason)
    return kb, lists
