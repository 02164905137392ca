"""On-disk index cache: knowledge base plus reference lists in one file.

The format is a magic header line followed by JSON lines: the metadata
(record count, `doc_count` and the reference lists in the lists file's
shape) on line 2, the article document frequencies on line 3, then two
lines per record, sorted by id: the dump record with its out-links
resolved and without its article, then the article's bag of terms as
`kb.bag_json` writes it. So the bag of the k-th record, counting from 0,
is on line 5 + 2k. Keys and set members are sorted, so rebuilding from
unchanged inputs is byte-identical.

The records are read back by the dump's own record loop
(`kb.read_records`) and the lists by the lists file's parser, so a
malformed or repeated record fails the way a dump record does, naming
its line. Each bag line is kept undecoded in `EntityRecord.bag`, which
`save_index` writes back as it is. `linker.link_document` reads it with
`kb.read_bag` on the first use of its article, and `bag_error` names
its line when it is bad. So a corpus that scores a few articles of a
large knowledge base decodes only their bags, and no article is
normalized or counted again.

Every error after the header is an `InputError` whose reason starts
`corrupt index cache:`. The record count makes a file cut off at a line
boundary fail instead of loading part of the knowledge base. `doc_count`
is stored because an article of punctuation or stopwords alone is stored
as an empty bag yet counts in it. A link to an unknown id or to its own
entity, which `build-index` drops, is an error, and so is a stopword
with a document frequency, which `build-index` never counts. A version
bump in the header invalidates old caches loudly instead of misreading
them.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import BinaryIO, Iterator

from .errors import InputError, PeyvandError
from .kb import (
    KnowledgeBase,
    ReferenceLists,
    build_kb,
    decode_json,
    dump_json,
    key_error,
    lists_to_obj,
    parse_reference_lists,
    read_records,
    record_to_obj,
)

MAGIC = b"#peyvand-index"
CACHE_VERSION = 7
_HEADER = MAGIC + b":v%d\n" % CACHE_VERSION
_META_KEYS = ("doc_count", "lists", "records")
# The line of the first record's bag; each record takes two lines.
_FIRST_BAG_LINE = 5


def save_index(kb: KnowledgeBase, lists: ReferenceLists, path: str | Path) -> None:
    lists_obj = lists_to_obj(lists, kb.stopwords)
    meta = {"doc_count": kb.doc_count, "lists": lists_obj, "records": len(kb.entities)}
    with open(path, "wb") as fh:
        fh.write(_HEADER + dump_json(meta) + b"\n" + dump_json(kb.doc_freq) + b"\n")
        for entity_id in sorted(kb.entities):
            record = kb.entities[entity_id]
            fh.write(dump_json(record_to_obj(record)) + b"\n" + record.bag + b"\n")


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


def bag_error(kb: KnowledgeBase, entity_id: str, reason: str) -> PeyvandError:
    """The error of the bad article bag of `entity_id`: for a knowledge
    base that `load_index` read, an `InputError` on the bag's line of its
    index, whose records keep the order of their lines; for one built
    from a dump, a `PeyvandError` that names the entity."""
    if kb.index_path is None:
        return PeyvandError(f"entity {entity_id!r}: {reason}")
    line = _FIRST_BAG_LINE + 2 * list(kb.entities).index(entity_id)
    return InputError(kb.index_path, line, f"corrupt index cache: {reason}")


def _records(lines: Iterator[tuple[int, bytes]], path: str | Path) -> Iterator[tuple[int, object]]:
    """Each record line, numbered and decoded, with the undecoded bag
    line that follows it as its `article`."""
    for line_no, line in lines:
        record = decode_json(line, path, line_no)
        _, bag = next(lines, (None, None))
        if bag is None:
            raise InputError(path, line_no, "the index ends before this record's article line")
        if isinstance(record, dict):  # `parse_record` refuses any other value
            record.setdefault("article", bag.rstrip(b"\n"))
        yield line_no, record


def _bag(value: object) -> bytes:
    # JSON decodes to no `bytes`: any other value is an article on the record line.
    if type(value) is not bytes:
        raise ValueError("a record line holds no article: its bag is on the next line")
    return value


def _load_body(fh: BinaryIO, path: str | Path) -> tuple[KnowledgeBase, ReferenceLists]:
    """The knowledge base and lists of an index whose header `fh` has read."""
    lines = enumerate(fh, start=2)
    head = [(n, decode_json(line, path, n)) for n, line in itertools.islice(lines, 2)]
    if len(head) < 2:
        raise InputError(path, None, "it ends before the doc_freq line")
    (meta_line, meta), (freq_line, frequencies) = head
    if reason := key_error(meta, "metadata", _META_KEYS):
        raise InputError(path, meta_line, reason)
    count = meta["records"]
    if type(count) is not int or count < 0:
        raise InputError(path, meta_line, "records must be an integer >= 0")
    lists, stopwords = parse_reference_lists(meta["lists"], path, meta_line)
    records = read_records(_records(lines, path), path, _bag)
    if len(records) != count:
        raise InputError(path, None, f"{len(records)} records, not {count}")
    # Every non-empty stored article comes from a non-empty raw one. An
    # empty bag is `["",[]]`: its terms are the empty string.
    doc_count = meta["doc_count"]
    stored = sum(1 for record in records.values() if not record.bag.startswith(b'[""'))
    if type(doc_count) is not int or not stored <= doc_count <= count:
        reason = f"doc_count must be an integer from {stored} to {count}"
        raise InputError(path, meta_line, reason)
    # A term occurs in at least one and at most every non-empty article,
    # and the frequencies leave the stopwords out.
    if not isinstance(frequencies, dict) or not all(
        type(n) is int and 0 < n <= doc_count for n in frequencies.values()
    ):
        reason = f"doc_freq must map terms to integers from 1 to {doc_count}"
        raise InputError(path, freq_line, reason)
    if counted := sorted(stopwords.intersection(frequencies)):
        raise InputError(path, meta_line, f"stopword {counted[0]!r} has a document frequency")

    kb, dropped = build_kb(records, frequencies, doc_count, stopwords)
    if n := sum(dropped):
        reason = f"{n} out-link(s) point outside the index or back at their entity"
        raise InputError(path, None, reason)
    kb.index_path = path
    return kb, lists
