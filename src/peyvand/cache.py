"""On-disk index cache: knowledge base plus reference lists in one file.

The format is a magic header line followed by JSON lines in two tiers.
Tier 1 is what `load_index` reads and `link` filters with:

- line 2, the metadata: the record count, `doc_count` and the reference
  lists in the lists file's shape;
- line 3, the article document frequencies;
- line 4, the entity ids, sorted; a record's position is its index here;
- line 5, the alias table: each normalized alias key and the sorted
  positions of the records whose label or variants normalize to it;
- lines 6 to 9, one column each, in id order: each record's `class`, its
  `pos`, its `rare` flag and its out-links as record positions.

Tier 2 follows, two lines per record in id order: the record's label,
variants and `ner_type` as an object, then its article's bag of terms as
`kb.bag_json` writes it. So the k-th record, counting from 0, has its
label line on line 10 + 2k and its bag on the line after. Keys and set
members are sorted, so rebuilding from unchanged inputs is byte-identical.

`load_index` decodes and checks tier 1, column by column. It reads tier 2
once without decoding it: it counts the lines, keeps each record's byte
offset and counts the non-empty bags for the `doc_count` check. It hashes
every byte of the file on the way, for `link`'s manifest. A loaded
record reads its label line, through `kb.parse_labels`, or its bag line
from the index on each access: the knowledge base keeps the file open,
read only, until the last of its records is collected. The linker
decodes a bag with `kb.read_bag` on the first use of its article. So a
corpus that scores a few articles of a large knowledge base reads and
decodes only their bags, and no label is read or normalized again.

Every error after the header is an `InputError` whose reason starts
`corrupt index cache:`, and an error in tier 2 names its line when the
line is read. The record count makes a file cut off at a line boundary
fail instead of loading part of the knowledge base. `doc_count` is
stored because an article of punctuation or stopwords alone is stored
as an empty bag yet counts in it. A position out of range, or a link
from a record to itself, which `build-index` drops, is an error, and so
is a stopword with a document frequency, which `build-index` never
counts. A version bump in the header invalidates old caches loudly
instead of misreading them.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from array import array
from itertools import chain
from pathlib import Path
from typing import BinaryIO

from .errors import InputError, PeyvandError
from .kb import (
    EntityRecord,
    KnowledgeBase,
    NerType,
    PosCategory,
    ReferenceLists,
    decode_json,
    dump_json,
    key_error,
    lists_to_obj,
    parse_labels,
    parse_reference_lists,
)

MAGIC = b"#peyvand-index"
CACHE_VERSION = 8
_HEADER = MAGIC + b":v%d\n" % CACHE_VERSION
_META_KEYS = ("doc_count", "lists", "records")
_LABEL_KEYS = ("label", "ner_type", "variants")
# The tier-1 lines after the header, in order, from line 2.
_TIER1 = ("metadata", "doc_freq", "ids", "aliases", "class", "pos", "rare", "links")
# The line of the first record's label line; each record takes two lines.
_FIRST_TEXT_LINE = 2 + len(_TIER1)
_POS = {pos.value: pos for pos in PosCategory}


def save_index(kb: KnowledgeBase, lists: ReferenceLists, path: str | Path) -> None:
    ids = sorted(kb.entities)
    position = {entity_id: k for k, entity_id in enumerate(ids)}.__getitem__
    records = [kb.entities[entity_id] for entity_id in ids]
    meta = {"doc_count": kb.doc_count, "lists": lists_to_obj(lists, kb.stopwords),
            "records": len(ids)}
    tier1 = (
        meta,
        kb.doc_freq,
        ids,
        {key: sorted(map(position, members)) for key, members in kb.alias_index.items()},
        [record.kb_class for record in records],
        [record.pos_category.value for record in records],
        [record.rare for record in records],
        [sorted(map(position, record.out_links)) for record in records],
    )
    # A loaded knowledge base reads its labels and bags from its index, which
    # may be `path`: write a new file and replace the old one, which the
    # records keep reading, only when it is whole.
    partial = Path(f"{path}.partial")
    try:
        with open(partial, "wb") as fh:
            fh.write(_HEADER + b"".join(dump_json(value) + b"\n" for value in tier1))
            for record in records:
                label, variants, ner = record.source.labels(record.key)
                text = {"label": label, "ner_type": ner.value, "variants": sorted(variants)}
                fh.write(dump_json(text) + b"\n" + record.bag + b"\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_index(path: str | Path) -> tuple[KnowledgeBase, ReferenceLists]:
    fh = open(path, "rb")
    try:
        digest = hashlib.sha256(header := fh.readline())
        if not header.startswith(MAGIC + b":"):
            raise InputError(path, None, "not an index cache (bad magic header)")
        version = header[len(MAGIC) + 1 :].rstrip(b"\n").decode("ascii", "replace")
        if version != f"v{CACHE_VERSION}":
            reason = f"index cache version {version} does not match v{CACHE_VERSION}"
            raise InputError(path, None, f"{reason}; rebuild it with `peyvand build-index`")
        try:
            return _load_body(fh, path, digest)
        except InputError as exc:
            raise _corrupt(exc) from None
    except BaseException:
        fh.close()
        raise


def _corrupt(exc: InputError) -> InputError:
    return InputError(exc.path, exc.line, f"corrupt index cache: {exc.reason}")


class IndexText:
    """The tier 2 of a loaded index, the `source` of its records: each
    record's label line and bag line, read from the open index file `file`
    by the record's position, the key of the record, on each access. The
    file closes when the last record that reads it is collected."""

    def __init__(self, path: str | Path, file: BinaryIO, offsets: array):
        self.path = path
        self.file = file
        self.offsets = offsets  # of each record's label line
        weakref.finalize(self, file.close)

    def read(self, position: int, bag: bool) -> bytes:
        """The label line of the record at `position`, or its bag line."""
        self.file.seek(self.offsets[position])
        line = self.file.readline()
        return self.file.readline() if bag else line

    def labels(self, position: int) -> tuple[str, frozenset[str], NerType]:
        line_no = _FIRST_TEXT_LINE + 2 * position
        try:
            text = decode_json(self.read(position, False), self.path, line_no)
            if reason := key_error(text, "label line", _LABEL_KEYS):
                raise InputError(self.path, line_no, reason)
            return parse_labels(text, self.path, line_no)
        except InputError as exc:
            raise _corrupt(exc) from None

    def bag(self, position: int) -> bytes:
        return self.read(position, True).rstrip(b"\n")

    def bag_error(self, position: int, entity_id: str, reason: str) -> PeyvandError:
        line_no = _FIRST_TEXT_LINE + 2 * position + 1
        return InputError(self.path, line_no, f"corrupt index cache: {reason}")


def _positions(values: list, n: int) -> bool:
    """Whether each of `values` is an integer record position from 0 to n - 1."""
    return not values or (set(map(type, values)) == {int} and 0 <= min(values) and max(values) < n)


def _load_body(
    fh: BinaryIO, path: str | Path, digest: hashlib._Hash
) -> tuple[KnowledgeBase, ReferenceLists]:
    """The knowledge base and lists of an index whose header `fh` has read
    and `digest` has hashed."""
    tier1 = []
    for line_no, name in enumerate(_TIER1, start=2):
        line = fh.readline()
        if not line:
            raise InputError(path, None, f"it ends before the {name} line")
        digest.update(line)
        tier1.append(decode_json(line, path, line_no))
    meta, frequencies, ids, aliases, classes, pos, rare, links = tier1

    def error(name: str, reason: str) -> InputError:
        return InputError(path, 2 + _TIER1.index(name), reason)

    if reason := key_error(meta, "metadata", _META_KEYS):
        raise error("metadata", reason)
    n = meta["records"]
    if type(n) is not int or n < 0:
        raise error("metadata", "records must be an integer >= 0")
    lists, stopwords = parse_reference_lists(meta["lists"], path, 2)

    # The ids, strictly increasing, which leaves out a repeated one.
    if type(ids) is not list or len(ids) != n or not set(map(type, ids)) <= {str} or not all(ids):
        raise error("ids", f"ids must be an array of {n} non-empty strings")
    for before, entity_id in zip(ids, ids[1:]):
        if not before < entity_id:
            what = "duplicate" if before == entity_id else "unsorted"
            raise error("ids", f"{what} entity id {entity_id!r}")
    # The columns, each checked whole.
    for name, column, kind, kinds in (
        ("class", classes, str, "strings"),
        ("pos", pos, str, "strings"),
        ("rare", rare, bool, "booleans"),
        ("links", links, list, "arrays"),
    ):
        if type(column) is not list or len(column) != n or not set(map(type, column)) <= {kind}:
            raise error(name, f"{name} must be an array of {n} {kinds}")
    if unknown := set(pos).difference(_POS):
        raise error("pos", f"pos {min(unknown)!r} is invalid")
    if not _positions(list(chain.from_iterable(links)), n):
        raise error("links", f"links must be record positions from 0 to {n - 1}")
    if (self_link := next((k for k, linked in enumerate(links) if k in linked), None)) is not None:
        raise error("links", f"entity {ids[self_link]!r} links to itself")
    # The alias table: each key names at least one record.
    if type(aliases) is not dict or not all(type(members) is list for members in aliases.values()):
        raise error("aliases", "aliases must map each key to an array of positions")
    if (empty := next((key for key, members in aliases.items() if not members), None)) is not None:
        raise error("aliases", f"alias {empty!r} names no entity")
    if not _positions(list(chain.from_iterable(aliases.values())), n):
        raise error("aliases", f"aliases must hold record positions from 0 to {n - 1}")

    # Tier 2, read once and not decoded: each record's offset, and its
    # article counted when its bag is not empty, `["",[]]`.
    offsets = array("q")
    stored = 0
    offset = fh.tell()
    for text_line in fh:
        bag_line = fh.readline()
        offsets.append(offset)
        if not bag_line:
            line_no = _FIRST_TEXT_LINE + 2 * len(offsets) - 2
            raise InputError(path, line_no, "the index ends before this record's article line")
        digest.update(text_line)
        digest.update(bag_line)
        offset += len(text_line) + len(bag_line)
        stored += not bag_line.startswith(b'[""')
    if len(offsets) != n:
        raise InputError(path, None, f"{len(offsets)} records, not {n}")

    # Every non-empty stored article comes from a non-empty raw one.
    doc_count = meta["doc_count"]
    if type(doc_count) is not int or not stored <= doc_count <= n:
        raise error("metadata", f"doc_count must be an integer from {stored} to {n}")
    # A term occurs in at least one and at most every non-empty article,
    # and the frequencies leave the stopwords out.
    if not isinstance(frequencies, dict) or not all(
        type(count) is int and 0 < count <= doc_count for count in frequencies.values()
    ):
        raise error("doc_freq", f"doc_freq must map terms to integers from 1 to {doc_count}")
    if counted := sorted(stopwords.intersection(frequencies)):
        raise error("metadata", f"stopword {counted[0]!r} has a document frequency")

    source = IndexText(path, fh, offsets)
    record = ids.__getitem__
    entities = {
        entity_id: EntityRecord(
            entity_id, kb_class, _POS[pos_value], frozenset(map(record, linked)), is_rare,
            source, k,
        )
        for k, (entity_id, kb_class, pos_value, is_rare, linked) in enumerate(
            zip(ids, classes, pos, rare, links)
        )
    }
    alias_index = {key: frozenset(map(record, members)) for key, members in aliases.items()}
    kb = KnowledgeBase(
        entities, alias_index, doc_count, frequencies, stopwords, digest.hexdigest()
    )
    return kb, lists
