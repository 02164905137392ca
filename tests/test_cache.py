from __future__ import annotations

import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peyvand import cache as cache_module, kb as kb_module, linker
from peyvand.cache import CACHE_VERSION, MAGIC, IndexText, load_index, save_index
from peyvand.cli import main
from peyvand.corpus import Document, Mention, save_corpus
from peyvand.errors import InputError
from peyvand.linker import LinkerConfig, link_document

from mutations import dumps, mutations

# The body of an index read by `_read_lines` is its eight tier-1 values
# (the metadata, doc_freq, the ids, the alias table, then the class, pos,
# rare and links columns), then each record's label line followed by its
# bag. A value's line is its index plus 2: the fourth record's label line
# and bag are values 14 and 15, on lines 16 and 17.
IDS, ALIASES, CLASS, POS, RARE, LINKS = range(2, 8)
TIER1 = 8
FOURTH = TIER1 + 2 * 3
FOURTH_BAG = FOURTH + 1


def _read_lines(path):
    """The header line of an index and the decoded value of each body line."""
    header, *body = path.read_bytes().splitlines(keepends=True)
    return header, [json.loads(line) for line in body]


def _stale(path, found):
    """The exact error of an index whose header has version `found`."""
    reason = (f"index cache version {found} does not match v{CACHE_VERSION}; "
              "rebuild it with `peyvand build-index`")
    return rf"^{re.escape(f'{path}: {reason}')}$"


def _write_lines(path, header, values):
    body = "".join(dumps(v) + "\n" for v in values)
    path.write_bytes(header + body.encode("utf-8"))


def _v7_body(values):
    """The body values of the v7 index of the same knowledge base: the
    metadata, doc_freq, then each record in the dump's shape without its
    article, its links as ids, followed by its bag."""
    meta, frequencies, ids, _, classes, pos, rare, links, *tier2 = values
    body = [meta, frequencies]
    for k, entity_id in enumerate(ids):
        record = {"id": entity_id, **tier2[2 * k], "class": classes[k], "pos": pos[k],
                  "links": [ids[j] for j in links[k]], "rare": rare[k]}
        body += [record, tier2[2 * k + 1]]
    return body


def _link_entity(kb, lists, entity_id):
    """Link one mention of the entity's label with every filter off, which
    scores the entity's article."""
    label = kb.entities[entity_id].canonical_label
    doc = Document("d", "test", label, [Mention(0, len(label), label)])
    return link_document(kb, lists, LinkerConfig(filters=frozenset()), doc)


def _no_bag_decoding(monkeypatch):
    """Make every decoding of an article bag, and every read of a tier-2
    line, fail the test."""

    def no_decoding(data):
        raise AssertionError(f"decoded the bag {data!r}")

    def no_read(self, position, bag):
        raise AssertionError(f"read a tier-2 line of the record at {position}")

    for module in (kb_module, linker):
        monkeypatch.setattr(module, "read_bag", no_decoding)
    monkeypatch.setattr(IndexText, "read", no_read)


def _label_line_fails_when_read(tmp_path, kb, lists, edit, reason):
    """Check that an index in which `edit` changes the fourth record's
    label line loads, and that each read of that record's label, variants
    or NER type fails for `reason` on the line: the checks of a label line
    run when it is read, not at load."""
    path = tmp_path / "kb.idx"
    save_index(kb, lists, path)
    header, values = _read_lines(path)
    edit(values[FOURTH])
    _write_lines(path, header, values)
    kb2, _ = load_index(path)
    record = kb2.entities[values[IDS][3]]
    message = f"{path}:16: corrupt index cache: {reason}"
    for field in ("canonical_label", "variant_labels", "ner_type"):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            getattr(record, field)
    assert record.article_text == kb.entities[record.id].article_text


class TestIndexCache:
    def test_round_trip_preserves_kb_and_lists(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        kb2, lists2 = load_index(path)
        assert kb2.entities == kb.entities
        assert kb2.alias_index == kb.alias_index
        assert kb2.doc_count == kb.doc_count
        assert kb2.doc_freq == kb.doc_freq
        assert lists2 == lists

    def test_rebuild_is_byte_identical(self, tmp_path, kb, lists):
        first = tmp_path / "a.idx"
        second = tmp_path / "b.idx"
        save_index(kb, lists, first)
        save_index(kb, lists, second)
        assert first.read_bytes() == second.read_bytes()

    def test_saving_a_loaded_kb_over_its_own_index_keeps_it(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        saved = path.read_bytes()
        kb2, lists2 = load_index(path)
        save_index(kb2, lists2, path)
        assert path.read_bytes() == saved
        assert kb2 == kb
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.idx"
        path.write_bytes(b"not an index\n{}")
        reason = "not an index cache (bad magic header)"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}: {reason}')}$"):
            load_index(path)

    def test_version_mismatch_demands_rebuild(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        raw = path.read_bytes()
        stale = raw.replace(b":v%d\n" % CACHE_VERSION, b":v%d\n" % (CACHE_VERSION + 1), 1)
        path.write_bytes(stale)
        with pytest.raises(InputError, match=_stale(path, f"v{CACHE_VERSION + 1}")):
            load_index(path)

    def test_corrupt_body_rejected(self, tmp_path, kb, lists):
        # Cut inside the last line, the last record's bag: the index loads,
        # and the bag fails on first use.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        path.write_bytes(path.read_bytes()[:-20])
        last = len(path.read_bytes().splitlines())
        prefix = re.escape(f"{path}:{last}: corrupt index cache: ")
        kb2, lists2 = load_index(path)
        with pytest.raises(InputError, match=f"^{prefix}"):
            _link_entity(kb2, lists2, max(kb2.entities))

    def test_cut_record_line_rejected(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: -20 - len(raw.splitlines(keepends=True)[-1])])
        last = len(path.read_bytes().splitlines())
        prefix = re.escape(f"{path}:{last}: corrupt index cache: ")
        with pytest.raises(InputError, match=f"^{prefix}"):
            load_index(path)

    def test_v1_index_demands_rebuild(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        _, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(MAGIC + b":v1\n" + body)
        with pytest.raises(InputError, match=_stale(path, "v1")):
            load_index(path)

    def test_v3_index_demands_rebuild(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        meta, *rest = _v7_body(_read_lines(path)[1])
        v3_meta = {**meta, "normalizer": "persian", "dropped_links": 0}
        _write_lines(path, MAGIC + b":v3\n", [v3_meta, *rest])
        with pytest.raises(InputError, match=_stale(path, "v3")):
            load_index(path)

    def test_v4_index_demands_rebuild(self, tmp_path, kb, lists):
        # v4 kept raw articles and no doc_count.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        meta, *rest = _v7_body(_read_lines(path)[1])
        v4_meta = {key: value for key, value in meta.items() if key != "doc_count"}
        _write_lines(path, MAGIC + b":v4\n", [v4_meta, *rest])
        with pytest.raises(InputError, match=_stale(path, "v4")):
            load_index(path)

    def test_v5_index_demands_rebuild(self, tmp_path, kb, lists):
        # v5 kept each article as its normal-form text, stopwords included.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        meta, frequencies, *body = _v7_body(_read_lines(path)[1])
        records = body[::2]
        for record, (text, counts) in zip(records, body[1::2], strict=True):
            record["article"] = " ".join(
                t for t, n in zip(text.split(), counts, strict=True) for _ in range(n)
            )
        _write_lines(path, MAGIC + b":v5\n", [meta, frequencies, *records])
        with pytest.raises(InputError, match=_stale(path, "v5")):
            load_index(path)

    def test_v6_index_demands_rebuild(self, tmp_path, kb, lists):
        # v6 kept each article bag in its record line.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        meta, frequencies, *body = _v7_body(_read_lines(path)[1])
        records = [{**record, "article": bag} for record, bag in zip(body[::2], body[1::2])]
        _write_lines(path, MAGIC + b":v6\n", [meta, frequencies, *records])
        with pytest.raises(InputError, match=_stale(path, "v6")):
            load_index(path)

    def test_v7_index_demands_rebuild(self, tmp_path, kb, lists):
        # v7 kept each record in the dump's shape, its bag on the next line.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        _write_lines(path, MAGIC + b":v7\n", _v7_body(_read_lines(path)[1]))
        with pytest.raises(InputError, match=_stale(path, "v7")):
            load_index(path)

    def test_body_holds_the_two_tiers(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        _, (meta, frequencies, ids, aliases, classes, pos, rare, links, *tier2) = _read_lines(path)
        assert set(meta) == {"doc_count", "lists", "records"}
        assert meta["doc_count"] == kb.doc_count
        assert set(meta["lists"]) == {"rare_blocklist", "class_filters", "type_mapping", "stopwords"}
        assert frequencies == kb.doc_freq
        assert ids == sorted(kb.entities)
        assert meta["records"] == len(ids)
        records = [kb.entities[entity_id] for entity_id in ids]
        assert {key: {ids[k] for k in members} for key, members in aliases.items()} == kb.alias_index
        assert all(members == sorted(members) for members in aliases.values())
        assert classes == [e.kb_class for e in records]
        assert pos == [e.pos_category.value for e in records]
        assert rare == [e.rare for e in records]
        assert [{ids[k] for k in linked} for linked in links] == [e.out_links for e in records]
        assert all(linked == sorted(linked) for linked in links)
        assert tier2[::2] == [
            {"label": e.canonical_label, "ner_type": e.ner_type.value,
             "variants": sorted(e.variant_labels)}
            for e in records
        ]
        assert tier2[1::2] == [[e.article_text, kb_module.read_bag(e.bag)[1]] for e in records]

    @pytest.mark.parametrize(
        "column, edit, reason",
        [
            (IDS, lambda ids: ids.__setitem__(slice(3, 5), ids[4:2:-1]),
             "unsorted entity id {ids[3]!r}"),
            (IDS, lambda ids: ids.__setitem__(0, ""), "ids must be an array of {n} non-empty strings"),
            (IDS, lambda ids: ids.pop(), "ids must be an array of {n} non-empty strings"),
            (CLASS, lambda classes: classes.__setitem__(3, 7), "class must be an array of {n} strings"),
            (CLASS, lambda classes: classes.pop(), "class must be an array of {n} strings"),
            (POS, lambda pos: pos.__setitem__(3, "VERB"), "pos 'VERB' is invalid"),
            (POS, lambda pos: pos.__setitem__(3, None), "pos must be an array of {n} strings"),
            (POS, lambda pos: pos.pop(), "pos must be an array of {n} strings"),
            (RARE, lambda rare: rare.__setitem__(3, 0), "rare must be an array of {n} booleans"),
            (RARE, lambda rare: rare.pop(), "rare must be an array of {n} booleans"),
            (LINKS, lambda links: links.__setitem__(3, [-1]),
             "links must be record positions from 0 to {last}"),
            (LINKS, lambda links: links.__setitem__(3, [True]),
             "links must be record positions from 0 to {last}"),
            (LINKS, lambda links: links.__setitem__(3, 1), "links must be an array of {n} arrays"),
            (LINKS, lambda links: links.pop(), "links must be an array of {n} arrays"),
            (ALIASES, lambda aliases: aliases.__setitem__(min(aliases), [999]),
             "aliases must hold record positions from 0 to {last}"),
            (ALIASES, lambda aliases: aliases.__setitem__(min(aliases), [-1]),
             "aliases must hold record positions from 0 to {last}"),
            (ALIASES, lambda aliases: aliases.__setitem__(min(aliases), []),
             "alias {first!r} names no entity"),
            (ALIASES, lambda aliases: aliases.__setitem__(min(aliases), 0),
             "aliases must map each key to an array of positions"),
        ],
        ids=["unsorted-id", "empty-id", "short-ids", "class-not-a-string", "short-class",
             "unknown-pos", "pos-not-a-string", "short-pos", "rare-not-a-bool", "short-rare",
             "negative-link", "link-a-bool", "links-not-an-array", "short-links",
             "alias-out-of-range", "negative-alias", "empty-alias", "alias-not-an-array"],
    )
    def test_bad_tier1_column_names_its_line(self, tmp_path, kb, lists, column, edit, reason):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        ids = values[IDS]
        reason = reason.format(ids=list(ids), n=len(ids), last=len(ids) - 1,
                               first=min(values[ALIASES]))
        edit(values[column])
        _write_lines(path, header, values)
        message = f"{path}:{column + 2}: corrupt index cache: {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda bag: bag[0], "article must be an array of its terms and their counts"),
            (lambda bag: [bag[0]], "article must be an array of its terms and their counts"),
            (lambda bag: [bag[0], bag[1], []],
             "article must be an array of its terms and their counts"),
            (lambda bag: [bag[1], bag[1]], "article must be an array of its terms and their counts"),
            (lambda bag: [bag[0], " ".join(map(str, bag[1]))],
             "article counts must be an array of positive integers"),
            (lambda bag: [bag[0], dict(enumerate(bag[1]))],
             "article counts must be an array of positive integers"),
            (lambda bag: [bag[0], [*bag[1][:-1], 0]],
             "article counts must be an array of positive integers"),
            (lambda bag: [bag[0], [-1, *bag[1][1:]]],
             "article counts must be an array of positive integers"),
            (lambda bag: [bag[0], [*bag[1][:-1], 1.5]],
             "article counts must be an array of positive integers"),
            (lambda bag: [bag[0], [*bag[1][:-1], True]],
             "article counts must be an array of positive integers"),
            (lambda bag: [bag[0], [*bag[1], 1]], "article holds {n} term(s) but {more} count(s)"),
            (lambda bag: [bag[0], bag[1][:-1]], "article holds {n} term(s) but {fewer} count(s)"),
            # 10**400 converts to no float; 10**300 does, but its square overflows the norm.
            (lambda bag: [bag[0], [10**300, *bag[1][1:]]],
             "stored article counts are too large to weigh"),
            (lambda bag: [bag[0], [10**400, *bag[1][1:]]],
             "stored article counts are too large to weigh"),
        ],
        ids=["string", "terms-only", "three-items", "counts-for-terms", "counts-string",
             "counts-object", "zero", "negative", "float", "bool", "one-more", "one-fewer",
             "norm-overflows", "int-overflows"],
    )
    def test_corrupt_article_bag_names_its_line(self, tmp_path, kb, lists, edit, reason):
        # The index loads, and the bag fails on the first use of its article.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        bag = values[FOURTH_BAG]
        n = len(bag[1])
        assert n >= 2
        values[FOURTH_BAG] = edit(bag)
        _write_lines(path, header, values)
        kb2, lists2 = load_index(path)
        reason = reason.format(n=n, more=n + 1, fewer=n - 1)
        message = f"{path}:17: corrupt index cache: {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            _link_entity(kb2, lists2, values[IDS][3])
        assert values[IDS][3] not in kb2.article_vectors

    @pytest.mark.parametrize(
        "escape", [b"\\ud800", b"\\uDC00", b"\\ud83d\\ude00"], ids=["high", "low", "pair"]
    )
    def test_lone_surrogate_names_its_line(self, tmp_path, kb, lists, escape):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[FOURTH + 1] = lines[FOURTH + 1].replace(b'"label":"', b'"label":"' + escape, 1)
        path.write_bytes(b"".join(lines))
        # The index loads, and the label line fails when it is read.
        kb2, _ = load_index(path)
        if escape.endswith(b"\\ude00"):  # a pair
            assert sum(e.canonical_label.startswith("\U0001f600") for e in kb2.entities.values()) == 1
            return
        record = kb2.entities[sorted(kb2.entities)[3]]
        message = f"{path}:16: corrupt index cache: invalid JSON: lone surrogate {escape.decode()}"
        for field in ("canonical_label", "variant_labels", "ner_type"):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                getattr(record, field)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda text: text.update(label=""), "label must be a non-empty string"),
            (lambda text: text.update(label=7), "label must be a non-empty string"),
            (lambda text: text.update(variants="x"), "variants must be an array of strings"),
            (lambda text: text.update(variants=[7]), "variants must be an array of strings"),
            (lambda text: text.pop("label"), "label line missing key 'label'"),
            (lambda text: text.update(id="E04"), "unknown keys in label line: ['id']"),
        ],
        ids=["empty-label", "label-not-a-string", "variants-not-an-array",
             "variant-not-a-string", "no-label", "id"],
    )
    def test_bad_label_line_names_its_line_when_read(self, tmp_path, kb, lists, edit, reason):
        _label_line_fails_when_read(tmp_path, kb, lists, edit, reason)

    def test_bad_record_names_its_line(self, tmp_path, kb, lists):
        _label_line_fails_when_read(
            tmp_path, kb, lists, lambda text: text.update(ner_type="XX"), "ner_type 'XX' is invalid"
        )

    def test_article_on_a_record_line_names_its_line(self, tmp_path, kb, lists):
        # The bag is on the line after the label line, never in it.
        _label_line_fails_when_read(
            tmp_path, kb, lists, lambda text: text.update(article=["", []]),
            "unknown keys in label line: ['article']",
        )

    def test_duplicate_record_id_names_its_line(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        ids = values[IDS]
        ids[4] = ids[3]
        _write_lines(path, header, values)
        message = f"{path}:4: corrupt index cache: duplicate entity id {ids[3]!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    @pytest.mark.parametrize("target", [None, 3], ids=["missing-id", "self-link"])
    def test_dangling_link_is_corrupt(self, tmp_path, kb, lists, target):
        # A position past the last record, or the fourth record's own.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        ids = values[IDS]
        values[LINKS][3] = [len(ids) if target is None else target]
        _write_lines(path, header, values)
        reason = (f"links must be record positions from 0 to {len(ids) - 1}" if target is None
                  else f"entity {ids[3]!r} links to itself")
        message = f"{path}:9: corrupt index cache: {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    def test_label_line_not_an_object_names_its_line_when_read(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        values[FOURTH] = list(values[FOURTH].values())
        _write_lines(path, header, values)
        kb2, _ = load_index(path)
        message = f"{path}:16: corrupt index cache: label line must be a JSON object"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            kb2.entities[values[IDS][3]].canonical_label

    def test_bad_lists_name_the_metadata_line(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        values[0]["lists"]["class_filters"] = []
        _write_lines(path, header, values)
        message = f"{path}:2: corrupt index cache: class_filters must be an object"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    def test_unknown_lists_key_names_the_metadata_line(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        values[0]["lists"]["rare_blocklst"] = values[0]["lists"].pop("rare_blocklist")
        _write_lines(path, header, values)
        reason = "corrupt index cache: unknown keys in reference lists: ['rare_blocklst']"
        message = f"{path}:2: {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    def test_unknown_metadata_key_names_the_metadata_line(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        values[0]["normalizer"] = "persian"
        _write_lines(path, header, values)
        message = f"{path}:2: corrupt index cache: unknown keys in metadata: ['normalizer']"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda stored, records: str(stored), lambda stored, records: float(stored),
         lambda stored, records: True, lambda stored, records: None,
         lambda stored, records: stored - 1, lambda stored, records: records + 1],
        ids=["string", "float", "bool", "null", "below-stored-articles", "above-records"],
    )
    def test_bad_doc_count_names_the_metadata_line(self, tmp_path, kb, lists, edit):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        stored = sum(1 for e in kb.entities.values() if e.article_text)
        values[0]["doc_count"] = edit(stored, len(kb.entities))
        _write_lines(path, header, values)
        reason = f"doc_count must be an integer from {stored} to {len(kb.entities)}"
        message = f"{path}:2: corrupt index cache: {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    @pytest.mark.parametrize(
        "count", ["7", 7.0, True, None, -1], ids=["string", "float", "bool", "null", "negative"]
    )
    def test_bad_record_count_names_the_metadata_line(self, tmp_path, kb, lists, count):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        values[0]["records"] = count
        _write_lines(path, header, values)
        message = f"{path}:2: corrupt index cache: records must be an integer >= 0"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    @pytest.mark.parametrize(
        "keep,reason",
        [(1, "it ends before the doc_freq line"), (-2, "{} records, not {}")],
        ids=["after-metadata", "at-a-record-boundary"],
    )
    def test_cut_index_raises_cache_error(self, tmp_path, kb, lists, keep, reason):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        _write_lines(path, header, values[:keep])
        reason = f"corrupt index cache: {reason.format(len(kb.entities) - 1, len(kb.entities))}"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}: {reason}')}$"):
            load_index(path)

    def test_record_without_its_bag_names_its_line(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        _write_lines(path, header, values[:-1])
        reason = "corrupt index cache: the index ends before this record's article line"
        message = f"{path}:{len(values)}: {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    def test_stopword_with_a_document_frequency_names_the_metadata_line(self, tmp_path, kb, lists):
        # Linking would drop the term from posts yet weigh it in every
        # stored bag that holds it.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        term = max(kb.doc_freq, key=kb.doc_freq.get)
        values[0]["lists"]["stopwords"].append(term)
        _write_lines(path, header, values)
        reason = f"corrupt index cache: stopword {term!r} has a document frequency"
        with pytest.raises(InputError, match=f"^{re.escape(f'{path}:2: {reason}')}$"):
            load_index(path)

    def test_load_and_stats_decode_no_bag(self, tmp_path, kb, lists, data_dir, monkeypatch):
        # Nor do they read any tier-2 line, and neither does a `link` in
        # which no mention's surface is an alias.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        _no_bag_decoding(monkeypatch)
        kb2, _ = load_index(path)
        assert kb2.entities.keys() == kb.entities.keys()
        assert kb2.article_vectors == {}
        stats = ["stats", "--corpus", str(data_dir / "mini_corpus.jsonl"), "--index", str(path),
                 "--out", str(tmp_path / "stats.txt")]
        assert main(stats) == 0
        corpus = tmp_path / "corpus.jsonl"
        text = "سفر ناشناس به جایی دور"
        save_corpus([Document("d", "test", text, [Mention(4, 10, "ناشناس")])], corpus)
        assert "ناشناس" not in kb2.alias_index
        out = tmp_path / "p.jsonl"
        assert main(["link", "--index", str(path), "--corpus", str(corpus), "--out", str(out)]) == 0
        assert out.exists()

    def test_linking_decodes_each_scored_bag_once(self, tmp_path, kb, lists, mini_corpus,
                                                  monkeypatch):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        kb2, lists2 = load_index(path)
        decoded = []

        def counting(data):
            decoded.append(data)
            return kb_module.read_bag(data)

        reads, read = [], IndexText.read

        def reading(self, position, bag):
            reads.append((position, bag))
            return read(self, position, bag)

        monkeypatch.setattr(linker, "read_bag", counting)
        monkeypatch.setattr(IndexText, "read", reading)
        for _ in range(2):
            for doc in mini_corpus:
                link_document(kb2, lists2, LinkerConfig(), doc)
        assert kb2.article_vectors
        assert len(decoded) == len(kb2.article_vectors) < len(kb2.entities)
        # One read of each scored bag's line, and of no label line.
        assert len(reads) == len(set(reads)) == len(decoded)
        assert all(bag for _, bag in reads)

    def test_load_tokenizes_no_article(self, tmp_path, kb, lists, monkeypatch):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)

        def no_terms(*args, **kwargs):
            raise AssertionError("load_index tokenized an article")

        monkeypatch.setattr("peyvand.kb.terms", no_terms)
        kb2, _ = load_index(path)
        assert kb2 == kb

    @pytest.mark.parametrize("cut", [0, 20], ids=["whole", "cut-inside-the-last-line"])
    def test_load_hashes_the_whole_file(self, tmp_path, kb, lists, cut):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) - cut])
        kb2, _ = load_index(path)
        assert kb2.index_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert kb.index_sha256 is None
        assert kb2 == kb or cut  # `==` ignores the digest

    def test_dropping_a_loaded_kb_closes_its_index(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        kb2, _ = load_index(path)
        record = kb2.entities["E01"]
        index = record.source.file
        del kb2
        assert not index.closed  # a record still reads it
        assert record.canonical_label == kb.entities["E01"].canonical_label
        del record
        assert index.closed

    def test_failed_load_closes_the_index(self, tmp_path, kb, lists, monkeypatch):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        values[RARE][0] = None
        _write_lines(path, header, values)
        opened = []

        def opening(*args):
            opened.append(open(*args))
            return opened[-1]

        monkeypatch.setattr(cache_module, "open", opening, raising=False)
        with pytest.raises(InputError):
            load_index(path)
        assert [f.closed for f in opened] == [True]


# The index that `build-index` writes for the bundled mini KB: the same
# bytes on every supported Python.
MINI_INDEX_SHA256 = "7b94327a279f7f35bdc5426ec30f910f28bdd4dc77ab29de836022093cac031b"


def test_mini_index_bytes_are_pinned(tmp_path, data_dir):
    path = tmp_path / "mini.idx"
    argv = ["build-index", "--kb", str(data_dir / "mini_kb.jsonl"),
            "--lists", str(data_dir / "reference_lists.json"), "--out", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MINI_INDEX_SHA256


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory, kb, lists):
    path = tmp_path_factory.mktemp("mutated") / "kb.idx"
    save_index(kb, lists, path)
    return path, *_read_lines(path)


def _tier2_error(exc, path, lines):
    """Check that `exc` is the error of a tier-2 line of the index `path`
    of `lines` lines."""
    assert str(exc).startswith(f"{path}:{exc.line}: corrupt index cache: ")
    assert exc.line is not None and TIER1 + 2 <= exc.line <= lines


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_body_mutation_loads_or_raises_peyvand_error(saved_index, data):
    """One body line deleted, or one value of one line changed or deleted:
    the index loads, or fails with an `InputError` that names it and a line
    of its body, or no line. Once it loads, each record's label, variants,
    NER type, bag and article text read, and each article vector builds,
    or fails with such an error that names a tier-2 line."""
    path, header, values = saved_index
    _write_lines(path, header, data.draw(mutations(values)))
    lines = len(path.read_bytes().splitlines())
    try:
        kb, _ = load_index(path)
    except InputError as exc:
        where = path if exc.line is None else f"{path}:{exc.line}"
        assert str(exc).startswith(f"{where}: corrupt index cache: ")
        assert exc.line is None or 2 <= exc.line <= lines
        return
    for record in kb.entities.values():
        for field in ("canonical_label", "variant_labels", "ner_type", "bag", "article_text"):
            try:
                getattr(record, field)
            except InputError as exc:
                _tier2_error(exc, path, lines)
        try:
            linker._article_vector(kb, record)
        except InputError as exc:
            _tier2_error(exc, path, lines)
