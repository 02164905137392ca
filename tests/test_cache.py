from __future__ import annotations

import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peyvand.cache import CACHE_VERSION, MAGIC, load_index, save_index
from peyvand.cli import main
from peyvand.errors import InputError

from mutations import dumps, mutations


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
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        path.write_bytes(path.read_bytes()[:-20])
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
        _, (meta, *rest) = _read_lines(path)
        v3_meta = {**meta, "normalizer": "persian", "dropped_links": 0}
        _write_lines(path, MAGIC + b":v3\n", [v3_meta, *rest])
        with pytest.raises(InputError, match=_stale(path, "v3")):
            load_index(path)

    def test_v4_index_demands_rebuild(self, tmp_path, kb, lists):
        # v4 kept raw articles and no doc_count.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        _, (meta, *rest) = _read_lines(path)
        v4_meta = {key: value for key, value in meta.items() if key != "doc_count"}
        _write_lines(path, MAGIC + b":v4\n", [v4_meta, *rest])
        with pytest.raises(InputError, match=_stale(path, "v4")):
            load_index(path)

    def test_v5_index_demands_rebuild(self, tmp_path, kb, lists):
        # v5 kept each article as its normal-form text, stopwords included.
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        _, (meta, frequencies, *records) = _read_lines(path)
        for record in records:
            text, counts = record["article"]
            record["article"] = " ".join(
                t for t, n in zip(text.split(), counts, strict=True) for _ in range(n)
            )
        _write_lines(path, MAGIC + b":v5\n", [meta, frequencies, *records])
        with pytest.raises(InputError, match=_stale(path, "v5")):
            load_index(path)

    def test_body_holds_dump_records_lists_and_frequencies_only(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        _, (meta, frequencies, *records) = _read_lines(path)
        assert set(meta) == {"doc_count", "lists", "records"}
        assert meta["doc_count"] == kb.doc_count
        assert set(meta["lists"]) == {"rare_blocklist", "class_filters", "type_mapping", "stopwords"}
        assert frequencies == kb.doc_freq
        dump_keys = {"id", "label", "variants", "class", "ner_type", "pos", "article", "links", "rare"}
        assert all(set(record) == dump_keys for record in records)
        assert [record["article"] for record in records] == [
            [kb.entities[record["id"]].article_text, list(kb.entities[record["id"]].article_counts)]
            for record in records
        ]
        assert [record["id"] for record in records] == sorted(kb.entities)
        assert meta["records"] == len(records)

    def test_duplicate_record_id_names_its_line(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        _write_lines(path, header, values + [values[2]])
        reason = f"corrupt index cache: duplicate entity id {values[2]['id']!r}"
        message = f"{path}:{len(values) + 2}: {reason}"
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
        ],
        ids=["string", "terms-only", "three-items", "counts-for-terms", "counts-string",
             "counts-object", "zero", "negative", "float", "bool", "one-more", "one-fewer"],
    )
    def test_corrupt_article_bag_names_its_line(self, tmp_path, kb, lists, edit, reason):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        bag = values[5]["article"]  # the fourth record, on line 7
        n = len(bag[1])
        assert n >= 2
        values[5]["article"] = edit(bag)
        _write_lines(path, header, values)
        reason = reason.format(n=n, more=n + 1, fewer=n - 1)
        message = f"{path}:7: corrupt index cache: {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    @pytest.mark.parametrize(
        "escape", [b"\\ud800", b"\\uDC00", b"\\ud83d\\ude00"], ids=["high", "low", "pair"]
    )
    def test_lone_surrogate_names_its_line(self, tmp_path, kb, lists, escape):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[6] = lines[6].replace(b'"label":"', b'"label":"' + escape, 1)  # the fourth record
        path.write_bytes(b"".join(lines))
        if escape.endswith(b"\\ude00"):  # a pair
            kb2, _ = load_index(path)
            assert sum(e.canonical_label.startswith("\U0001f600") for e in kb2.entities.values()) == 1
            return
        message = f"{path}:7: corrupt index cache: invalid JSON: lone surrogate {escape.decode()}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    def test_bad_record_names_its_line(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        values[5]["ner_type"] = "XX"  # the fourth record, on line 7
        _write_lines(path, header, values)
        message = f"{path}:7: corrupt index cache: ner_type 'XX' is invalid"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

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

    @pytest.mark.parametrize("target", ["Q999999", None], ids=["missing-id", "self-link"])
    def test_dangling_link_is_corrupt(self, tmp_path, kb, lists, target):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        header, values = _read_lines(path)
        record = values[5]
        record["links"] = sorted({*record["links"], target or record["id"]})
        _write_lines(path, header, values)
        reason = "1 out-link(s) point outside the index or back at their entity"
        message = f"{path}: corrupt index cache: {reason}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_index(path)

    @pytest.mark.parametrize(
        "keep,reason",
        [(1, "it ends before the doc_freq line"), (-1, "{} records, not {}")],
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

    def test_load_tokenizes_no_article(self, tmp_path, kb, lists, monkeypatch):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)

        def no_terms(*args, **kwargs):
            raise AssertionError("load_index tokenized an article")

        monkeypatch.setattr("peyvand.kb.terms", no_terms)
        kb2, _ = load_index(path)
        assert kb2 == kb


# The index that `build-index` writes for the bundled mini KB: the same
# bytes on every supported Python.
MINI_INDEX_SHA256 = "bf06cf41c9ba5c661c4b9aaafaac47d163b6fb41471df0c85d1527c9af7f2d03"


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


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_body_mutation_loads_or_raises_peyvand_error(saved_index, data):
    """One body line deleted, or one value of one line changed or deleted:
    the index loads, or fails with an `InputError` that names it and a line
    of its body, or no line."""
    path, header, values = saved_index
    _write_lines(path, header, data.draw(mutations(values)))
    try:
        load_index(path)
    except InputError as exc:
        where = path if exc.line is None else f"{path}:{exc.line}"
        assert str(exc).startswith(f"{where}: corrupt index cache: ")
        assert exc.line is None or 2 <= exc.line <= len(path.read_bytes().splitlines())
