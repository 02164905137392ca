from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peyvand.cache import (
    CACHE_VERSION,
    MAGIC,
    CacheError,
    CacheVersionMismatch,
    load_index,
    save_index,
)
from peyvand.errors import PeyvandError

from mutations import mutations


class TestIndexCache:
    def test_round_trip_preserves_kb_and_lists(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        kb2, lists2 = load_index(path)
        assert kb2.entities == kb.entities
        assert kb2.alias_index == kb.alias_index
        assert kb2.doc_count == kb.doc_count
        assert kb2.doc_freq == kb.doc_freq
        assert kb2.normalizer == kb.normalizer
        assert kb2.dropped_links == kb.dropped_links
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
        with pytest.raises(CacheError):
            load_index(path)

    def test_version_mismatch_demands_rebuild(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        raw = path.read_bytes()
        stale = raw.replace(b":v%d\n" % CACHE_VERSION, b":v%d\n" % (CACHE_VERSION + 1), 1)
        path.write_bytes(stale)
        with pytest.raises(CacheVersionMismatch) as err:
            load_index(path)
        assert "rebuild" in str(err.value)

    def test_corrupt_body_rejected(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CacheError):
            load_index(path)

    def test_v1_index_demands_rebuild(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        _, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(MAGIC + b":v1\n" + body)
        with pytest.raises(CacheVersionMismatch, match="rebuild it with `peyvand build-index`"):
            load_index(path)

    def test_body_holds_dump_records_lists_and_frequencies_only(self, tmp_path, kb, lists):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)
        payload = json.loads(path.read_bytes().partition(b"\n")[2])
        assert set(payload) == {"doc_freq", "dropped_links", "entities", "lists", "normalizer"}
        dump_keys = {"label", "variants", "class", "ner_type", "pos", "article", "links", "rare"}
        assert all(set(record) == dump_keys for record in payload["entities"].values())
        assert set(payload["lists"]) == {"rare_blocklist", "class_filters", "type_mapping", "stopwords"}

    def test_load_tokenizes_no_article(self, tmp_path, kb, lists, monkeypatch):
        path = tmp_path / "kb.idx"
        save_index(kb, lists, path)

        def no_tokenize(*args, **kwargs):
            raise AssertionError("load_index tokenized an article")

        monkeypatch.setattr("peyvand.kb.tokenize", no_tokenize)
        kb2, _ = load_index(path)
        assert kb2 == kb


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory, kb, lists):
    path = tmp_path_factory.mktemp("mutated") / "kb.idx"
    save_index(kb, lists, path)
    header, _, body = path.read_bytes().partition(b"\n")
    return path, header, json.loads(body)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_body_mutation_loads_or_raises_peyvand_error(saved_index, data):
    path, header, payload = saved_index
    mutated = data.draw(mutations(payload))
    path.write_bytes(header + b"\n" + json.dumps(mutated, ensure_ascii=False).encode("utf-8"))
    try:
        load_index(path)
    except PeyvandError:
        pass
