from __future__ import annotations

import functools
import gc
import json
import random
import types
import weakref

import pytest

from peyvand.kb import (
    DuplicateEntityId,
    MalformedRecord,
    NerType,
    PosCategory,
    build_kb,
    doc_freq,
    lists_to_obj,
    load_kb,
    load_reference_lists,
    lookup_alias,
    parse_record,
    parse_reference_lists,
)
from peyvand import textnorm
from peyvand.textnorm import normalize

from oracles import brute_force_candidates, oracle_tokenize


def _record(entity_id, label, variants=(), links=(), article="", **extra):
    rec = {
        "id": entity_id,
        "label": label,
        "variants": list(variants),
        "class": extra.pop("cls", "city"),
        "ner_type": extra.pop("ner_type", "LOC"),
        "pos": extra.pop("pos", "PROPER_NOUN"),
        "article": article,
        "links": list(links),
    }
    rec.update(extra)
    return json.dumps(rec, ensure_ascii=False)


@pytest.fixture
def lists_file(tmp_path):
    path = tmp_path / "lists.json"
    path.write_text(
        json.dumps({"rare_blocklist": [], "class_filters": {}, "type_mapping": {}, "stopwords": ["و"]}),
        encoding="utf-8",
    )
    return path


class TestLoadKb:
    def test_two_entities_one_variant_each_gives_four_alias_keys(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(
            _record("A", "آلفا", ["الف"]) + "\n" + _record("B", "بتا", ["ب"]) + "\n",
            encoding="utf-8",
        )
        kb, _ = load_kb(dump, lists_file)
        assert len(kb.alias_index) == 4

    def test_empty_dump(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text("", encoding="utf-8")
        kb, _ = load_kb(dump, lists_file)
        assert kb.entities == {}
        assert lookup_alias(kb, "هرچیزی") == frozenset()
        assert kb.doc_count == 0

    def test_dangling_link_dropped_with_warning_count(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(
            _record("E1", "یک", links=["E_missing", "E2"]) + "\n" + _record("E2", "دو") + "\n",
            encoding="utf-8",
        )
        kb, _ = load_kb(dump, lists_file)
        assert kb.entities["E1"].out_links == frozenset({"E2"})
        assert kb.dropped_links == 1
        assert kb.self_links == 0

    def test_self_link_dropped_and_counted(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E1", "یک", links=["E1"]) + "\n", encoding="utf-8")
        kb, _ = load_kb(dump, lists_file)
        assert kb.entities["E1"].out_links == frozenset()
        assert kb.dropped_links == 1
        assert kb.self_links == 1

    def test_duplicate_id_rejected(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E1", "یک") + "\n" + _record("E1", "باز یک") + "\n", encoding="utf-8")
        with pytest.raises(DuplicateEntityId):
            load_kb(dump, lists_file)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            json.dumps({"id": "E1"}),
            _record("", "خالی"),
            _record("E1", ""),
            _record("E1", "یک", ner_type="NOPE"),
            _record("E1", "یک", pos="NOPE"),
            json.dumps({"id": "E1", "label": "x", "variants": "nope", "class": "c",
                        "ner_type": "LOC", "pos": "OTHER", "article": "", "links": []}),
        ],
    )
    def test_malformed_record_reports_line(self, tmp_path, lists_file, line):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E0", "صفر") + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            load_kb(dump, lists_file)
        assert err.value.line == 2

    def test_rare_flag_defaults_false(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E1", "یک") + "\n" + _record("E2", "دو", rare=True) + "\n", encoding="utf-8")
        kb, _ = load_kb(dump, lists_file)
        assert not kb.entities["E1"].rare
        assert kb.entities["E2"].rare

    def test_doc_count_counts_nonempty_articles(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(
            _record("E1", "یک", article="متن کوتاه") + "\n" + _record("E2", "دو") + "\n",
            encoding="utf-8",
        )
        kb, _ = load_kb(dump, lists_file)
        assert kb.doc_count == 1


class TestReferenceLists:
    def test_penalty_must_be_strictly_between_zero_and_one(self, tmp_path):
        for bad in (0.0, 1.0, -0.3, 2):
            path = tmp_path / "lists.json"
            path.write_text(
                json.dumps({"class_filters": {"film": {"triggers": ["x"], "penalty": bad}}}),
                encoding="utf-8",
            )
            with pytest.raises(MalformedRecord):
                load_reference_lists(path)

    def test_triggers_and_stopwords_stored_normalized(self, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text(
            json.dumps(
                {
                    "class_filters": {"film": {"triggers": ["سينما"], "penalty": 0.5}},
                    "stopwords": ["  VE  "],
                },
                ensure_ascii=False,
            ),
            encoding="utf-8",
        )
        lists = load_reference_lists(path)
        assert "سینما" in lists.class_filters["film"].triggers  # Arabic yeh folded
        assert "ve" in lists.stopwords

    def test_unknown_ner_type_key_rejected(self, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({"type_mapping": {"PLACE": ["city"]}}), encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_reference_lists(path)


class TestLookupAlias:
    def test_canonical_label_lookup(self, kb):
        assert "E01" in lookup_alias(kb, "تهران")

    def test_ambiguous_surface_matches_brute_force_scan(self, kb):
        assert lookup_alias(kb, "تهران") == {"E01", "E08"}
        for surface in ["تهران", "پرسپولیس", "شهریار", "مس", "پاریس", "ناشناخته"]:
            assert set(lookup_alias(kb, surface)) == brute_force_candidates(kb, surface)

    def test_arabic_yeh_query_equals_persian_yeh_query(self, kb):
        # "دایی" spelled with Arabic yeh codepoints
        arabic = "دايي"
        assert lookup_alias(kb, arabic) == lookup_alias(kb, "دایی")
        assert "E10" in lookup_alias(kb, arabic)

    def test_lookup_is_normalization_invariant(self, kb):
        for surface in ["  تهران ", "پرسپوليس", "دیجی‌کالا", "ورزشگاه   آزادی"]:
            assert lookup_alias(kb, surface) == lookup_alias(kb, normalize(surface))

    def test_unknown_surface_is_empty_not_error(self, kb):
        assert lookup_alias(kb, "زرافه بنفش") == frozenset()

    def test_alias_round_trip_over_full_kb(self, kb):
        for entity in kb.entities.values():
            for label in {entity.canonical_label, *entity.variant_labels}:
                assert entity.id in lookup_alias(kb, label)

    def test_every_indexed_id_exists(self, kb):
        for ids in kb.alias_index.values():
            assert ids <= set(kb.entities)

    def test_identity_profile_keeps_exact_keys(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E1", "Foo", ["Bar"]) + "\n", encoding="utf-8")
        kb, _ = load_kb(dump, lists_file, normalizer="identity")
        assert lookup_alias(kb, "Foo") == {"E1"}
        assert lookup_alias(kb, "foo") == frozenset()
        assert kb.normalizer == "identity"


class TestDocFreq:
    def test_doc_freq_never_exceeds_doc_count(self, kb):
        assert all(0 < df <= kb.doc_count for df in kb.doc_freq.values())

    def test_doc_freq_matches_brute_force_on_sample(self, kb, lists):
        rng = random.Random(1402)
        terms = rng.sample(sorted(kb.doc_freq), 20)
        for term in terms:
            count = 0
            for entity in kb.entities.values():
                if not entity.article_text:
                    continue
                tokens = oracle_tokenize(entity.article_text, normalize)
                if term in {text for text, _, _ in tokens if text not in lists.stopwords}:
                    count += 1
            assert kb.doc_freq[term] == count

    def test_stopwords_excluded_from_doc_freq(self, kb, lists):
        assert not (set(kb.doc_freq) & lists.stopwords)

    def test_doc_freq_leaves_no_normalize_memo(self, kb, lists, monkeypatch):
        memos = []
        real_cache = functools.cache

        def spy_cache(fn):
            memo = real_cache(fn)
            memos.append(weakref.ref(memo))
            return memo

        monkeypatch.setattr(functools, "cache", spy_cache)
        assert doc_freq(kb.entities.values(), lists.stopwords, "persian") == kb.doc_freq
        gc.collect()
        assert all(ref() is None for ref in memos)
        assert textnorm.PROFILES == {
            "persian": textnorm.persian_normalize,
            "identity": textnorm.identity_normalize,
        }
        assert all(type(fn) is types.FunctionType for fn in textnorm.PROFILES.values())
        assert textnorm.normalize is textnorm.persian_normalize


def test_enums_round_trip():
    assert NerType("LOC") is NerType.LOC
    assert PosCategory("COMMON_NOUN") is PosCategory.COMMON_NOUN


class TestReferenceListsShape:
    @pytest.mark.parametrize(
        "data",
        [{"class_filters": ["film"]}, {"type_mapping": [["LOC", "city"]]}, ["stopwords"]],
        ids=["class-filters-not-object", "type-mapping-not-object", "lists-not-object"],
    )
    def test_non_object_sections_rejected(self, tmp_path, data):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_reference_lists(path)

    def test_serialized_lists_parse_back_unchanged(self, lists):
        assert parse_reference_lists(lists_to_obj(lists), "lists", "persian") == lists


class TestBuildKb:
    def test_resolves_links_counts_drops_and_non_empty_articles(self):
        records = [
            parse_record(json.loads(_record("A", "آلفا", links=("B", "A", "Z"), article="متن")), "d", 1),
            parse_record(json.loads(_record("B", "بتا", ["آلفا"])), "d", 2),
        ]
        kb = build_kb(records, "persian", {"متن": 1})
        assert kb.entities["A"].out_links == frozenset({"B"})
        assert kb.dropped_links == 2
        assert kb.self_links == 1
        assert kb.doc_count == 1
        assert kb.alias_index[normalize("آلفا")] == frozenset({"A", "B"})

    def test_doc_freq_counts_each_article_once(self):
        records = [
            parse_record(json.loads(_record(e, e, article=text)), "d", 1)
            for e, text in (("A", "سیب سیب و"), ("B", "سیب"), ("C", ""))
        ]
        assert doc_freq(records, frozenset({"و"}), "persian") == {"سیب": 2}
