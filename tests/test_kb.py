from __future__ import annotations

import gc
import json
import re
import types
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peyvand.errors import InputError
from peyvand.kb import (
    NerType,
    PosCategory,
    decode_json,
    lists_to_obj,
    load_kb,
    load_reference_lists,
    lookup_alias,
    parse_reference_lists,
    read_dump,
    read_json_lines,
)
from peyvand import textnorm
from peyvand.textnorm import normalize

from oracles import brute_force_candidates, oracle_normalize, oracle_tokenize


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


# Each malformed dump line and the reason it is rejected with.
_MALFORMED_RECORDS = {
    "not json": "invalid JSON: Expecting value",
    json.dumps({"id": "E1"}): "record missing key 'label'",
    _record("", "خالی"): "id must be a non-empty string",
    _record("E1", ""): "label must be a non-empty string",
    _record("E1", "یک", ner_type="NOPE"): "ner_type 'NOPE' is invalid",
    _record("E1", "یک", pos="NOPE"): "pos 'NOPE' is invalid",
    json.dumps({"id": "E1", "label": "x", "variants": "nope", "class": "c",
                "ner_type": "LOC", "pos": "OTHER", "article": "", "links": []}):
        "variants must be an array of strings",
    _record("E1", "یک", rar=True): "unknown keys in record: ['rar']",
    # A dump holds raw article text; only an index holds a stored bag.
    _record("E1", "یک", article=["یک", [1]]): "article must be a string",
}


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
        kb, _, _ = load_kb(dump, lists_file)
        assert len(kb.alias_index) == 4

    def test_empty_dump(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text("", encoding="utf-8")
        kb, _, _ = load_kb(dump, lists_file)
        assert kb.entities == {}
        assert lookup_alias(kb, "هرچیزی") == frozenset()
        assert kb.doc_count == 0

    def test_dangling_link_dropped_with_warning_count(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(
            _record("E1", "یک", links=["E_missing", "E2"]) + "\n" + _record("E2", "دو") + "\n",
            encoding="utf-8",
        )
        kb, _, dropped = load_kb(dump, lists_file)
        assert kb.entities["E1"].out_links == frozenset({"E2"})
        assert dropped == (1, 0)

    def test_self_link_dropped_and_counted(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E1", "یک", links=["E1"]) + "\n", encoding="utf-8")
        kb, _, dropped = load_kb(dump, lists_file)
        assert kb.entities["E1"].out_links == frozenset()
        assert dropped == (0, 1)

    def test_duplicate_id_rejected(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E1", "یک") + "\n" + _record("E1", "باز یک") + "\n", encoding="utf-8")
        message = f"{dump}:2: duplicate entity id 'E1'"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_kb(dump, lists_file)

    @pytest.mark.parametrize("line", _MALFORMED_RECORDS)
    def test_malformed_record_reports_line(self, tmp_path, lists_file, line):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E0", "صفر") + "\n" + line + "\n", encoding="utf-8")
        reason = re.escape(_MALFORMED_RECORDS[line])
        with pytest.raises(InputError, match=rf"^{re.escape(str(dump))}:2: {reason}$") as err:
            load_kb(dump, lists_file)
        assert err.value.line == 2

    def test_rare_flag_defaults_false(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E1", "یک") + "\n" + _record("E2", "دو", rare=True) + "\n", encoding="utf-8")
        kb, _, _ = load_kb(dump, lists_file)
        assert not kb.entities["E1"].rare
        assert kb.entities["E2"].rare

    def test_doc_count_counts_nonempty_articles(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(
            _record("E1", "یک", article="متن کوتاه") + "\n" + _record("E2", "دو") + "\n"
            + _record("E3", "سه", article="«…»") + "\n",
            encoding="utf-8",
        )
        kb, _, _ = load_kb(dump, lists_file)
        assert kb.doc_count == 2  # punctuation alone is stored as an empty bag but counts
        assert (kb.entities["E3"].article_text, kb.entities["E3"].article_counts) == ("", ())


class TestReferenceLists:
    def test_penalty_must_be_strictly_between_zero_and_one(self, tmp_path):
        for bad in (0.0, 1.0, -0.3, 2):
            path = tmp_path / "lists.json"
            path.write_text(
                json.dumps({"class_filters": {"film": {"triggers": ["x"], "penalty": bad}}}),
                encoding="utf-8",
            )
            reason = "class_filters['film'].penalty must lie strictly between 0 and 1"
            with pytest.raises(InputError, match=rf"^{re.escape(f'{path}: {reason}')}$"):
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
        lists, stopwords = load_reference_lists(path)
        assert "سینما" in lists.class_filters["film"].triggers  # Arabic yeh folded
        assert "ve" in stopwords

    def test_unknown_ner_type_key_rejected(self, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({"type_mapping": {"PLACE": ["city"]}}), encoding="utf-8")
        reason = "type_mapping key 'PLACE' is not a NER type"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}: {reason}')}$"):
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

    def test_alias_that_normalizes_to_nothing_is_not_indexed(self, tmp_path, lists_file):
        dump = tmp_path / "kb.jsonl"
        dump.write_text(_record("E1", "ـ", ["یک"]) + "\n", encoding="utf-8")  # a bare tatweel
        kb, _, _ = load_kb(dump, lists_file)
        assert "" not in kb.alias_index
        for surface in ("ـ", "", " "):
            assert lookup_alias(kb, surface) == frozenset() == brute_force_candidates(kb, surface)
        assert lookup_alias(kb, "یک") == {"E1"}


class TestDocFreq:
    def test_doc_freq_never_exceeds_doc_count(self, kb):
        assert all(0 < df <= kb.doc_count for df in kb.doc_freq.values())

    def test_doc_freq_equals_oracle_count(self, kb, data_dir):
        expected: Counter[str] = Counter()
        for _, obj in read_json_lines(data_dir / "mini_kb.jsonl"):
            tokens = oracle_tokenize(obj["article"], oracle_normalize)
            expected.update({text for text, _, _ in tokens} - kb.stopwords)
        assert kb.doc_freq == expected

    def test_stopwords_excluded_from_doc_freq(self, kb):
        assert kb.stopwords and not (set(kb.doc_freq) & kb.stopwords)

    def test_doc_freq_leaves_no_normalize_memo(self, kb, data_dir, monkeypatch):
        memos = []

        class SpyForms(textnorm.NormalForms):
            def __init__(self):
                super().__init__()
                memos.append(weakref.ref(self))

        monkeypatch.setattr("peyvand.kb.NormalForms", SpyForms)
        dump = data_dir / "mini_kb.jsonl"
        assert read_dump(read_json_lines(dump), dump, kb.stopwords) == (kb, (0, 0))
        gc.collect()
        assert len(memos) == 1 and memos[0]() is None
        assert type(textnorm.persian_normalize) is types.FunctionType
        assert textnorm.normalize is textnorm.persian_normalize


@pytest.mark.parametrize(
    "data, line",
    [
        (b'{\n  "a": 1\n\n', 2),  # the input ends inside the object
        (b'{"a": 1}\n\xc2\xa0\n', 2),  # a no-break space is not JSON whitespace
        (b'\n{"a": }\n', 2),
    ],
    ids=["unclosed", "extra-data", "mid-file"],
)
def test_json_error_names_a_line_of_the_input(data, line):
    # The decoder counts the newline that ends the input as one more line.
    with pytest.raises(InputError) as info:
        decode_json(data, "x.json", 1)
    assert info.value.line == line <= len(data.splitlines())


def _strings(value) -> list[str]:
    """Every string and key in a decoded JSON value."""
    if isinstance(value, dict):
        return [*value, *(s for v in value.values() for s in _strings(v))]
    if isinstance(value, list):
        return [s for v in value for s in _strings(v)]
    return [value] if isinstance(value, str) else []


# Surrogates of both halves, a character outside the BMP, and a backslash
# and the text of a surrogate escape, which `json.dumps` escapes again.
_escape_text = st.lists(
    st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff", "\U0001f600", "\\", "ud800", "udc00", "x"]),
    max_size=4,
).map("".join)


@given(st.lists(st.dictionaries(_escape_text, _escape_text, max_size=2), min_size=1, max_size=3),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_lone_surrogate_is_invalid_json_and_a_pair_decodes(objects, upper):
    """`decode_json` decodes a JSON text as `json.loads` does when no string
    or key of it holds a lone surrogate, and otherwise names the line of the
    first object that does. Escapes are lower or upper case, and an escaped
    backslash before `u` starts no escape."""
    text = "[" + ",\n".join(json.dumps(obj) for obj in objects) + "]"
    if upper:
        text = re.sub(r"\\u(d[89a-f]..)", lambda m: "\\u" + m[1].upper(), text)
    expected = json.loads(text)
    lone = [i for i, obj in enumerate(expected, 1)
            if any("\ud800" <= c <= "\udfff" for s in _strings(obj) for c in s)]
    if not lone:
        assert decode_json(text.encode(), "x.json", 1) == expected
        return
    with pytest.raises(InputError) as info:
        decode_json(text.encode(), "x.json", 1)
    assert info.value.line == lone[0]
    assert re.fullmatch(r"invalid JSON: lone surrogate \\u[dD][89a-fA-F][0-9a-fA-F]{2}", info.value.reason)


def test_enums_round_trip():
    assert NerType("LOC") is NerType.LOC
    assert PosCategory("COMMON_NOUN") is PosCategory.COMMON_NOUN


class TestReferenceListsShape:
    @pytest.mark.parametrize(
        "data, reason",
        [
            ({"class_filters": ["film"]}, "class_filters must be an object"),
            ({"type_mapping": [["LOC", "city"]]}, "type_mapping must be an object"),
            (["stopwords"], "reference lists must be a JSON object"),
        ],
        ids=["class-filters-not-object", "type-mapping-not-object", "lists-not-object"],
    )
    def test_non_object_sections_rejected(self, tmp_path, data, reason):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}: {reason}')}$"):
            load_reference_lists(path)

    def test_unknown_top_level_keys_rejected(self, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({"stopwords": [], "rare_blocklst": [], "extra": 1}),
                        encoding="utf-8")
        reason = "unknown keys in reference lists: ['extra', 'rare_blocklst']"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}: {reason}')}$"):
            load_reference_lists(path)

    def test_unknown_class_filter_keys_rejected(self, tmp_path):
        path = tmp_path / "lists.json"
        spec = {"triggers": ["x"], "penalty": 0.5, "weight": 2}
        path.write_text(json.dumps({"class_filters": {"film": spec}}), encoding="utf-8")
        reason = "unknown keys in class_filters['film']: ['weight']"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}: {reason}')}$"):
            load_reference_lists(path)

    def test_class_filter_without_penalty_names_the_key(self, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({"class_filters": {"film": {"triggers": []}}}), encoding="utf-8")
        reason = "class_filters['film'] missing key 'penalty'"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}: {reason}')}$"):
            load_reference_lists(path)

    def test_serialized_lists_parse_back_unchanged(self, kb, lists):
        obj = lists_to_obj(lists, kb.stopwords)
        assert parse_reference_lists(obj, "lists") == (lists, kb.stopwords)


class TestBuildKb:
    def test_resolves_links_counts_drops_and_non_empty_articles(self):
        lines = [
            (1, json.loads(_record("A", "آلفا", links=("B", "A", "Z"), article="متنِ كوتاه"))),
            (2, json.loads(_record("B", "بتا", ["آلفا"]))),
        ]
        kb, dropped = read_dump(lines, "d", frozenset())
        assert kb.entities["A"].out_links == frozenset({"B"})
        assert dropped == (1, 1)
        assert kb.doc_count == 1
        assert (kb.entities["A"].article_text, kb.entities["A"].article_counts) == ("متن کوتاه", (1, 1))
        assert kb.alias_index[normalize("آلفا")] == frozenset({"A", "B"})

    def test_doc_freq_counts_each_article_once(self):
        lines = [
            (n, json.loads(_record(e, e, article=text)))
            for n, (e, text) in enumerate(
                (("A", "سیب سیب و"), ("B", "سیب!"), ("C", ""), ("D", "؟!")), start=1
            )
        ]
        kb, _ = read_dump(lines, "d", frozenset({"و"}))
        assert kb.doc_freq == {"سیب": 2}
        assert kb.doc_count == 3
        # Each article is its bag, stopwords dropped: "و" alone counts but is stored empty.
        assert [(e.article_text, e.article_counts) for e in kb.entities.values()] == [
            ("سیب", (2,)), ("سیب", (1,)), ("", ()), ("", ())
        ]
