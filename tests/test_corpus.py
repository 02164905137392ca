from __future__ import annotations

import json
import re

import pytest

from peyvand.corpus import (
    Document,
    Mention,
    NIL,
    corpus_stats,
    count_sentences,
    load_corpus,
    load_predictions,
    save_corpus,
    stats_by_category,
    write_predictions,
)
from peyvand.errors import InputError
from peyvand.kb import NerType, PosCategory
from peyvand.linker import LinkerConfig, link_document


def _doc_line(doc_id="d1", category="sport", text="الف ب ج", mentions=None):
    return json.dumps(
        {"id": doc_id, "category": category, "text": text, "mentions": mentions or []},
        ensure_ascii=False,
    )


class TestLoadCorpus:
    def test_valid_three_document_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            "\n".join(_doc_line(doc_id=f"d{i}") for i in range(3)) + "\n", encoding="utf-8"
        )
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["d0", "d1", "d2"]

    def test_mention_end_past_text_is_span_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            _doc_line(mentions=[{"start": 0, "end": 99, "surface": "الف"}]), encoding="utf-8"
        )
        reason = "document 'd1', mention 0: span [0, 99) out of bounds"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:1: {reason}')}$"):
            load_corpus(path)

    def test_surface_disagreeing_with_slice_is_span_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            _doc_line(mentions=[{"start": 0, "end": 3, "surface": "چیز دیگر"}]), encoding="utf-8"
        )
        reason = "document 'd1', mention 0: surface does not equal the text slice"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:1: {reason}')}$"):
            load_corpus(path)

    def test_inverted_span_is_span_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            _doc_line(mentions=[{"start": 3, "end": 3, "surface": ""}]), encoding="utf-8"
        )
        reason = "document 'd1', mention 0: span [3, 3) out of bounds"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:1: {reason}')}$"):
            load_corpus(path)

    def test_overlapping_mentions_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            _doc_line(
                text="الف ب ج",
                mentions=[
                    {"start": 0, "end": 5, "surface": "الف ب"},
                    {"start": 4, "end": 7, "surface": "ب ج"},
                ],
            ),
            encoding="utf-8",
        )
        reason = "document 'd1' has overlapping mentions"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:1: {reason}')}$"):
            load_corpus(path)

    def test_duplicate_document_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(_doc_line() + "\n" + _doc_line() + "\n", encoding="utf-8")
        reason = "duplicate document id 'd1'"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:2: {reason}')}$"):
            load_corpus(path)

    @pytest.mark.parametrize("offsets", [{"start": False, "end": 1}, {"start": 0, "end": True}])
    def test_boolean_offset_rejected(self, tmp_path, offsets):
        path = tmp_path / "c.jsonl"
        path.write_text(_doc_line(mentions=[{**offsets, "surface": "ا"}]), encoding="utf-8")
        reason = "mention offsets must be integers"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:1: {reason}')}$"):
            load_corpus(path)

    @pytest.mark.parametrize("gold", ["", 7], ids=["empty-id", "not-id"])
    def test_gold_not_an_entity_id_rejected(self, tmp_path, gold):
        path = tmp_path / "c.jsonl"
        mention = {"start": 0, "end": 3, "surface": "الف", "gold": gold}
        path.write_text(_doc_line(mentions=[mention]), encoding="utf-8")
        reason = "gold must be an entity id or null"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:1: {reason}')}$"):
            load_corpus(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(_doc_line() + "\n{oops\n", encoding="utf-8")
        reason = "invalid JSON: Expecting property name enclosed in double quotes"
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:2: {reason}')}$") as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_gold_states(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            _doc_line(
                text="الف ب ج",
                mentions=[
                    {"start": 0, "end": 3, "surface": "الف", "gold": "E1"},
                    {"start": 4, "end": 5, "surface": "ب", "gold": None},
                    {"start": 6, "end": 7, "surface": "ج"},
                ],
            ),
            encoding="utf-8",
        )
        (doc,) = load_corpus(path)
        assert doc.mentions[0].gold == "E1"
        assert doc.mentions[1].gold is NIL
        assert doc.mentions[2].gold is None


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path, mini_corpus):
        path = tmp_path / "copy.jsonl"
        save_corpus(mini_corpus, path)
        assert load_corpus(path) == mini_corpus

    def test_round_trip_preserves_annotations(self, tmp_path):
        doc = Document(
            id="d1",
            category="health",
            text="الف ب",
            mentions=[
                Mention(0, 3, "الف", NerType.LOC, PosCategory.PROPER_NOUN, "E1"),
                Mention(4, 5, "ب", None, None, NIL),
            ],
        )
        path = tmp_path / "copy.jsonl"
        save_corpus([doc], path)
        assert load_corpus(path) == [doc]


class TestSentences:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", 0),
            ("یک جمله", 1),
            ("اول. دوم!", 2),
            ("پرسش؟ پاسخ.", 2),
            ("خط اول\nخط دوم", 2),
            ("...", 0),
            ("پایان.", 1),
        ],
    )
    def test_counting(self, text, expected):
        assert count_sentences(text) == expected


class TestStats:
    def test_empty_corpus_all_zero(self, kb):
        stats = corpus_stats([], kb)
        assert stats.documents == stats.sentences == stats.words == 0
        assert stats.entities == stats.candidates == 0
        assert stats.words_per_article == 0.0
        assert stats.entities_per_article == 0.0
        assert stats.candidates_per_mention == 0.0

    def test_mini_corpus_matches_hand_tabulated_reference(self, kb, mini_corpus):
        stats = corpus_stats(mini_corpus, kb)
        assert stats.documents == 12
        assert stats.sentences == 14
        assert stats.words == 173
        assert stats.entities == 24
        assert stats.candidates == 33
        assert stats.words_per_article == pytest.approx(173 / 12)
        assert stats.entities_per_article == pytest.approx(2.0)
        assert stats.candidates_per_mention == pytest.approx(1.375)

    def test_totals_equal_sum_of_per_category_counts(self, kb, mini_corpus):
        total = corpus_stats(mini_corpus, kb)
        per_category = stats_by_category(mini_corpus, kb)
        assert total.documents == sum(s.documents for s in per_category.values())
        assert total.sentences == sum(s.sentences for s in per_category.values())
        assert total.words == sum(s.words for s in per_category.values())
        assert total.entities == sum(s.entities for s in per_category.values())
        assert total.candidates == sum(s.candidates for s in per_category.values())

    def test_candidates_counted_before_filters(self, kb, mini_corpus):
        # d02 surface "شهریار" has three alias matches even though the
        # pipeline later drops the rare city.
        d02 = next(d for d in mini_corpus if d.id == "d02")
        stats = corpus_stats([d02], kb)
        assert stats.candidates == 6


def _prediction_line(**overrides):
    mention = {"start": 0, "end": 3, "surface": "الف", "prediction": "E1", "score": 0.5,
               "ambiguity": [{"id": "E2", "score": 0.1}]}
    mention.update(overrides)
    return json.dumps({"id": "d1", "category": "sport", "text": "الف ب", "mentions": [mention]},
                      ensure_ascii=False)


def _second_prediction(doc=None, **overrides):
    """`_prediction_line(**overrides)` as document d2, with the record keys
    in `doc` replaced, or deleted where the value is None."""
    record = {**json.loads(_prediction_line(**overrides)), "id": "d2", **(doc or {})}
    return json.dumps({k: v for k, v in record.items() if v is not None}, ensure_ascii=False)


_MENTION = json.loads(_prediction_line())["mentions"][0]


class TestLoadPredictions:
    def test_valid_record(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(_prediction_line(prediction=None) + "\n", encoding="utf-8")
        (doc,) = load_predictions(path)
        assert doc.mentions[0].prediction is NIL
        assert doc.mentions[0].ambiguity[0].entity_id == "E2"

    @pytest.mark.parametrize(
        "line, reason",
        [
            (json.dumps({"id": "d2", "category": "sport", "text": "الف ب", "mentions": [5]}),
             "mention must be a JSON object"),
            (json.dumps({"id": "d2", "category": "sport", "text": "الف ب", "mentions": 5}),
             "mentions must be an array"),
            (_second_prediction(ambiguity={"E2": 0.1}),
             "ambiguity must be an array of {id, score} objects"),
            (_second_prediction(ambiguity=[5]), "ambiguity entry must be a JSON object"),
            (_second_prediction(score="high"), "score must be a number"),
            (_second_prediction(prediction=7), "prediction must be an entity id or null"),
            (_second_prediction(prediction=""), "prediction must be an entity id or null"),
            (_second_prediction(ambiguity=[{"id": "", "score": 0.1}]),
             "ambiguity must be an array of {id, score} objects"),
            (_second_prediction(score=True), "score must be a number"),
            (_second_prediction(ambiguity=[{"id": "E2", "score": False}]),
             "ambiguity must be an array of {id, score} objects"),
            (_second_prediction(start=False), "mention offsets must be integers"),
            (_second_prediction(score=10**400), "score too large for a float"),
            (_second_prediction(ambiguity=[{"id": "E2", "score": -(10**400)}]),
             "score too large for a float"),
            (_prediction_line(), "duplicate document id 'd1'"),
            (_second_prediction({"id": ""}), "id must be a non-empty string"),
            (_second_prediction({"text": None}), "document missing key 'text'"),
            (_second_prediction({"category": None}), "document missing key 'category'"),
            (_second_prediction(end=99), "document 'd2', mention 0: span [0, 99) out of bounds"),
            (_second_prediction(surface="ب"),
             "document 'd2', mention 0: surface does not equal the text slice"),
            (_second_prediction({"mentions": [_MENTION, {**_MENTION, "start": 2, "end": 5,
                                                         "surface": "ف ب"}]}),
             "document 'd2' has overlapping mentions"),
            (_second_prediction(gold="E1"), "unknown keys in mention: ['gold']"),
            (_second_prediction(ner_typ="LOC"), "unknown keys in mention: ['ner_typ']"),
            (_second_prediction(ambiguity=[{"id": "E2", "score": 0.1, "rank": 1}]),
             "unknown keys in ambiguity entry: ['rank']"),
            (_second_prediction(ambiguity=[{"id": "E2"}]), "ambiguity entry missing key 'score'"),
        ],
        ids=["mention-not-object", "mentions-not-array", "ambiguity-not-array",
             "ambiguity-entry-not-object", "score-not-number", "prediction-not-id",
             "prediction-empty-id", "ambiguity-empty-id",
             "score-bool", "ambiguity-score-bool", "start-bool", "score-too-large",
             "ambiguity-score-too-large", "repeated-id", "empty-id", "missing-text",
             "missing-category", "span-out-of-bounds", "surface-not-slice",
             "overlapping-mentions", "gold-in-prediction", "unknown-mention-key",
             "unknown-ambiguity-key", "ambiguity-score-missing"],
    )
    def test_malformed_mention_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "p.jsonl"
        path.write_text(_prediction_line() + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}:2: {reason}')}$") as err:
            load_predictions(path)
        assert (err.value.path, err.value.line, err.value.reason) == (str(path), 2, reason)


class TestPredictionRoundTrip:
    def test_link_results_survive_write_and_load(self, tmp_path, kb, lists, mini_corpus):
        results = [link_document(kb, lists, LinkerConfig(), doc) for doc in mini_corpus]
        path = tmp_path / "p.jsonl"
        write_predictions(mini_corpus, results, path)
        loaded = load_predictions(path)
        assert [(d.id, d.category, d.text) for d in loaded] == [
            (d.id, d.category, d.text) for d in mini_corpus
        ]
        for doc, doc_results, pred in zip(mini_corpus, results, loaded):
            assert len(pred.mentions) == len(doc.mentions) == len(doc_results)
            for mention, res, got in zip(doc.mentions, doc_results, pred.mentions):
                assert (got.start, got.end, got.surface) == (mention.start, mention.end, mention.surface)
                assert (got.ner_type, got.pos_tag) == (mention.ner_type, mention.pos_tag)
                assert got.prediction == res.decision
                assert got.score == res.score
                assert [(c.entity_id, c.score) for c in got.ambiguity] == [
                    (c.entity_id, c.combined) for c in res.ambiguity
                ]


def test_corpus_mention_not_an_object_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(_doc_line(mentions=[5]) + "\n", encoding="utf-8")
    message = f"{path}:1: mention must be a JSON object"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_corpus(path)
