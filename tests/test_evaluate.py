from __future__ import annotations

import pytest

from peyvand.corpus import (
    Document,
    Mention,
    NIL,
    PredictedMention,
)
from peyvand.evaluate import (
    AlignmentError,
    DomainError,
    f1,
    render_report,
    report_records,
    score_predictions,
)

# Frozen regression table: published precision/recall rows (4 dp) paired
# with the F1 value they were printed with. Two systems, eleven rows each.
REFERENCE_ROWS = [
    # (precision, recall, printed_f1)
    (0.5111, 0.4720, 0.4908),
    (0.4855, 0.5676, 0.5234),
    (0.3790, 0.5430, 0.4464),
    (0.4061, 0.4375, 0.4212),
    (0.4638, 0.5080, 0.4849),
    (0.4572, 0.2297, 0.3058),
    (0.4576, 0.2746, 0.3433),
    (0.5757, 0.5296, 0.5517),
    (0.4279, 0.4531, 0.4402),
    (0.4830, 0.4818, 0.4824),
    (0.4716, 0.4546, 0.4630),
    (0.5647, 0.9282, 0.7022),
    (0.8174, 0.9961, 0.8979),
    (0.7669, 0.9934, 0.8656),
    (0.7974, 0.9994, 0.8870),
    (0.8476, 1.0000, 0.9175),
    (0.8946, 1.0000, 0.9444),
    (0.8193, 0.9987, 0.9002),
    (0.8252, 1.0000, 0.9042),
    (0.6707, 1.0000, 0.8029),
    (0.7987, 1.0000, 0.8881),
    (0.7744, 0.9911, 0.8694),
]


class TestF1:
    def test_perfect_scores(self):
        assert f1(1.0, 1.0) == 1.0

    def test_total_row(self):
        assert f1(0.7744, 0.9911) == pytest.approx(0.8694, abs=1e-4)

    def test_travel_row(self):
        assert f1(0.8946, 1.0000) == pytest.approx(0.9444, abs=1e-4)

    def test_zero_zero_is_zero(self):
        assert f1(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("p,r", [(-0.1, 0.5), (0.5, -0.1), (1.2, 0.5), (0.5, 1.0001)])
    def test_domain_error_outside_unit_interval(self, p, r):
        with pytest.raises(DomainError):
            f1(p, r)

    @pytest.mark.parametrize("p,r,expected", REFERENCE_ROWS)
    def test_reference_table_regression(self, p, r, expected):
        assert f1(p, r) == pytest.approx(expected, abs=1e-4)


def _pair(doc_id, category, gold_values, predicted_values):
    """Build an aligned (gold document, prediction record) pair. Values are
    entity ids, NIL, or None (absent gold / not applicable)."""
    assert len(gold_values) == len(predicted_values)
    text = "ب " * len(gold_values)
    gold_mentions = []
    pred_mentions = []
    for i, (gold, predicted) in enumerate(zip(gold_values, predicted_values)):
        start = 2 * i
        gold_mentions.append(Mention(start, start + 1, "ب", gold=gold))
        pred_mentions.append(
            PredictedMention(start, start + 1, "ب", prediction=predicted, score=0.5, ambiguity=())
        )
    return (
        Document(doc_id, category, text, gold_mentions),
        Document(doc_id, category, text, pred_mentions),
    )


class TestScorePredictions:
    def test_predictions_identical_to_gold_all_ones(self):
        gold, pred = _pair("d1", "sport", ["E1", "E2", "E3"], ["E1", "E2", "E3"])
        report = score_predictions([gold], [pred])
        row = report.per_category["sport"]
        assert (row.tp, row.fp, row.fn) == (3, 0, 0)
        assert row.precision == row.recall == row.f1 == 1.0
        assert report.total == row

    def test_all_nil_predictions_against_linked_gold(self):
        gold, pred = _pair("d1", "sport", ["E1", "E2"], [NIL, NIL])
        report = score_predictions([gold], [pred])
        assert (report.total.tp, report.total.fp, report.total.fn) == (0, 0, 2)
        assert report.total.precision == 0.0  # 0/0 rule
        assert report.total.recall == 0.0
        assert report.total.f1 == 0.0

    def test_accounting_matrix(self):
        gold, pred = _pair(
            "d1",
            "mix",
            ["E1", "E1", "E1", NIL, NIL, None],
            ["E1", "E2", NIL, "E9", NIL, "E7"],
        )
        report = score_predictions([gold], [pred])
        # tp: correct link; fp: wrong link + ghost over gold NIL;
        # fn: wrong link + missed link; untagged mention ignored.
        assert (report.total.tp, report.total.fp, report.total.fn) == (1, 2, 2)

    def test_wrong_link_counts_as_fp_and_fn(self):
        gold, pred = _pair("d1", "sport", ["E1"], ["E2"])
        report = score_predictions([gold], [pred])
        assert (report.total.tp, report.total.fp, report.total.fn) == (0, 1, 1)

    def test_gold_nil_predicted_nil_ignored(self):
        gold, pred = _pair("d1", "sport", [NIL], [NIL])
        report = score_predictions([gold], [pred])
        assert (report.total.tp, report.total.fp, report.total.fn) == (0, 0, 0)

    def test_micro_total_reproduces_headline_arithmetic(self):
        # 20000 predictions: 15488 correct, 139 wrong links, 4373 links
        # over explicit-NIL gold. Micro P = 0.7744 exactly, R rounds to
        # 0.9911, so F1 must land on 0.8694.
        pairs = [
            _pair("tp", "a", ["E1"] * 15488, ["E1"] * 15488),
            _pair("wrong", "a", ["E1"] * 139, ["E2"] * 139),
            _pair("ghost", "a", [NIL] * 4373, ["E3"] * 4373),
        ]
        report = score_predictions([g for g, _ in pairs], [p for _, p in pairs])
        assert report.total.precision == pytest.approx(0.7744, abs=5e-5)
        assert report.total.recall == pytest.approx(0.9911, abs=5e-5)
        assert report.total.f1 == pytest.approx(0.8694, abs=1e-4)

    def test_per_category_splits_and_total_sums(self):
        gold_a, pred_a = _pair("d1", "sport", ["E1", "E2"], ["E1", NIL])
        gold_b, pred_b = _pair("d2", "health", ["E3"], ["E4"])
        report = score_predictions([gold_a, gold_b], [pred_a, pred_b])
        assert set(report.per_category) == {"sport", "health"}
        assert report.total.tp == sum(r.tp for r in report.per_category.values())
        assert report.total.fp == sum(r.fp for r in report.per_category.values())
        assert report.total.fn == sum(r.fn for r in report.per_category.values())

    def test_removing_a_category_removes_exactly_its_row(self):
        gold_a, pred_a = _pair("d1", "sport", ["E1", "E2"], ["E1", "E2"])
        gold_b, pred_b = _pair("d2", "health", ["E3"], ["E4"])
        full = score_predictions([gold_a, gold_b], [pred_a, pred_b])
        reduced = score_predictions([gold_a], [pred_a])
        assert set(full.per_category) - set(reduced.per_category) == {"health"}
        assert reduced.per_category["sport"] == full.per_category["sport"]
        dropped = full.per_category["health"]
        assert full.total.tp - reduced.total.tp == dropped.tp
        assert full.total.fp - reduced.total.fp == dropped.fp
        assert full.total.fn - reduced.total.fn == dropped.fn

    def test_document_reordering_does_not_change_report(self):
        gold_a, pred_a = _pair("d1", "sport", ["E1", "E2"], ["E1", NIL])
        gold_b, pred_b = _pair("d2", "health", ["E3"], ["E4"])
        forward = score_predictions([gold_a, gold_b], [pred_a, pred_b])
        backward = score_predictions([gold_b, gold_a], [pred_b, pred_a])
        assert forward == backward

    def test_alignment_error_on_missing_document(self):
        gold, _ = _pair("d1", "sport", ["E1"], ["E1"])
        with pytest.raises(AlignmentError):
            score_predictions([gold], [])

    def test_alignment_error_on_extra_document(self):
        gold, pred = _pair("d1", "sport", ["E1"], ["E1"])
        _, stray = _pair("d9", "sport", ["E1"], ["E1"])
        with pytest.raises(AlignmentError):
            score_predictions([gold], [pred, stray])

    def test_alignment_error_on_mention_count_mismatch(self):
        gold, _ = _pair("d1", "sport", ["E1", "E2"], ["E1", "E2"])
        _, pred = _pair("d1", "sport", ["E1"], ["E1"])
        with pytest.raises(AlignmentError):
            score_predictions([gold], [pred])

    def test_alignment_error_on_span_mismatch(self):
        gold, _ = _pair("d1", "sport", ["E1"], ["E1"])
        pred = Document(
            "d1", "sport", gold.text,
            [PredictedMention(0, 2, "ب ", prediction="E1", score=0.5, ambiguity=())],
        )
        with pytest.raises(AlignmentError):
            score_predictions([gold], [pred])

    def test_alignment_error_on_text_mismatch(self):
        # Ids, mention count and spans line up; only the text after the
        # last mention differs.
        gold, pred = _pair("d1", "sport", ["E1", "E2"], ["E1", "E2"])
        edited = Document(pred.id, pred.category, gold.text[:-1] + "پ", pred.mentions)
        message = "document 'd1': text differs between gold and prediction"
        with pytest.raises(AlignmentError, match=f"^{message}$"):
            score_predictions([gold], [edited])

    def test_duplicate_prediction_record_rejected(self):
        gold, pred = _pair("d1", "sport", ["E1"], ["E1"])
        with pytest.raises(AlignmentError):
            score_predictions([gold], [pred, pred])


class TestRendering:
    def test_table_has_total_row_and_four_decimals(self):
        gold, pred = _pair("d1", "sport", ["E1"], ["E1"])
        text = render_report(score_predictions([gold], [pred]))
        assert "total" in text
        assert "1.0000" in text
        assert text.splitlines()[0].split() == ["category", "tp", "fp", "fn", "precision", "recall", "f1"]

    def test_records_payload_carries_raw_counts(self):
        gold, pred = _pair("d1", "sport", ["E1", "E2"], ["E1", NIL])
        payload = report_records(score_predictions([gold], [pred]))
        assert payload["categories"]["sport"]["tp"] == 1
        assert payload["categories"]["sport"]["fn"] == 1
        assert payload["total"]["fp"] == 0
