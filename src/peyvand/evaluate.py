"""Scoring predictions against gold annotations.

Per-mention accounting, aligned by (document id, mention index):

    gold entity, same prediction        -> tp
    gold entity, different prediction   -> fp and fn
    gold entity, predicted NIL          -> fn
    gold NIL,    predicted entity       -> fp
    gold NIL,    predicted NIL          -> ignored
    gold absent                         -> mention excluded

A prediction record must carry its gold document's text, mention count
and spans; any mismatch is an `AlignmentError` for that document.

The total row is the micro-average: counts are summed over categories
before precision, recall and F1 are computed. 0/0 ratios are 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import Document, _Nil
from .errors import PeyvandError


class DomainError(PeyvandError):
    pass


class AlignmentError(PeyvandError):
    pass


def f1(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= r <= 1.0:
        raise DomainError(f"precision and recall must lie in [0, 1], got p={p}, r={r}")
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


@dataclass(frozen=True)
class MetricRow:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    per_category: dict[str, MetricRow]
    total: MetricRow


def _row(tp: int, fp: int, fn: int) -> MetricRow:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return MetricRow(tp, fp, fn, precision, recall, f1(precision, recall))


def score_predictions(gold: Sequence[Document], predictions: Sequence[Document]) -> EvalReport:
    """Score `predictions`, whose mentions are `PredictedMention`s, against `gold`."""
    by_id: dict[str, Document] = {}
    for pred in predictions:
        if pred.id in by_id:
            raise AlignmentError(f"duplicate prediction record for document {pred.id!r}")
        by_id[pred.id] = pred

    gold_ids = {doc.id for doc in gold}
    extra = set(by_id) - gold_ids
    if extra:
        raise AlignmentError(f"predictions for unknown documents: {sorted(extra)}")

    counts: dict[str, list[int]] = {}
    for doc in gold:
        pred = by_id.get(doc.id)
        if pred is None:
            raise AlignmentError(f"no prediction record for document {doc.id!r}")
        if pred.text != doc.text:
            raise AlignmentError(f"document {doc.id!r}: text differs between gold and prediction")
        if len(pred.mentions) != len(doc.mentions):
            raise AlignmentError(
                f"document {doc.id!r}: {len(doc.mentions)} gold mentions but "
                f"{len(pred.mentions)} predictions"
            )
        tally = counts.setdefault(doc.category, [0, 0, 0])
        for index, (mention, predicted) in enumerate(zip(doc.mentions, pred.mentions)):
            if (mention.start, mention.end) != (predicted.start, predicted.end):
                raise AlignmentError(
                    f"document {doc.id!r}, mention {index}: span mismatch between "
                    "gold and prediction"
                )
            if mention.gold is None:
                continue
            gold_is_nil = isinstance(mention.gold, _Nil)
            pred_is_nil = isinstance(predicted.prediction, _Nil)
            if gold_is_nil:
                if not pred_is_nil:
                    tally[1] += 1  # fp
            elif pred_is_nil:
                tally[2] += 1  # fn
            elif predicted.prediction == mention.gold:
                tally[0] += 1  # tp
            else:
                tally[1] += 1  # wrong link: fp
                tally[2] += 1  # and fn

    per_category = {cat: _row(*tallies) for cat, tallies in sorted(counts.items())}
    total = _row(
        sum(r.tp for r in per_category.values()),
        sum(r.fp for r in per_category.values()),
        sum(r.fn for r in per_category.values()),
    )
    return EvalReport(per_category=per_category, total=total)


def render_report(report: EvalReport) -> str:
    """Aligned plain-text table, one row per category plus a total row."""
    rows = [*report.per_category.items(), ("total", report.total)]
    name_width = max(len("category"), *(len(name) for name, _ in rows))
    lines = [
        f"{'category':<{name_width}}  {'tp':>6} {'fp':>6} {'fn':>6}  "
        f"{'precision':>9} {'recall':>9} {'f1':>9}"
    ]
    for name, row in rows:
        lines.append(
            f"{name:<{name_width}}  {row.tp:>6} {row.fp:>6} {row.fn:>6}  "
            f"{row.precision:>9.4f} {row.recall:>9.4f} {row.f1:>9.4f}"
        )
    return "\n".join(lines)


def report_records(report: EvalReport) -> dict:
    """Machine-readable form with the raw counts."""
    return {
        "categories": {name: asdict(row) for name, row in report.per_category.items()},
        "total": asdict(report.total),
    }
