"""Unsupervised entity linking for Persian social text.

Candidate generation from an alias dictionary, heuristic filtering,
TF-IDF context scoring plus link-graph coherence, NIL abstention, and an
evaluation harness with per-category precision/recall/F1.
"""

from .corpus import (
    CorpusStats,
    Document,
    Mention,
    NIL,
    corpus_stats,
    load_corpus,
    load_predictions,
    save_corpus,
    stats_by_category,
    write_predictions,
)
from .errors import InputError, PeyvandError
from .evaluate import EvalReport, MetricRow, f1, render_report, score_predictions
from .kb import (
    EntityRecord,
    KnowledgeBase,
    NerType,
    PosCategory,
    ReferenceLists,
    load_kb,
    load_reference_lists,
    lookup_alias,
)
from .linker import LinkResult, LinkerConfig, ScoredCandidate, link_document
from .textnorm import normalize, tokenize

__version__ = "0.1.0"

__all__ = [
    "CorpusStats",
    "Document",
    "EntityRecord",
    "EvalReport",
    "InputError",
    "KnowledgeBase",
    "LinkResult",
    "LinkerConfig",
    "Mention",
    "MetricRow",
    "NIL",
    "NerType",
    "PeyvandError",
    "PosCategory",
    "ReferenceLists",
    "ScoredCandidate",
    "corpus_stats",
    "f1",
    "link_document",
    "load_corpus",
    "load_kb",
    "load_predictions",
    "load_reference_lists",
    "lookup_alias",
    "normalize",
    "render_report",
    "save_corpus",
    "score_predictions",
    "stats_by_category",
    "tokenize",
    "write_predictions",
    "__version__",
]
