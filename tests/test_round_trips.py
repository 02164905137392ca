"""Every file the package writes reads back as what was written: a KB
dump through `load_kb` and the index cache, a corpus, and predictions.
Labels, articles, stopwords, triggers and document texts are drawn from
the tokenizer's alphabet, so both the plain fast path of the normalizer
and its full six steps run."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peyvand.cache import load_index, save_index
from peyvand.corpus import (
    NIL,
    Document,
    Mention,
    load_corpus,
    load_predictions,
    save_corpus,
    write_predictions,
)
from peyvand.kb import (
    EntityRecord, NerType, PosCategory, bag_json, load_kb, lookup_alias, read_bag,
)
from peyvand.linker import LinkResult, ScoredCandidate

from oracles import brute_force_candidates, oracle_normalize, oracle_tokenize
from synth import dump_line, entity, tokenizer_text

_ids = st.text(min_size=1, max_size=4)
_scores = st.floats(allow_nan=False, allow_infinity=False)
# Articles, empty ones and ones of punctuation alone among them.
_punctuation = st.text(".,!?;:()-\"'،؛؟٫«»… \u00a0", min_size=1, max_size=8)
_articles = tokenizer_text | st.just("") | _punctuation


@st.composite
def _records(draw):
    """Up to six records of the `synth.entity` shape; links may repeat,
    point at the record itself or at an id outside the dump."""
    ids = draw(st.lists(_ids, unique=True, max_size=6))
    link_targets = st.sampled_from([*ids, "missing"])
    return [
        entity(
            entity_id,
            label=draw(tokenizer_text),  # `entity` falls back to the id for ""
            variants=tuple(draw(st.lists(tokenizer_text, max_size=3))),
            kb_class=draw(st.sampled_from(["city", "club", "film", "thing"])),
            ner_type=draw(st.sampled_from(NerType)),
            pos=draw(st.sampled_from(PosCategory)),
            article=draw(_articles),
            links=tuple(draw(st.lists(link_targets, max_size=4))),
            rare=draw(st.booleans()),
        )
        for entity_id in ids
    ]


_lists_obj = st.fixed_dictionaries(
    {
        "rare_blocklist": st.lists(_ids, max_size=3),
        "class_filters": st.dictionaries(
            st.sampled_from(["film", "book"]),
            st.fixed_dictionaries(
                {
                    "triggers": st.lists(tokenizer_text, max_size=3),
                    "penalty": st.floats(0, 1, exclude_min=True, exclude_max=True),
                }
            ),
        ),
        "type_mapping": st.dictionaries(
            st.sampled_from([ner.value for ner in NerType]),
            st.lists(st.sampled_from(["city", "club", "film"])),
        ),
        "stopwords": st.lists(tokenizer_text, max_size=4),
    }
)


@st.composite
def _documents(draw):
    """Documents with unique ids, each with non-overlapping mentions in any
    order whose surfaces are their text slices."""
    docs = []
    for doc_id in draw(st.lists(_ids, unique=True, max_size=4)):
        text = draw(tokenizer_text)
        cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=8)))
        mentions = [
            Mention(
                start,
                end,
                text[start:end],
                draw(st.none() | st.sampled_from(NerType)),
                draw(st.none() | st.sampled_from(PosCategory)),
                draw(st.none() | st.just(NIL) | _ids),
            )
            for start, end in zip(cuts[::2], cuts[1::2])
        ]
        docs.append(Document(doc_id, draw(st.text(max_size=4)), text, draw(st.permutations(mentions))))
    return docs


@st.composite
def _results(draw, doc: Document):
    """One `LinkResult` per mention of `doc`, with finite scores."""
    return [
        LinkResult(
            draw(st.just(NIL) | _ids),
            draw(_scores),
            tuple(
                ScoredCandidate(entity_id, 0.0, 0.0, 1.0, draw(_scores))
                for entity_id in draw(st.lists(_ids, max_size=3))
            ),
        )
        for _ in doc.mentions
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trips")


def _write_dump(workdir, records, lists_obj):
    dump, lists_path = workdir / "kb.jsonl", workdir / "lists.json"
    dump.write_text(
        "".join(json.dumps(dump_line(r), ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    lists_path.write_text(json.dumps(lists_obj, ensure_ascii=False), encoding="utf-8")
    return dump, lists_path


def _oracle_terms(article):
    return [text for text, _, _ in oracle_tokenize(article, oracle_normalize)]


def _oracle_bag(article, stopwords):
    """The oracle's terms of a raw article outside `stopwords`: the distinct
    ones in order of first occurrence, joined by single spaces, and how
    often each occurs."""
    kept = [t for t in _oracle_terms(article) if t not in stopwords]
    distinct = list(dict.fromkeys(kept))
    return " ".join(distinct), tuple(kept.count(t) for t in distinct)


@given(records=_records(), lists_obj=_lists_obj)
@settings(deadline=None)
def test_dump_load_save_load_is_identity(workdir, records, lists_obj):
    kb, lists, _ = load_kb(*_write_dump(workdir, records, lists_obj))

    ids = {r.id for r in records}
    resolved = {
        r.id: EntityRecord(
            r.id, r.canonical_label, r.variant_labels, r.kb_class, r.ner_type, r.pos_category,
            bag_json(*_oracle_bag(r.article, kb.stopwords)), r.out_links & ids - {r.id}, r.rare,
        )
        for r in records
    }
    assert kb.entities == resolved
    content = [set(_oracle_terms(r.article)) - kb.stopwords for r in records]
    assert kb.doc_freq == Counter(t for terms in content for t in terms)
    for r in records:
        for label in (r.canonical_label, *r.variant_labels):
            assert lookup_alias(kb, label) == brute_force_candidates(kb, label)

    first, second = workdir / "a.idx", workdir / "b.idx"
    save_index(kb, lists, first)
    kb2, lists2 = load_index(first)
    assert kb2 == kb
    assert lists2 == lists
    save_index(kb2, lists2, second)
    assert second.read_bytes() == first.read_bytes()


@given(data=st.data(), records=_records())
@settings(deadline=None)
def test_stored_articles_are_the_oracle_terms(workdir, data, records):
    """Each stored article is the bag of the oracle's terms of its raw
    text, stopwords dropped, counted in order of first occurrence, and N
    counts the non-empty raw articles, whether the knowledge base comes
    from the dump or from its index. The stopwords are drawn from the
    articles' own terms, so that some of them occur."""
    vocabulary = sorted({t for r in records for t in _oracle_terms(r.article)})
    stopwords = data.draw(st.lists(st.sampled_from(vocabulary), max_size=3)) if vocabulary else []
    kb, lists, _ = load_kb(*_write_dump(workdir, records, {"stopwords": stopwords}))
    assert kb.stopwords == frozenset(stopwords)
    save_index(kb, lists, workdir / "kb.idx")
    for loaded, _ in ((kb, lists), load_index(workdir / "kb.idx")):
        for r in records:
            stored = loaded.entities[r.id]
            text, counts = _oracle_bag(r.article, kb.stopwords)
            assert read_bag(stored.bag) == (text.split(), list(counts))
        assert loaded.doc_count == sum(1 for r in records if r.article)


@given(docs=_documents())
@settings(deadline=None)
def test_save_corpus_then_load_is_identity(workdir, docs):
    path = workdir / "corpus.jsonl"
    save_corpus(docs, path)
    assert load_corpus(path) == docs


@given(data=st.data(), docs=_documents())
@settings(deadline=None)
def test_written_predictions_load_back_field_for_field(workdir, data, docs):
    results = [data.draw(_results(doc)) for doc in docs]
    path = workdir / "predictions.jsonl"
    write_predictions(docs, results, path)
    loaded = load_predictions(path)
    assert [(d.id, d.category, d.text) for d in loaded] == [(d.id, d.category, d.text) for d in docs]
    for doc, doc_results, got_doc in zip(docs, results, loaded):
        assert len(got_doc.mentions) == len(doc.mentions)
        for mention, res, got in zip(doc.mentions, doc_results, got_doc.mentions):
            assert (got.start, got.end, got.surface) == (mention.start, mention.end, mention.surface)
            assert (got.ner_type, got.pos_tag) == (mention.ner_type, mention.pos_tag)
            assert got.prediction == res.decision
            assert got.score == res.score
            assert [(c.entity_id, c.score) for c in got.ambiguity] == [
                (c.entity_id, c.combined) for c in res.ambiguity
            ]
