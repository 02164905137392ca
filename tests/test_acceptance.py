"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

C1  metric arithmetic reproduces the 22-row reference table (+-1e-4, <1s)
C2  pipeline output equals the golden predictions (scores to 1e-9, <1s)
C3  context score agrees with a dense-vector cosine oracle (>=50 cases, 1e-9)
C4  graph score and kept sets agree with exhaustive enumeration on all fixture docs
C5  NIL threshold: none at 0, all at 1.1, monotone across the sweep
C6  filters are contractive on >=1000 randomized cases; all-off is identity

C3, C4 and C6 check each stage through `link_document`: above a NIL
threshold of 1 every mention abstains, and its ambiguity list holds each
kept candidate with its context score, graph score and penalty.
C7  normalization idempotence, alias round-trip, codepoint mapping table
C8  three link runs over the same index are byte-identical
C9  corpus statistics match the hand-tabulated fixture and all render
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from peyvand.cli import main
from peyvand.corpus import Document, Mention, corpus_stats
from peyvand.evaluate import f1
from peyvand.kb import NerType, PosCategory, lookup_alias
from peyvand.linker import FILTERS, LinkerConfig, link_document
from peyvand.textnorm import ZWNJ, normalize, tokenize

from oracles import brute_force_candidates, dense_cosine, exhaustive_raw_links, oracle_kept
from synth import build_kb, empty_lists, entity, kept_candidates
from test_evaluate import REFERENCE_ROWS


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_c1_metric_arithmetic():
    with criterion("C1 reference-table F1 arithmetic"):
        started = time.perf_counter()
        assert len(REFERENCE_ROWS) == 22
        for p, r, printed in REFERENCE_ROWS:
            assert abs(f1(p, r) - printed) <= 1e-4, (p, r, printed)
        assert time.perf_counter() - started < 1.0


def test_c2_pipeline_equals_golden_trace(kb, lists, mini_corpus, golden_predictions):
    with criterion("C2 pipeline matches golden predictions"):
        started = time.perf_counter()
        cfg = LinkerConfig()
        assert len(mini_corpus) == 12
        for doc, golden in zip(mini_corpus, golden_predictions):
            results = link_document(kb, lists, cfg, doc)
            assert len(results) == len(golden.mentions)
            for i, (got, expected) in enumerate(zip(results, golden.mentions)):
                got_id = got.decision if isinstance(got.decision, str) else None
                expected_id = expected.prediction if isinstance(expected.prediction, str) else None
                assert got_id == expected_id, (doc.id, i)
                assert abs(got.score - expected.score) <= 1e-9
                assert [c.entity_id for c in got.ambiguity] == [c.entity_id for c in expected.ambiguity]
                for got_c, expected_c in zip(got.ambiguity, expected.ambiguity):
                    assert abs(got_c.combined - expected_c.score) <= 1e-9
        assert time.perf_counter() - started < 1.0


def test_c3_cosine_oracle_equivalence():
    with criterion("C3 cosine agrees with dense oracle"):
        rng = random.Random(20250810)
        vocab = [f"واژه{i}" for i in range(24)]
        checked = 0
        while checked < 60:
            records = [
                entity(
                    f"S{i}",
                    "هدف",  # every record is a candidate of the mention
                    article=" ".join(rng.choices(vocab, k=rng.randrange(0, 14))),
                )
                for i in range(rng.randrange(2, 7))
            ]
            kb = build_kb(records)
            lists = empty_lists()
            context_words = rng.choices(vocab + ["بیرونی"], k=rng.randrange(0, 12))
            text = "هدف " + " ".join(context_words)
            doc = Document("r", "test", text, [Mention(0, 3, "هدف")])
            target = rng.choice(records)
            got = kept_candidates(kb, lists, LinkerConfig(), doc)[0][target.id].context_score
            article_terms = [text for text, _, _ in tokenize(target.article)]
            expected = dense_cosine(context_words, article_terms, kb.doc_freq, kb.doc_count)
            assert abs(got - expected) <= 1e-9
            assert 0.0 <= got <= 1.0
            checked += 1
        assert checked >= 50


def test_c4_graph_oracle_equivalence(kb, lists, mini_corpus):
    with criterion("C4 graph score agrees with exhaustive enumeration"):
        cfg = LinkerConfig()
        mentions_checked = 0
        for doc in mini_corpus:
            doc_candidates, _ = oracle_kept(kb, lists, cfg, doc)
            for i, kept in enumerate(kept_candidates(kb, lists, cfg, doc)):
                assert set(kept) == doc_candidates[i]
                raw = exhaustive_raw_links(kb, i, doc_candidates)
                max_raw = max(raw.values()) if raw else 0
                for candidate, scored in kept.items():
                    expected = raw[candidate] / max_raw if max_raw else 0.0
                    assert scored.graph_score == pytest.approx(expected, abs=1e-12)
                mentions_checked += 1
        assert mentions_checked == 24


def test_c5_nil_threshold_properties(kb, lists, mini_corpus):
    with criterion("C5 NIL threshold boundary and monotonicity"):
        nil_counts = []
        total_mentions = sum(len(d.mentions) for d in mini_corpus)
        for threshold in (0.0, 0.05, 0.2, 0.5, 1.1):
            cfg = LinkerConfig(nil_threshold=threshold)
            nils = 0
            for doc in mini_corpus:
                for i, result in enumerate(link_document(kb, lists, cfg, doc)):
                    if isinstance(result.decision, str):
                        continue
                    nils += 1
                    if threshold == 0.0:
                        kept = oracle_kept(kb, lists, cfg, doc)[0][i]
                        assert not kept  # at tau=0 only empty kept sets abstain
            nil_counts.append(nils)
        assert nil_counts[-1] == total_mentions  # tau > 1 abstains everywhere
        assert nil_counts == sorted(nil_counts)


def test_c6_filter_contractiveness_randomized(kb, lists):
    with criterion("C6 filter contractiveness (1000 randomized cases)"):
        rng = random.Random(14020518)
        surfaces = sorted(kb.alias_index) + ["بدون برخورد", "ناشناس"]
        all_off = LinkerConfig(filters=frozenset())
        for _ in range(1000):
            surface = rng.choice(surfaces)
            filler = rng.choice(["در متن", "در فیلم و سینما", "در شهر", ""])
            text = (surface + " " + filler).strip()
            mention = Mention(
                0,
                len(surface),
                surface,
                ner_type=rng.choice([None, *NerType]),
                pos_tag=rng.choice([None, *PosCategory]),
            )
            doc = Document("r", "test", text, [mention])
            cfg = LinkerConfig(filters=frozenset(f for f in FILTERS if rng.random() < 0.5))
            candidates = brute_force_candidates(kb, surface)
            [kept] = kept_candidates(kb, lists, cfg, doc)
            assert set(kept) <= candidates
            assert all(0.0 < c.penalty <= 1.0 for c in kept.values())

            [identity] = kept_candidates(kb, lists, all_off, doc)
            assert set(identity) == candidates
            assert all(c.penalty == 1.0 for c in identity.values())
            assert set(kept) <= set(identity)


def test_c7_normalization_and_alias_properties(kb):
    with criterion("C7 normalization idempotence, alias round-trip, codepoints"):
        rng = random.Random(13991399)
        for _ in range(1000):
            s = "".join(chr(rng.randrange(0x20, 0xFFFF)) for _ in range(rng.randrange(0, 40)))
            once = normalize(s)
            assert normalize(once) == once

        for record in kb.entities.values():
            for label in {record.canonical_label, *record.variant_labels}:
                assert record.id in lookup_alias(kb, label)

        # Codepoint table, character by character.
        assert normalize("ك") == "ک"  # Arabic kaf -> Persian kaf
        assert normalize("ي") == "ی"  # Arabic yeh -> Persian yeh
        assert normalize("ـ") == ""  # tatweel removed
        assert normalize(ZWNJ) == ""
        for codepoint in range(0x064B, 0x0653):  # Arabic diacritics removed
            assert normalize("ب" + chr(codepoint)) == "ب"
            assert normalize(chr(codepoint)) == ""


def test_c8_determinism_across_runs(tmp_path, data_dir):
    with criterion("C8 byte-identical output across three link runs"):
        index = tmp_path / "mini.idx"
        assert main(["build-index", "--kb", str(data_dir / "mini_kb.jsonl"),
                     "--lists", str(data_dir / "reference_lists.json"),
                     "--out", str(index)]) == 0
        outputs = []
        for run in range(3):
            out = tmp_path / f"pred-{run}.jsonl"
            assert main(["link", "--index", str(index),
                         "--corpus", str(data_dir / "mini_corpus.jsonl"),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0]) > 0


def test_c9_stats_reproduction(kb, mini_corpus, tmp_path, data_dir, capsys):
    with criterion("C9 corpus statistics fixture and report shape"):
        stats = corpus_stats(mini_corpus, kb)
        assert stats.documents == 12
        assert stats.sentences == 14
        assert stats.words == 173
        assert stats.entities == 24
        assert stats.candidates == 33
        assert stats.words_per_article == pytest.approx(173 / 12)
        assert stats.entities_per_article == pytest.approx(2.0)
        assert stats.candidates_per_mention == pytest.approx(1.375)

        index = tmp_path / "mini.idx"
        assert main(["build-index", "--kb", str(data_dir / "mini_kb.jsonl"),
                     "--lists", str(data_dir / "reference_lists.json"),
                     "--out", str(index)]) == 0
        capsys.readouterr()
        assert main(["stats", "--corpus", str(data_dir / "mini_corpus.jsonl"),
                     "--index", str(index)]) == 0
        rendered = capsys.readouterr().out
        for label in ("documents", "sentences", "words", "entities", "candidates",
                      "words per article", "entities per article", "candidates per mention"):
            assert label in rendered
