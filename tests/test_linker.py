from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peyvand import linker
from peyvand.cache import save_index
from peyvand.corpus import Document, Mention, NIL
from peyvand.kb import KnowledgeBase, NerType, PosCategory, load_kb
from peyvand.linker import (
    ConfigError,
    LinkerConfig,
    context_score,
    filter_candidates,
    generate_candidates,
    graph_score,
    link_document,
    rank_and_select,
)
from peyvand.textnorm import identity_normalize, tokenize

from oracles import (
    brute_force_candidates,
    dense_cosine,
    exhaustive_raw_links,
    oracle_article_terms,
    oracle_context_terms,
    oracle_link_document,
)
from synth import ClassFilter, build_kb, empty_lists, entity


def doc_of(text: str, *mentions: Mention, doc_id: str = "t1", category: str = "test") -> Document:
    return Document(doc_id, category, text, list(mentions))


def mention_at(text: str, surface: str, **kwargs) -> Mention:
    start = text.index(surface)
    return Mention(start, start + len(surface), surface, **kwargs)


class TestConfig:
    def test_defaults(self):
        cfg = LinkerConfig()
        assert cfg.lambda_weight == 0.5
        assert cfg.nil_threshold == 0.05
        assert cfg.type_filter and cfg.pos_filter and cfg.popularity_filter and cfg.class_filter

    def test_lambda_bounds_enforced(self):
        with pytest.raises(ConfigError):
            LinkerConfig(lambda_weight=1.5)
        with pytest.raises(ConfigError):
            LinkerConfig(lambda_weight=-0.1)

    def test_threshold_above_one_allowed_for_full_abstention(self):
        assert LinkerConfig(nil_threshold=1.1).nil_threshold == 1.1
        with pytest.raises(ConfigError):
            LinkerConfig(nil_threshold=-0.01)

    def test_from_dict_round_trip(self):
        cfg = LinkerConfig(lambda_weight=0.7, nil_threshold=0.2, pos_filter=False, class_filter=False)
        assert LinkerConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            LinkerConfig.from_dict({"lamda": 0.5})
        with pytest.raises(ConfigError):
            LinkerConfig.from_dict({"filters": {"typo": True}})
        with pytest.raises(ConfigError):  # the normalizer is fixed by the index
            LinkerConfig.from_dict({"normalizer": "persian"})
        # The context is always the whole document and the IDF always smoothed.
        with pytest.raises(ConfigError, match="unknown config keys"):
            LinkerConfig.from_dict({"context_window": None})
        with pytest.raises(ConfigError, match="unknown config keys"):
            LinkerConfig.from_dict({"idf_smoothing": True})

    def test_bundled_config_is_the_defaults(self, data_dir):
        bundled = json.loads((data_dir / "default_config.json").read_text(encoding="utf-8"))
        assert bundled == LinkerConfig().to_dict()

    def test_readme_config_is_the_defaults(self, data_dir):
        readme = (data_dir.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Config file\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == LinkerConfig().to_dict()


class TestGenerateCandidates:
    def test_unknown_surface_empty(self, kb):
        doc_text = "دنا زیبا است"
        assert generate_candidates(kb, mention_at(doc_text, "دنا")) == frozenset()

    def test_ambiguous_surface_matches_brute_force(self, kb):
        m = Mention(0, 6, "شهریار")
        assert set(generate_candidates(kb, m)) == brute_force_candidates(kb, "شهریار")
        assert generate_candidates(kb, m) == {"E10", "E32", "E33"}

    def test_canonical_label_is_singleton(self, kb):
        assert generate_candidates(kb, Mention(0, 4, "اسنپ")) == {"E23"}


class TestFilters:
    def test_all_filters_disabled_is_identity_with_unit_penalties(self, kb, lists, mini_corpus):
        cfg = LinkerConfig(type_filter=False, pos_filter=False, popularity_filter=False, class_filter=False)
        doc = mini_corpus[1]  # d02
        mention = doc.mentions[0]
        candidates = generate_candidates(kb, mention)
        kept, penalties = filter_candidates(kb, lists, cfg, doc, mention, candidates)
        assert kept == set(candidates)
        assert penalties == {c: 1.0 for c in candidates}

    def test_type_filter_drops_class_outside_mapping(self, kb, lists):
        doc = doc_of("چهل سالگی نزدیک است", mention_at("چهل سالگی نزدیک است", "چهل سالگی", ner_type=NerType.LOC))
        kept, _ = filter_candidates(kb, lists, LinkerConfig(), doc, doc.mentions[0], frozenset({"E16"}))
        assert kept == set()  # a film is not a location

    def test_type_filter_skipped_without_annotation(self, kb, lists):
        doc = doc_of("چهل سالگی نزدیک است", mention_at("چهل سالگی نزدیک است", "چهل سالگی"))
        kept, _ = filter_candidates(kb, lists, LinkerConfig(), doc, doc.mentions[0], frozenset({"E16"}))
        assert kept == {"E16"}

    def test_type_filter_skipped_for_unmapped_type(self, kb, lists):
        # the reference lists carry no OTHER entry, so no evidence, no drop
        text = "تار ساز خوبی است"
        doc = doc_of(text, mention_at(text, "تار", ner_type=NerType.OTHER))
        kept, _ = filter_candidates(kb, lists, LinkerConfig(), doc, doc.mentions[0], frozenset({"E26"}))
        assert kept == {"E26"}

    def test_pos_filter_drops_mismatch_keeps_unknown(self):
        records = [
            entity("P1", "نام", pos=PosCategory.PROPER_NOUN),
            entity("P2", "نام", pos=PosCategory.COMMON_NOUN),
            entity("P3", "نام", pos=PosCategory.UNKNOWN),
        ]
        kb = build_kb(records)
        lists = empty_lists()
        text = "نام چیزها"
        doc = doc_of(text, mention_at(text, "نام", pos_tag=PosCategory.COMMON_NOUN))
        kept, _ = filter_candidates(kb, lists, LinkerConfig(), doc, doc.mentions[0], frozenset({"P1", "P2", "P3"}))
        assert kept == {"P2", "P3"}

    def test_pos_filter_skipped_when_mention_pos_unknown(self):
        kb = build_kb([entity("P1", "نام", pos=PosCategory.PROPER_NOUN)])
        text = "نام چیزها"
        doc = doc_of(text, mention_at(text, "نام", pos_tag=PosCategory.UNKNOWN))
        kept, _ = filter_candidates(kb, empty_lists(), LinkerConfig(), doc, doc.mentions[0], frozenset({"P1"}))
        assert kept == {"P1"}

    def test_popularity_filter_blocklist_and_rare_flag(self, kb, lists):
        text = "مسافران به پاریس رفتند"
        doc = doc_of(text, mention_at(text, "پاریس"))
        kept, _ = filter_candidates(
            kb, lists, LinkerConfig(), doc, doc.mentions[0], frozenset({"E30", "E31"})
        )
        assert kept == {"E30"}  # E31 is blocklisted

        text = "شهریار جای خوبی است"
        doc = doc_of(text, mention_at(text, "شهریار"))
        kept, _ = filter_candidates(
            kb, lists, LinkerConfig(), doc, doc.mentions[0], frozenset({"E10", "E32", "E33"})
        )
        assert kept == {"E10", "E33"}  # E32 carries the rare flag

    def test_class_filter_penalty_without_trigger_full_rate_with(self, kb, lists):
        candidates = frozenset({"E16"})
        bare = "چهل سالگی دوران خوبی است"
        doc = doc_of(bare, mention_at(bare, "چهل سالگی"))
        kept, penalties = filter_candidates(kb, lists, LinkerConfig(), doc, doc.mentions[0], candidates)
        assert kept == {"E16"}
        assert penalties["E16"] == 0.5

        cinema = "چهل سالگی در سینما دیدنی است"
        doc = doc_of(cinema, mention_at(cinema, "چهل سالگی"))
        _, penalties = filter_candidates(kb, lists, LinkerConfig(), doc, doc.mentions[0], candidates)
        assert penalties["E16"] == 1.0

    def test_agreement_with_oracle_on_random_cases(self, kb, lists, mini_corpus):
        from oracles import oracle_filter

        rng = random.Random(99)
        surfaces = sorted(kb.alias_index)
        for _ in range(300):
            surface = rng.choice(surfaces)
            text = f"{surface} در متن"
            doc = doc_of(text, mention_at(text, surface,
                                          ner_type=rng.choice([None, *NerType]),
                                          pos_tag=rng.choice([None, *PosCategory])))
            cfg = LinkerConfig(
                type_filter=rng.random() < 0.5,
                pos_filter=rng.random() < 0.5,
                popularity_filter=rng.random() < 0.5,
                class_filter=rng.random() < 0.5,
            )
            mention = doc.mentions[0]
            candidates = generate_candidates(kb, mention)
            kept, penalties = filter_candidates(kb, lists, cfg, doc, mention, candidates)
            doc_terms = {t.text for t in tokenize(text) if t.text not in lists.stopwords}
            oracle_kept, oracle_penalties = oracle_filter(kb, lists, cfg, mention, candidates, doc_terms)
            assert kept == oracle_kept
            assert penalties == oracle_penalties


# Synthetic three-article collection for exact cosine checks:
# df(سیب)=1, df(انار)=2, df(موز)=2, N=3.
_COSINE_KB = build_kb(
    [
        entity("C1", "هدف", article="سیب انار سیب"),
        entity("C2", "نشانه", article="انار موز"),
        entity("C3", "علامت", article="موز"),
    ]
)


class TestContextScore:
    def test_empty_article_scores_zero(self, kb, lists, mini_corpus):
        doc = mini_corpus[0]
        assert context_score(kb, lists, doc, doc.mentions[0], kb.entities["E31"]) == 0.0

    def test_context_identical_to_article_scores_one(self):
        lists = empty_lists()
        text = "هدف انار موز"
        doc = doc_of(text, mention_at(text, "هدف"))
        score = context_score(_COSINE_KB, lists, doc, doc.mentions[0], _COSINE_KB.entities["C2"])
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_two_term_overlap_matches_hand_computed_weight_table(self):
        # context (انار, موز) against article (سیب x2, انار); value frozen
        # from the explicit TF-IDF table.
        lists = empty_lists()
        text = "هدف انار موز"
        doc = doc_of(text, mention_at(text, "هدف"))
        score = context_score(_COSINE_KB, lists, doc, doc.mentions[0], _COSINE_KB.entities["C1"])
        assert score == pytest.approx(0.25132870827089976, abs=1e-9)
        oracle = dense_cosine(["انار", "موز"], ["سیب", "انار", "سیب"], _COSINE_KB.doc_freq, 3)
        assert score == pytest.approx(oracle, abs=1e-9)

    def test_empty_context_scores_zero(self):
        lists = empty_lists()
        text = "هدف"
        doc = doc_of(text, mention_at(text, "هدف"))
        assert context_score(_COSINE_KB, lists, doc, doc.mentions[0], _COSINE_KB.entities["C1"]) == 0.0

    def test_mention_span_excluded_from_context(self):
        # the mention's own tokens must not count as context evidence
        lists = empty_lists()
        text = "سیب انار"
        doc = doc_of(text, mention_at(text, "سیب"))
        score = context_score(_COSINE_KB, lists, doc, doc.mentions[0], _COSINE_KB.entities["C1"])
        oracle = dense_cosine(["انار"], ["سیب", "انار", "سیب"], _COSINE_KB.doc_freq, 3)
        assert score == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize(
        "text, context",
        [
            ("سیبهدف انار", ["انار"]),
            ("هدفموز سیب انار", ["سیب", "انار"]),
            ("انار هدف\u200cسیب موز", ["انار", "موز"]),  # a ZWNJ compound
        ],
        ids=["mention-ends-token", "mention-starts-token", "zwnj-compound"],
    )
    def test_token_the_mention_cuts_is_dropped_whole(self, text, context):
        lists = empty_lists()
        doc = doc_of(text, mention_at(text, "هدف"))
        assert oracle_context_terms(doc, doc.mentions[0], _COSINE_KB, lists) == context
        score = context_score(_COSINE_KB, lists, doc, doc.mentions[0], _COSINE_KB.entities["C1"])
        oracle = dense_cosine(
            context,
            oracle_article_terms("C1", _COSINE_KB, lists),
            _COSINE_KB.doc_freq,
            _COSINE_KB.doc_count,
        )
        assert score == pytest.approx(oracle, abs=1e-9)

    def test_bag_of_words_permutation_invariance(self):
        lists = empty_lists()
        words = ["انار", "موز", "سیب", "انار", "موز"]
        rng = random.Random(7)
        baseline = None
        for _ in range(10):
            rng.shuffle(words)
            text = "هدف " + " ".join(words)
            doc = doc_of(text, mention_at(text, "هدف"))
            score = context_score(_COSINE_KB, lists, doc, doc.mentions[0], _COSINE_KB.entities["C1"])
            if baseline is None:
                baseline = score
            assert score == pytest.approx(baseline, abs=1e-12)


class TestGraphScore:
    def test_single_mention_document_scores_zero(self, kb):
        doc_candidates = {0: {"E01", "E08"}}
        assert graph_score(kb, "E01", 0, doc_candidates) == 0.0
        assert graph_score(kb, "E08", 0, doc_candidates) == 0.0

    def test_forced_example_linked_candidate_one_other_zero(self):
        kb = build_kb(
            [entity("A", "الف", links=("C",)), entity("B", "ب"), entity("C", "ج")]
        )
        doc_candidates = {0: {"A", "B"}, 1: {"C"}}
        assert graph_score(kb, "A", 0, doc_candidates) == 1.0
        assert graph_score(kb, "B", 0, doc_candidates) == 0.0

    def test_reverse_direction_counts(self):
        kb = build_kb(
            [entity("A", "الف"), entity("C", "ج", links=("A",))]
        )
        doc_candidates = {0: {"A"}, 1: {"C"}}
        assert graph_score(kb, "A", 0, doc_candidates) == 1.0

    def test_duplicate_entity_across_mentions_counted_once(self):
        kb = build_kb(
            [entity("A", "الف", links=("C",)), entity("C", "ج")]
        )
        # C appears as a candidate of two other mentions; still one link
        doc_candidates = {0: {"A"}, 1: {"C"}, 2: {"C"}}
        raw = exhaustive_raw_links(kb, 0, doc_candidates)
        assert raw == {"A": 1}
        assert graph_score(kb, "A", 0, doc_candidates) == 1.0

    def test_candidate_must_belong_to_mention(self, kb):
        with pytest.raises(ValueError):
            graph_score(kb, "E01", 0, {0: {"E02"}})

    def test_matches_exhaustive_enumeration_on_mini_corpus(self, kb, lists, mini_corpus):
        cfg = LinkerConfig()
        for doc in mini_corpus:
            doc_candidates = {}
            for i, mention in enumerate(doc.mentions):
                kept, _ = filter_candidates(kb, lists, cfg, doc, mention, generate_candidates(kb, mention))
                doc_candidates[i] = kept
            for i in range(len(doc.mentions)):
                raw = exhaustive_raw_links(kb, i, doc_candidates)
                max_raw = max(raw.values()) if raw else 0
                for candidate in doc_candidates[i]:
                    expected = raw[candidate] / max_raw if max_raw else 0.0
                    assert graph_score(kb, candidate, i, doc_candidates) == pytest.approx(expected, abs=1e-12)


class TestRankAndSelect:
    def test_empty_candidates_nil_score_zero_empty_ambiguity(self, kb, lists, mini_corpus):
        d03 = next(d for d in mini_corpus if d.id == "d03")
        result = rank_and_select(kb, lists, LinkerConfig(), d03, 2, {0: set(), 1: set(), 2: set()})
        assert result.decision is NIL
        assert result.score == 0.0
        assert result.ambiguity == ()

    def test_zero_threshold_never_nil_for_nonempty_kept(self, kb, lists, mini_corpus):
        cfg = LinkerConfig(nil_threshold=0.0)
        for doc in mini_corpus:
            for result in link_document(kb, lists, cfg, doc):
                mention = doc.mentions[result.mention_index]
                kept, _ = filter_candidates(kb, lists, cfg, doc, mention, generate_candidates(kb, mention))
                if kept:
                    assert isinstance(result.decision, str)

    def test_exact_tie_goes_to_lowest_entity_id(self, kb, lists, mini_corpus):
        # d05 is engineered: context 0 for both, graph 1.0 for both
        d05 = next(d for d in mini_corpus if d.id == "d05")
        result = link_document(kb, lists, LinkerConfig(), d05)[0]
        assert result.decision == "E10"
        assert result.ambiguity[0].entity_id == "E33"
        assert result.score == result.ambiguity[0].combined  # bit-exact tie

    def test_nil_keeps_all_candidates_in_ambiguity(self, kb, lists):
        text = "شهریار"
        doc = doc_of(text, mention_at(text, "شهریار"))
        cfg = LinkerConfig(nil_threshold=1.1, popularity_filter=False)
        result = link_document(kb, lists, cfg, doc)[0]
        assert result.decision is NIL
        assert [c.entity_id for c in result.ambiguity] == ["E10", "E32", "E33"]

    def test_ambiguity_sorted_by_combined_then_id(self, kb, lists, mini_corpus):
        for doc in mini_corpus:
            for result in link_document(kb, lists, LinkerConfig(), doc):
                keys = [(-c.combined, c.entity_id) for c in result.ambiguity]
                assert keys == sorted(keys)


class TestLinkDocument:
    def test_zero_mentions_empty_result(self, kb, lists):
        assert link_document(kb, lists, LinkerConfig(), Document("x", "test", "متن بدون اشاره", [])) == []

    def test_matches_oracle_on_full_mini_corpus(self, kb, lists, mini_corpus):
        cfg = LinkerConfig()
        for doc in mini_corpus:
            got = link_document(kb, lists, cfg, doc)
            expected = oracle_link_document(kb, lists, cfg, doc)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert type(g.decision) is type(e.decision)
                if isinstance(g.decision, str):
                    assert g.decision == e.decision
                assert g.score == pytest.approx(e.score, abs=1e-9)
                assert [c.entity_id for c in g.ambiguity] == [c.entity_id for c in e.ambiguity]
                for gc, ec in zip(g.ambiguity, e.ambiguity):
                    assert gc.context_score == pytest.approx(ec.context_score, abs=1e-9)
                    assert gc.graph_score == pytest.approx(ec.graph_score, abs=1e-9)
                    assert gc.penalty == ec.penalty
                    assert gc.combined == pytest.approx(ec.combined, abs=1e-9)

    def test_results_come_back_in_mention_order(self, kb, lists, mini_corpus):
        for doc in mini_corpus:
            results = link_document(kb, lists, LinkerConfig(), doc)
            assert [r.mention_index for r in results] == list(range(len(doc.mentions)))

    def test_all_scores_within_unit_interval(self, kb, lists, mini_corpus):
        for cfg in (LinkerConfig(), LinkerConfig(lambda_weight=0.0), LinkerConfig(lambda_weight=1.0)):
            for doc in mini_corpus:
                for result in link_document(kb, lists, cfg, doc):
                    assert 0.0 <= result.score <= 1.0
                    for c in result.ambiguity:
                        assert 0.0 <= c.context_score <= 1.0
                        assert 0.0 <= c.graph_score <= 1.0
                        assert 0.0 < c.penalty <= 1.0
                        assert 0.0 <= c.combined <= 1.0

    def test_pure_context_agrees_when_context_is_decisive(self, kb, lists, mini_corpus):
        # d03's second mention separates on context alone
        d03 = next(d for d in mini_corpus if d.id == "d03")
        full = link_document(kb, lists, LinkerConfig(), d03)[1]
        pure_context = link_document(kb, lists, LinkerConfig(lambda_weight=1.0), d03)[1]
        assert full.decision == pure_context.decision == "E06"

    def test_graph_normalization_preserves_argmax_at_lambda_zero(self, kb, lists, mini_corpus):
        cfg = LinkerConfig(lambda_weight=0.0, nil_threshold=0.0, class_filter=False)
        for doc in mini_corpus:
            doc_candidates = {}
            for i, mention in enumerate(doc.mentions):
                kept, _ = filter_candidates(kb, lists, cfg, doc, mention, generate_candidates(kb, mention))
                doc_candidates[i] = kept
            results = link_document(kb, lists, cfg, doc)
            for i, result in enumerate(results):
                if not doc_candidates[i]:
                    continue
                raw = exhaustive_raw_links(kb, i, doc_candidates)
                raw_winner = min(sorted(raw), key=lambda c: (-raw[c], c))
                assert result.decision == raw_winner

    def test_empty_article_candidate_can_win_on_graph(self, kb, lists):
        # E31 has no article text; with the blocklist disabled it still wins
        # purely through its link to the other mention's candidate.
        text = "پاریس و ایران"
        doc = doc_of(
            text,
            mention_at(text, "پاریس"),
            mention_at(text, "ایران"),
        )
        cfg = LinkerConfig(popularity_filter=False)
        result = link_document(kb, lists, cfg, doc)[0]
        assert result.decision == "E31"
        assert result.score == pytest.approx(0.5)

    def test_nil_counts_monotone_in_threshold(self, kb, lists, mini_corpus):
        counts = []
        for threshold in (0.0, 0.05, 0.2, 0.5, 1.1):
            cfg = LinkerConfig(nil_threshold=threshold)
            nils = sum(
                1
                for doc in mini_corpus
                for result in link_document(kb, lists, cfg, doc)
                if not isinstance(result.decision, str)
            )
            counts.append(nils)
        assert counts == sorted(counts)


# Contractiveness over randomized synthetic knowledge bases.
_classes = st.sampled_from(["city", "club", "film"])
_flags = st.booleans()


@st.composite
def filter_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    records = [
        entity(
            f"X{i}",
            "نام",
            kb_class=draw(_classes),
            ner_type=draw(st.sampled_from(list(NerType))),
            pos=draw(st.sampled_from(list(PosCategory))),
            rare=draw(_flags),
        )
        for i in range(n)
    ]
    kb = build_kb(records)
    lists = empty_lists(
        rare_blocklist=frozenset(draw(st.sets(st.sampled_from([r.id for r in records])))),
        class_filters={"film": ClassFilter(frozenset({"فیلم"}), 0.5)},
        type_mapping={NerType.LOC: frozenset({"city"}), NerType.ORG: frozenset({"club"})},
    )
    cfg = LinkerConfig(
        type_filter=draw(_flags),
        pos_filter=draw(_flags),
        popularity_filter=draw(_flags),
        class_filter=draw(_flags),
    )
    with_trigger = draw(_flags)
    text = "نام در فیلم" if with_trigger else "نام در متن"
    doc = doc_of(
        text,
        mention_at(
            text,
            "نام",
            ner_type=draw(st.sampled_from([None, *NerType])),
            pos_tag=draw(st.sampled_from([None, *PosCategory])),
        ),
    )
    return kb, lists, cfg, doc


@given(filter_scenarios())
@settings(max_examples=300, deadline=None)
def test_filters_are_contractive(scenario):
    kb, lists, cfg, doc = scenario
    mention = doc.mentions[0]
    candidates = generate_candidates(kb, mention)
    kept, penalties = filter_candidates(kb, lists, cfg, doc, mention, candidates)
    assert kept <= set(candidates)
    assert set(penalties) == kept
    assert all(0.0 < p <= 1.0 for p in penalties.values())

    relaxed, unit = filter_candidates(
        kb,
        lists,
        LinkerConfig(type_filter=False, pos_filter=False, popularity_filter=False, class_filter=False),
        doc,
        mention,
        candidates,
    )
    assert relaxed == set(candidates)
    assert all(p == 1.0 for p in unit.values())
    assert kept <= relaxed


class TestConfigRejectsInvalidNumbers:
    @pytest.mark.parametrize(
        "fields",
        [
            {"nil_threshold": float("nan")},
            {"nil_threshold": float("inf")},
            {"lambda_weight": float("nan")},
            {"lambda_weight": float("inf")},
        ],
    )
    def test_constructor(self, fields):
        with pytest.raises(ConfigError):
            LinkerConfig(**fields)

    @pytest.mark.parametrize(
        "data",
        [
            {"nil_threshold": "nan"},
            {"lambda": "inf"},
            {"nil_threshold": True},
            {"lambda": False},
            {"lambda": "0.5"},
            {"nil_threshold": None},
            {"lambda": 10**400},
        ],
    )
    def test_from_dict(self, data):
        with pytest.raises(ConfigError):
            LinkerConfig.from_dict(data)

    def test_from_dict_accepts_json_integers(self):
        cfg = LinkerConfig.from_dict({"lambda": 1, "nil_threshold": 0})
        assert (cfg.lambda_weight, cfg.nil_threshold) == (1.0, 0.0)
        assert type(cfg.lambda_weight) is float and type(cfg.nil_threshold) is float

    def test_from_dict_takes_defaults_for_missing_keys(self):
        assert LinkerConfig.from_dict({"lambda": 0.2}) == LinkerConfig(lambda_weight=0.2)
        assert LinkerConfig.from_dict({"filters": {"pos": False}}) == LinkerConfig(pos_filter=False)


class TestConfigRejectsMalformedFlags:
    @pytest.mark.parametrize(
        "data",
        [
            {"filters": 5},
            {"filters": ["type"]},
            {"filters": {"type": "false"}},
        ],
        ids=["filters-int", "filters-list", "filter-flag-string"],
    )
    def test_from_dict(self, data):
        with pytest.raises(ConfigError):
            LinkerConfig.from_dict(data)


class TestArticleVectorMemo:
    """Article vectors (keyed by the stopwords), normal forms of article
    words and IDF weights are memoized on the KB; a warm KB must link
    exactly like a freshly loaded one."""

    @staticmethod
    def _load(data_dir):
        return load_kb(data_dir / "mini_kb.jsonl", data_dir / "reference_lists.json")

    @staticmethod
    def _link_all(kb, lists, cfg, corpus):
        return [link_document(kb, lists, cfg, doc) for doc in corpus]

    def test_interleaved_keys_match_fresh_kb_and_oracle(self, data_dir, mini_corpus):
        shared, bundled = self._load(data_dir)
        frequent = sorted(shared.doc_freq, key=lambda t: (-shared.doc_freq[t], t))[:5]
        extra = replace(bundled, stopwords=bundled.stopwords | frozenset(frequent))
        runs = [(bundled, LinkerConfig()), (extra, LinkerConfig())]
        first = [self._link_all(shared, lists, cfg, mini_corpus) for lists, cfg in runs]
        assert len(shared.article_vectors) == 2
        assert first[0] != first[1]  # each key changes scores
        for (lists, cfg), got in zip(runs, first):
            fresh, _ = self._load(data_dir)
            assert got == self._link_all(fresh, lists, cfg, mini_corpus)

        second = [self._link_all(shared, lists, cfg, mini_corpus) for lists, cfg in runs]
        assert second == first
        for (lists, cfg), results in zip(runs, second):
            for doc, got in zip(mini_corpus, results):
                expected = oracle_link_document(shared, lists, cfg, doc)
                assert [r.decision for r in got] == [r.decision for r in expected]
                for g, e in zip(got, expected):
                    assert g.score == pytest.approx(e.score, abs=1e-9)
                    assert [c.entity_id for c in g.ambiguity] == [c.entity_id for c in e.ambiguity]

    def test_memo_is_not_compared_copied_or_saved(self, tmp_path, data_dir, mini_corpus):
        warm, lists = self._load(data_dir)
        fresh, _ = self._load(data_dir)
        self._link_all(warm, lists, LinkerConfig(), mini_corpus)
        assert warm.article_vectors and warm.normal_forms and warm.idf
        assert warm == fresh
        copy = replace(warm)
        assert copy.article_vectors == {} and copy.normal_forms == {} and copy.idf == {}
        save_index(warm, lists, tmp_path / "warm.idx")
        save_index(fresh, lists, tmp_path / "fresh.idx")
        assert (tmp_path / "warm.idx").read_bytes() == (tmp_path / "fresh.idx").read_bytes()

    def test_each_article_tokenized_at_most_once(self, data_dir, mini_corpus, monkeypatch):
        kb, lists = self._load(data_dir)
        articles = {e.article_text for e in kb.entities.values()}
        calls: Counter[str] = Counter()
        real_terms = linker.terms

        def counting_terms(text, *args, **kwargs):
            if text in articles:
                calls[text] += 1
            return real_terms(text, *args, **kwargs)

        monkeypatch.setattr(linker, "terms", counting_terms)
        for _ in range(2):
            self._link_all(kb, lists, LinkerConfig(), mini_corpus)
        assert calls
        assert max(calls.values()) == 1

    def test_normal_forms_hold_article_runs_only(self, data_dir, mini_corpus, monkeypatch):
        kb, lists = self._load(data_dir)
        calls: Counter[str] = Counter()
        profile = kb.normal_forms.profile

        def counting_profile(run):
            calls[run] += 1
            return profile(run)

        monkeypatch.setattr(kb.normal_forms, "profile", counting_profile)
        word = "زرافه"  # in no article of the mini KB
        assert not any(word in e.article_text for e in kb.entities.values())
        first = mini_corpus[0]
        corpus = [*mini_corpus, replace(first, id="extra", text=f"{first.text} {word}")]
        for _ in range(2):
            self._link_all(kb, lists, LinkerConfig(), corpus)

        vectorized = kb.article_vectors[lists.stopwords]
        article_runs = {
            t.text
            for entity_id in vectorized
            for t in tokenize(kb.entities[entity_id].article_text, identity_normalize)
        }
        assert set(kb.normal_forms) == article_runs
        assert word not in kb.normal_forms
        assert set(calls) == article_runs
        assert max(calls.values()) == 1


@st.composite
def idf_cases(draw):
    """An article count N and a few (df, count) pairs with 0 <= df <= N."""
    doc_count = draw(st.integers(min_value=0, max_value=10**6))
    pairs = st.tuples(st.integers(min_value=0, max_value=doc_count), st.integers(1, 50))
    return doc_count, draw(st.lists(pairs, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(idf_cases())
def test_idf_table_is_exact(case):
    """Each term weight equals the smoothed IDF formula bit for bit, and
    the IDF table holds one entry per distinct df looked up."""
    doc_count, pairs = case
    names = [f"t{i}" for i in range(len(pairs))]
    kb = KnowledgeBase({}, {}, doc_count, {t: df for t, (df, _) in zip(names, pairs) if df})
    vector = linker._tfidf_vector([t for t, (_, n) in zip(names, pairs) for _ in range(n)], kb)
    for term, (df, count) in zip(names, pairs):
        assert vector[term] == count * (math.log((1 + doc_count) / (1 + df)) + 1.0)
    assert len(kb.idf) == len({df for df, _ in pairs})


# Graph counts over randomized synthetic link graphs.
_GRAPH_IDS = [f"G{i}" for i in range(6)]


@st.composite
def graph_scenarios(draw):
    """A KB whose entities link to random subsets of each other (one-way and
    mutual links, self-links that the KB drops) and a document whose
    mentions draw possibly overlapping, possibly empty candidate sets."""
    ids = _GRAPH_IDS[: draw(st.integers(min_value=1, max_value=len(_GRAPH_IDS)))]
    records = [entity(i, links=tuple(sorted(draw(st.sets(st.sampled_from(ids)))))) for i in ids]
    mentions = draw(st.lists(st.sets(st.sampled_from(ids)), min_size=1, max_size=5))
    return build_kb(records), dict(enumerate(mentions))


# G0 -> G1 one way, G1 <-> G2 mutual, G3 -> G0; G1 is a candidate of two
# mentions and mention 3 has no candidates.
_GRAPH_EXAMPLE = (
    build_kb(
        [
            entity("G0", links=("G1",)),
            entity("G1", links=("G2",)),
            entity("G2", links=("G1",)),
            entity("G3", links=("G0",)),
        ]
    ),
    {0: {"G0", "G3"}, 1: {"G1"}, 2: {"G1", "G2"}, 3: set()},
)


@given(graph_scenarios())
@example(_GRAPH_EXAMPLE)
@settings(max_examples=300, deadline=None)
def test_graph_score_matches_exhaustive_enumeration(scenario):
    kb, doc_candidates = scenario
    for i, candidates in doc_candidates.items():
        raw = exhaustive_raw_links(kb, i, doc_candidates)
        max_raw = max(raw.values(), default=0)
        for candidate in candidates:
            expected = raw[candidate] / max_raw if max_raw else 0.0
            assert graph_score(kb, candidate, i, doc_candidates) == expected
