from __future__ import annotations

import itertools
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peyvand import linker
from peyvand.cache import save_index
from peyvand.corpus import Document, Mention, NIL, write_predictions
from peyvand.errors import InputError, PeyvandError
from peyvand.kb import (
    KnowledgeBase,
    NerType,
    PosCategory,
    bag_json,
    load_kb,
    load_reference_lists,
    read_dump,
    read_json_lines,
)
from peyvand.linker import FILTERS, ConfigError, LinkerConfig, link_document
from peyvand import kb as kb_module, textnorm
from peyvand.textnorm import NormalForms, tokenize

from oracles import (
    brute_force_candidates,
    dense_cosine,
    exhaustive_raw_links,
    oracle_article_terms,
    oracle_context_terms,
    oracle_is_separator,
    oracle_kept,
    oracle_link_document,
    oracle_normalize,
    oracle_tokenize,
)
from synth import ClassFilter, build_kb, empty_lists, entity, kept_candidates, tokenizer_text

ALL_OFF = LinkerConfig(filters=frozenset())


def doc_of(text: str, *mentions: Mention, doc_id: str = "t1", category: str = "test") -> Document:
    return Document(doc_id, category, text, list(mentions))


def mention_at(text: str, surface: str, **kwargs) -> Mention:
    start = text.index(surface)
    return Mention(start, start + len(surface), surface, **kwargs)


def filtered(kb, lists, cfg, doc) -> tuple[set[str], dict[str, float]]:
    """The first mention's kept candidates and their penalties."""
    kept = kept_candidates(kb, lists, cfg, doc)[0]
    return set(kept), {c: scored.penalty for c, scored in kept.items()}


def context_scores(kb, lists, doc) -> dict[str, float]:
    """The first mention's context score for each of its candidates."""
    kept = kept_candidates(kb, lists, ALL_OFF, doc)[0]
    return {c: scored.context_score for c, scored in kept.items()}


def graph_document(links: dict[str, tuple[str, ...]], doc_candidates: dict[int, set[str]]):
    """A KB in which entity `e` links to `links[e]` and answers to the alias
    `m{j}` for each mention j whose candidates hold it, and a document whose
    mention j is `m{j}`, so its kept set is `doc_candidates[j]`."""
    records = [
        entity(e, variants=tuple(f"m{j}" for j, cands in doc_candidates.items() if e in cands),
               links=targets)
        for e, targets in links.items()
    ]
    text = " ".join(f"m{j}" for j in doc_candidates)
    return build_kb(records), doc_of(text, *(mention_at(text, f"m{j}") for j in doc_candidates))


def graph_scores(kb, doc) -> list[dict[str, float]]:
    """Each mention's graph score for each of its candidates."""
    return [
        {c: scored.graph_score for c, scored in kept.items()}
        for kept in kept_candidates(kb, empty_lists(), ALL_OFF, doc)
    ]


@st.composite
def text_and_span(draw) -> tuple[str, int, int]:
    """A non-empty text over the tokenizer alphabet and a span [a, b),
    a < b, drawn anywhere, inside one run of word characters, inside one
    run of separators, from the start or to the end of the text."""
    text = draw(tokenizer_text.filter(bool))
    runs: dict[bool, list[tuple[int, int]]] = {True: [], False: []}
    i = 0
    for is_separator, group in itertools.groupby(text, oracle_is_separator):
        j = i + len(list(group))
        runs[is_separator].append((i, j))
        i = j
    kind = draw(st.sampled_from(["anywhere", "in-token", "on-separators", "at-start", "at-end"]))
    within = {"in-token": runs[False], "on-separators": runs[True]}.get(kind)
    lo, hi = draw(st.sampled_from(within)) if within else (0, len(text))
    a = 0 if kind == "at-start" else draw(st.integers(lo, hi - 1))
    b = len(text) if kind == "at-end" else draw(st.integers(a + 1, hi))
    return text, a, b


class TestConfig:
    def test_defaults(self):
        cfg = LinkerConfig()
        assert cfg.lambda_weight == 0.5
        assert cfg.nil_threshold == 0.05
        assert cfg.filters == {"type", "pos", "popularity", "class"}

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
        cfg = LinkerConfig(
            lambda_weight=0.7, nil_threshold=0.2, filters=frozenset({"type", "popularity"})
        )
        assert LinkerConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"lamda": 0.5}', ": unknown keys in config: ['lamda']"),
            (b"[0.5]", ": config must be a JSON object"),
            (b'{"lambda": 1.5}', ": lambda must lie in [0, 1], got 1.5"),
            (b'{"lambda": }', ":1: invalid JSON: Expecting value"),
        ],
        ids=["unknown-key", "not-an-object", "out-of-range", "undecodable"],
    )
    def test_file_errors_name_the_file_once(self, tmp_path, content, reason):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(InputError, match=rf"^{re.escape(f'{path}{reason}')}$") as info:
            LinkerConfig.from_file(path)
        assert str(info.value).count(str(path)) == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"^unknown keys in config: \['lamda'\]$"):
            LinkerConfig.from_dict({"lamda": 0.5})
        with pytest.raises(ConfigError, match=r"^unknown keys in filters: \['typo'\]$"):
            LinkerConfig.from_dict({"filters": {"typo": True}})
        # The normalizer is fixed by the index.
        with pytest.raises(ConfigError, match=r"^unknown keys in config: \['normalizer'\]$"):
            LinkerConfig.from_dict({"normalizer": "persian"})
        # The context is always the whole document and the IDF always smoothed.
        with pytest.raises(ConfigError, match=r"^unknown keys in config: \['context_window'\]$"):
            LinkerConfig.from_dict({"context_window": None})
        with pytest.raises(ConfigError, match=r"^unknown keys in config: \['idf_smoothing'\]$"):
            LinkerConfig.from_dict({"idf_smoothing": True})

    def test_unknown_filter_name_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown filter keys: \['typo'\]"):
            LinkerConfig(filters=frozenset({"typo"}))

    def test_bundled_config_is_the_defaults(self, data_dir):
        bundled = json.loads((data_dir / "default_config.json").read_text(encoding="utf-8"))
        assert bundled == LinkerConfig().to_dict()

    def test_readme_config_is_the_defaults(self, data_dir):
        readme = (data_dir.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Config file\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == LinkerConfig().to_dict()


class TestGenerateCandidates:
    @staticmethod
    def candidates(kb, text, surface) -> set[str]:
        """The mention's kept set with every filter off."""
        return filtered(kb, empty_lists(), ALL_OFF, doc_of(text, mention_at(text, surface)))[0]

    def test_unknown_surface_empty(self, kb):
        assert self.candidates(kb, "دنا زیبا است", "دنا") == set()

    def test_ambiguous_surface_matches_brute_force(self, kb):
        got = self.candidates(kb, "شهریار", "شهریار")
        assert got == brute_force_candidates(kb, "شهریار")
        assert got == {"E10", "E32", "E33"}

    def test_canonical_label_is_singleton(self, kb):
        assert self.candidates(kb, "اسنپ", "اسنپ") == {"E23"}


class TestFilters:
    def test_all_filters_disabled_is_identity_with_unit_penalties(self, kb, lists, mini_corpus):
        doc = mini_corpus[1]  # d02
        candidates = brute_force_candidates(kb, doc.mentions[0].surface)
        kept, penalties = filtered(kb, lists, ALL_OFF, doc)
        assert kept == candidates
        assert penalties == {c: 1.0 for c in candidates}

    def test_type_filter_drops_class_outside_mapping(self, kb, lists):
        doc = doc_of("چهل سالگی نزدیک است", mention_at("چهل سالگی نزدیک است", "چهل سالگی", ner_type=NerType.LOC))
        assert brute_force_candidates(kb, "چهل سالگی") == {"E16"}
        kept, _ = filtered(kb, lists, LinkerConfig(), doc)
        assert kept == set()  # a film is not a location

    def test_type_filter_skipped_without_annotation(self, kb, lists):
        doc = doc_of("چهل سالگی نزدیک است", mention_at("چهل سالگی نزدیک است", "چهل سالگی"))
        kept, _ = filtered(kb, lists, LinkerConfig(), doc)
        assert kept == {"E16"}

    def test_type_filter_skipped_for_unmapped_type(self, kb, lists):
        # the reference lists carry no OTHER entry, so no evidence, no drop
        text = "تار ساز خوبی است"
        doc = doc_of(text, mention_at(text, "تار", ner_type=NerType.OTHER))
        kept, _ = filtered(kb, lists, LinkerConfig(), doc)
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
        assert brute_force_candidates(kb, "نام") == {"P1", "P2", "P3"}
        kept, _ = filtered(kb, lists, LinkerConfig(), doc)
        assert kept == {"P2", "P3"}

    def test_pos_filter_skipped_when_mention_pos_unknown(self):
        kb = build_kb([entity("P1", "نام", pos=PosCategory.PROPER_NOUN)])
        text = "نام چیزها"
        doc = doc_of(text, mention_at(text, "نام", pos_tag=PosCategory.UNKNOWN))
        kept, _ = filtered(kb, empty_lists(), LinkerConfig(), doc)
        assert kept == {"P1"}

    def test_popularity_filter_blocklist_and_rare_flag(self, kb, lists):
        text = "مسافران به پاریس رفتند"
        doc = doc_of(text, mention_at(text, "پاریس"))
        assert brute_force_candidates(kb, "پاریس") == {"E30", "E31"}
        kept, _ = filtered(kb, lists, LinkerConfig(), doc)
        assert kept == {"E30"}  # E31 is blocklisted

        text = "شهریار جای خوبی است"
        doc = doc_of(text, mention_at(text, "شهریار"))
        assert brute_force_candidates(kb, "شهریار") == {"E10", "E32", "E33"}
        kept, _ = filtered(kb, lists, LinkerConfig(), doc)
        assert kept == {"E10", "E33"}  # E32 carries the rare flag

    def test_class_filter_penalty_without_trigger_full_rate_with(self, kb, lists):
        bare = "چهل سالگی دوران خوبی است"
        doc = doc_of(bare, mention_at(bare, "چهل سالگی"))
        kept, penalties = filtered(kb, lists, LinkerConfig(), doc)
        assert kept == {"E16"}
        assert penalties["E16"] == 0.5

        cinema = "چهل سالگی در سینما دیدنی است"
        doc = doc_of(cinema, mention_at(cinema, "چهل سالگی"))
        _, penalties = filtered(kb, lists, LinkerConfig(), doc)
        assert penalties["E16"] == 1.0

    def test_agreement_with_oracle_on_random_cases(self, kb, lists, mini_corpus):
        rng = random.Random(99)
        surfaces = sorted(kb.alias_index)
        for _ in range(300):
            surface = rng.choice(surfaces)
            text = f"{surface} در متن"
            doc = doc_of(text, mention_at(text, surface,
                                          ner_type=rng.choice([None, *NerType]),
                                          pos_tag=rng.choice([None, *PosCategory])))
            cfg = LinkerConfig(filters=frozenset(f for f in FILTERS if rng.random() < 0.5))
            kept, penalties = filtered(kb, lists, cfg, doc)
            oracle_kept_sets, oracle_penalties = oracle_kept(kb, lists, cfg, doc)
            assert kept == oracle_kept_sets[0]
            assert penalties == oracle_penalties[0]


# Synthetic three-article collection for exact cosine checks:
# df(سیب)=1, df(انار)=2, df(موز)=2, N=3. Every record answers to هدف and
# to سیب, so a mention of either has all three as candidates.
_COSINE_KB = build_kb(
    [
        entity("C1", "هدف", variants=("سیب",), article="سیب انار سیب"),
        entity("C2", "هدف", variants=("سیب",), article="انار موز"),
        entity("C3", "هدف", variants=("سیب",), article="موز"),
    ]
)


def cosine_scores(text: str, surface: str = "هدف") -> dict[str, float]:
    return context_scores(_COSINE_KB, empty_lists(), doc_of(text, mention_at(text, surface)))


class TestContextScore:
    def test_empty_article_scores_zero(self, kb, lists):
        text = "مسافران به پاریس رفتند"
        assert kb.entities["E31"].article_text == ""
        assert context_scores(kb, lists, doc_of(text, mention_at(text, "پاریس")))["E31"] == 0.0

    def test_context_identical_to_article_scores_one(self):
        assert cosine_scores("هدف انار موز")["C2"] == pytest.approx(1.0, abs=1e-9)

    def test_two_term_overlap_matches_hand_computed_weight_table(self):
        # context (انار, موز) against article (سیب x2, انار); value frozen
        # from the explicit TF-IDF table.
        score = cosine_scores("هدف انار موز")["C1"]
        assert score == pytest.approx(0.25132870827089976, abs=1e-9)
        oracle = dense_cosine(["انار", "موز"], ["سیب", "انار", "سیب"], _COSINE_KB.doc_freq, 3)
        assert score == pytest.approx(oracle, abs=1e-9)

    def test_empty_context_scores_zero(self):
        assert cosine_scores("هدف")["C1"] == 0.0

    def test_mention_span_excluded_from_context(self):
        # the mention's own tokens must not count as context evidence
        score = cosine_scores("سیب انار", "سیب")["C1"]
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
        doc = doc_of(text, mention_at(text, "هدف"))
        assert oracle_context_terms(doc, doc.mentions[0], _COSINE_KB) == context
        score = cosine_scores(text)["C1"]
        oracle = dense_cosine(
            context,
            oracle_article_terms("C1", _COSINE_KB),
            _COSINE_KB.doc_freq,
            _COSINE_KB.doc_count,
        )
        assert score == pytest.approx(oracle, abs=1e-9)

    @given(text_and_span(), tokenizer_text, st.data())
    @settings(max_examples=300, deadline=None)
    def test_context_excludes_exactly_the_tokens_the_span_touches(self, drawn, other, data):
        text, a, b = drawn
        words = sorted({t for t, _, _ in tokenize(text)})
        stopwords = frozenset(data.draw(st.lists(st.sampled_from(words)))) if words else frozenset()
        lists = empty_lists()
        records = [entity("A", "هدف", article=text), entity("B", "هدف", article=other)]
        kb = build_kb(records, stopwords)
        # The span is drawn over the text; the surface only makes A and B
        # its candidates.
        doc = doc_of(text, Mention(a, b, "هدف"))
        mention = doc.mentions[0]
        context = oracle_context_terms(doc, mention, kb)
        scores = context_scores(kb, lists, doc)
        assert set(scores) == {"A", "B"}
        for entity_id, score in scores.items():
            oracle = dense_cosine(
                context, oracle_article_terms(entity_id, kb), kb.doc_freq, kb.doc_count
            )
            assert abs(score - oracle) <= 1e-9

    def test_bag_of_words_permutation_invariance(self):
        words = ["انار", "موز", "سیب", "انار", "موز"]
        rng = random.Random(7)
        baseline = None
        for _ in range(10):
            rng.shuffle(words)
            score = cosine_scores("هدف " + " ".join(words))["C1"]
            if baseline is None:
                baseline = score
            assert score == pytest.approx(baseline, abs=1e-12)


# Few words, so that terms repeat before, inside and after a span.
_VOCAB = ("سیب", "انار", "موز", "هلو", "به", "توت")


@st.composite
def context_documents(draw):
    """A document of words from `_VOCAB` with one to four mentions, whose
    surfaces repeat, over spans that cover whole words from any word or
    from a word's first occurrence, cut into a word or cover only the
    separator between two words; stopwords from `_VOCAB`; and a KB whose
    entities answer to those surfaces."""
    words = draw(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=16))
    separators = draw(st.lists(st.sampled_from([" ", "، ", "  "]),
                               min_size=len(words) - 1, max_size=len(words) - 1))
    text, starts = words[0], [0]
    for separator, word in zip(separators, words[1:]):
        text += separator
        starts.append(len(text))
        text += word
    ends = [start + len(word) for start, word in zip(starts, words)]
    mentions = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["first", "words", "cut", "separator"]))
        if kind == "first":  # a word's first occurrence
            i = draw(st.sampled_from(sorted({words.index(word) for word in words})))
        else:
            i = draw(st.integers(0, len(words) - 1))
        if kind == "separator" and i + 1 < len(words):
            a, b = ends[i], starts[i + 1]
        elif kind == "cut":
            a = draw(st.integers(starts[i] + 1, ends[i] - 1))
            b = draw(st.integers(a + 1, len(text)))
        else:
            a, b = starts[i], ends[draw(st.integers(i, len(words) - 1))]
        mentions.append(Mention(a, b, draw(st.sampled_from(["هدف", "نشان"]))))
    stopwords = frozenset(draw(st.lists(st.sampled_from(_VOCAB), max_size=2)))
    articles = st.lists(st.sampled_from(_VOCAB), max_size=8).map(" ".join)
    records = [
        entity(f"E{j}", "هدف", variants=("نشان",) if j % 2 else (), article=draw(articles))
        for j in range(draw(st.integers(1, 4)))
    ]
    return build_kb(records, stopwords), empty_lists(), doc_of(text, *mentions)


# The span cuts the first سیب, which recurs after it, so سیب moves from
# second to last in the context's term order, and the norm sums the
# squares of its weights in another order.
_REORDERED = "انار سیب موز سیب سیب سیب سیب سیب انار"


@given(context_documents())
@example((build_kb([entity("E0", "هدف", article="سیب"), entity("E1", "هدف", article="سیب")]),
          empty_lists(),
          doc_of(_REORDERED, Mention(6, 7, "هدف"))))
@settings(max_examples=300, deadline=None)
def test_context_score_is_the_cosine_of_the_context_terms_bit_for_bit(case):
    """Equal to the last bit to the cosine of a vector built afresh from the
    context terms in document order, so the vector that `link_document`
    derives from the whole document keeps their counts and their order."""
    kb, lists, doc = case

    def vector(words):
        weights = linker._tfidf(Counter(words), kb)
        return weights, linker._norm(weights)

    for mention, kept in zip(doc.mentions, kept_candidates(kb, lists, ALL_OFF, doc)):
        context = vector(oracle_context_terms(doc, mention, kb))
        for entity_id, scored in kept.items():
            article = vector(oracle_article_terms(entity_id, kb))
            assert scored.context_score == linker._cosine(*context, *article)


@st.composite
def article_kbs(draw):
    """Records, all candidates of "هدف", whose raw articles come from the
    tokenizer's alphabet or repeat words of `_VOCAB`, and a KB of them
    whose stopwords are drawn from the articles' own terms."""
    repeats = st.lists(st.sampled_from(_VOCAB), max_size=12).map(" ".join)
    articles = draw(st.lists(tokenizer_text | repeats, min_size=1, max_size=4))
    records = [entity(f"E{j}", "هدف", article=a) for j, a in enumerate(articles)]
    vocabulary = sorted({t for a in articles for t, _, _ in oracle_tokenize(a, oracle_normalize)})
    stopwords = draw(st.lists(st.sampled_from(vocabulary), max_size=2)) if vocabulary else []
    return records, build_kb(records, frozenset(stopwords))


@given(article_kbs())
@settings(max_examples=200, deadline=None)
def test_article_vector_is_the_tfidf_of_the_oracle_terms(case):
    """The vector that `link_document` builds from a stored bag on first
    use is `_tfidf` of a fresh count of the oracle's terms of the raw
    article, item for item and in order, and so is its norm."""
    records, kb = case
    link_document(kb, empty_lists(), ALL_OFF, doc_of("هدف", mention_at("هدف", "هدف")))
    for r in records:
        terms = [t for t, _, _ in oracle_tokenize(r.article, oracle_normalize)]
        expected = linker._tfidf(Counter(terms), kb)
        vector, norm = kb.article_vectors[r.id]
        assert list(vector.items()) == list(expected.items())
        assert norm == linker._norm(expected)


@st.composite
def context_spans(draw):
    """Words from `_VOCAB`, a span `a:b` of them, and a KB with stopwords
    from `_VOCAB` whose articles give the terms their frequencies."""
    words = draw(st.lists(st.sampled_from(_VOCAB), max_size=16))
    a = draw(st.integers(0, len(words)))
    b = draw(st.integers(a, len(words)))
    stopwords = frozenset(draw(st.lists(st.sampled_from(_VOCAB), max_size=2)))
    articles = draw(st.lists(st.lists(st.sampled_from(_VOCAB), max_size=6).map(" ".join),
                             min_size=1, max_size=4))
    kb = build_kb([entity(f"E{j}", article=t) for j, t in enumerate(articles)], stopwords)
    return words, a, b, kb


@given(context_spans())
@example(("انار سیب موز سیب".split(), 1, 2, build_kb([entity("E0", article="سیب")])))
@settings(max_examples=300, deadline=None)
def test_context_vector_is_a_fresh_count_of_the_context(case):
    """The patched, and where a term moves re-keyed, document vector is
    the vector of the context words counted afresh, item for item and in
    order."""
    words, a, b, kb = case
    counts = Counter(words)
    got = linker._context(words, a, b, counts, linker._tfidf(counts, kb), kb)
    expected = linker._tfidf(Counter(words[:a] + words[b:]), kb)
    assert list(got.items()) == list(expected.items())


class TestGraphScore:
    def test_single_mention_document_scores_zero(self, kb):
        doc = doc_of("تهران", mention_at("تهران", "تهران"))
        assert graph_scores(kb, doc) == [{"E01": 0.0, "E08": 0.0}]

    def test_forced_example_linked_candidate_one_other_zero(self):
        kb, doc = graph_document({"A": ("C",), "B": (), "C": ()}, {0: {"A", "B"}, 1: {"C"}})
        assert graph_scores(kb, doc)[0] == {"A": 1.0, "B": 0.0}

    def test_reverse_direction_counts(self):
        kb, doc = graph_document({"A": (), "C": ("A",)}, {0: {"A"}, 1: {"C"}})
        assert graph_scores(kb, doc)[0] == {"A": 1.0}

    def test_duplicate_entity_across_mentions_counted_once(self):
        # C appears as a candidate of two other mentions; still one link
        doc_candidates = {0: {"A"}, 1: {"C"}, 2: {"C"}}
        kb, doc = graph_document({"A": ("C",), "C": ()}, doc_candidates)
        raw = exhaustive_raw_links(kb, 0, doc_candidates)
        assert raw == {"A": 1}
        assert graph_scores(kb, doc)[0] == {"A": 1.0}

    def test_matches_exhaustive_enumeration_on_mini_corpus(self, kb, lists, mini_corpus):
        cfg = LinkerConfig()
        for doc in mini_corpus:
            doc_candidates, _ = oracle_kept(kb, lists, cfg, doc)
            for i, kept in enumerate(kept_candidates(kb, lists, cfg, doc)):
                assert set(kept) == doc_candidates[i]
                raw = exhaustive_raw_links(kb, i, doc_candidates)
                max_raw = max(raw.values()) if raw else 0
                for candidate, scored in kept.items():
                    expected = raw[candidate] / max_raw if max_raw else 0.0
                    assert scored.graph_score == pytest.approx(expected, abs=1e-12)


class TestRankAndSelect:
    def test_empty_candidates_nil_score_zero_empty_ambiguity(self, kb, lists, mini_corpus):
        d03 = next(d for d in mini_corpus if d.id == "d03")
        assert oracle_kept(kb, lists, LinkerConfig(), d03)[0][2] == set()
        result = link_document(kb, lists, LinkerConfig(), d03)[2]
        assert result.decision is NIL
        assert result.score == 0.0
        assert result.ambiguity == ()

    def test_zero_threshold_never_nil_for_nonempty_kept(self, kb, lists, mini_corpus):
        cfg = LinkerConfig(nil_threshold=0.0)
        for doc in mini_corpus:
            doc_candidates, _ = oracle_kept(kb, lists, cfg, doc)
            for i, result in enumerate(link_document(kb, lists, cfg, doc)):
                if doc_candidates[i]:
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
        cfg = LinkerConfig(nil_threshold=1.1, filters=frozenset(FILTERS) - {"popularity"})
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
        # The i-th result holds the oracle's decision and score for the
        # i-th mention, so a reordered list fails.
        cfg = LinkerConfig()
        for doc in mini_corpus:
            results = link_document(kb, lists, cfg, doc)
            expected = oracle_link_document(kb, lists, cfg, doc)
            assert len(results) == len(expected) == len(doc.mentions)
            for got, want in zip(results, expected):
                assert got.decision == want.decision
                assert abs(got.score - want.score) <= 1e-9

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
        cfg = LinkerConfig(
            lambda_weight=0.0, nil_threshold=0.0, filters=frozenset(FILTERS) - {"class"}
        )
        for doc in mini_corpus:
            doc_candidates, _ = oracle_kept(kb, lists, cfg, doc)
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
        cfg = LinkerConfig(filters=frozenset(FILTERS) - {"popularity"})
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
    cfg = LinkerConfig(filters=frozenset(f for f in FILTERS if draw(_flags)))
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
    candidates = brute_force_candidates(kb, doc.mentions[0].surface)
    kept, penalties = filtered(kb, lists, cfg, doc)
    assert kept <= candidates
    oracle_kept_sets, oracle_penalties = oracle_kept(kb, lists, cfg, doc)
    assert (kept, penalties) == (oracle_kept_sets[0], oracle_penalties[0])
    assert all(0.0 < p <= 1.0 for p in penalties.values())

    relaxed, unit = filtered(kb, lists, ALL_OFF, doc)
    assert relaxed == candidates
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
        assert LinkerConfig.from_dict({"filters": {"pos": False}}) == LinkerConfig(
            filters=frozenset(FILTERS) - {"pos"}
        )


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
    """Article vectors (keyed by entity id) and IDF weights are memoized
    on the KB, and articles are stored as bags of normal-form terms; a warm
    KB must link exactly like a freshly loaded one."""

    @staticmethod
    def _load(data_dir):
        return load_kb(data_dir / "mini_kb.jsonl", data_dir / "reference_lists.json")[:2]

    @staticmethod
    def _link_all(kb, lists, cfg, corpus):
        return [link_document(kb, lists, cfg, doc) for doc in corpus]

    def test_two_stopword_sets_give_two_kbs_that_match_the_oracle(self, data_dir, mini_corpus):
        # The stopwords are fixed when a KB is built, so other stopwords
        # take another KB, read from the same dump.
        dump = data_dir / "mini_kb.jsonl"
        lists, bundled = load_reference_lists(data_dir / "reference_lists.json")
        kb, _ = read_dump(read_json_lines(dump), dump, bundled)
        frequent = sorted(kb.doc_freq, key=lambda t: (-kb.doc_freq[t], t))[:5]
        kbs = [kb, read_dump(read_json_lines(dump), dump, bundled | frozenset(frequent))[0]]
        cfg = LinkerConfig()
        first = [self._link_all(kb, lists, cfg, mini_corpus) for kb in kbs]
        assert first[0] != first[1]  # the stopwords change scores
        second = [self._link_all(kb, lists, cfg, mini_corpus) for kb in kbs]
        assert second == first
        for kb, results in zip(kbs, first):
            for doc, got in zip(mini_corpus, results):
                expected = oracle_link_document(kb, lists, cfg, doc)
                assert [r.decision for r in got] == [r.decision for r in expected]
                for g, e in zip(got, expected):
                    assert g.score == pytest.approx(e.score, abs=1e-9)
                    assert [c.entity_id for c in g.ambiguity] == [c.entity_id for c in e.ambiguity]

    def test_memo_is_not_compared_copied_or_saved(self, tmp_path, data_dir, mini_corpus):
        warm, lists = self._load(data_dir)
        fresh, _ = self._load(data_dir)
        self._link_all(warm, lists, LinkerConfig(), mini_corpus)
        assert warm.article_vectors and warm.idf
        assert warm == fresh
        copy = replace(warm)
        assert copy.article_vectors == {} and copy.idf == {}
        save_index(warm, lists, tmp_path / "warm.idx")
        save_index(fresh, lists, tmp_path / "fresh.idx")
        assert (tmp_path / "warm.idx").read_bytes() == (tmp_path / "fresh.idx").read_bytes()

    def test_each_article_vectorized_at_most_once(self, data_dir, mini_corpus):
        kb, lists = self._load(data_dir)
        stores: Counter[str] = Counter()

        class CountingVectors(dict):
            def __setitem__(self, entity_id, vector):
                stores[entity_id] += 1
                super().__setitem__(entity_id, vector)

        kb.article_vectors = CountingVectors()
        for _ in range(2):
            self._link_all(kb, lists, LinkerConfig(), mini_corpus)
        assert stores
        assert max(stores.values()) == 1

    @staticmethod
    def _count_normalize(monkeypatch) -> Counter[str]:
        """Count each string that reaches `persian_normalize` from here on."""
        calls: Counter[str] = Counter()
        normalize = textnorm.persian_normalize

        def counting_normalize(s):
            calls[s] += 1
            return normalize(s)

        monkeypatch.setattr(textnorm, "persian_normalize", counting_normalize)
        monkeypatch.setattr(kb_module, "persian_normalize", counting_normalize)
        return calls

    def test_linking_normalizes_no_article_run(self, data_dir, mini_corpus, monkeypatch):
        kb, lists = self._load(data_dir)
        calls = self._count_normalize(monkeypatch)

        def no_memo(memo, run):
            raise AssertionError(f"linking normalized {run!r} through a memo")

        monkeypatch.setattr(NormalForms, "__missing__", no_memo)
        for _ in range(2):
            self._link_all(kb, lists, LinkerConfig(), mini_corpus)

        # Only each document's runs, when it is tokenized, and each
        # mention's surface that is not an alias key as it stands, when
        # its candidates are looked up.
        expected: Counter[str] = Counter()
        for doc in mini_corpus:
            expected.update(run for run, _, _ in oracle_tokenize(doc.text, lambda run: run))
            expected.update(m.surface for m in doc.mentions if m.surface not in kb.alias_index)
        assert kb.article_vectors
        assert calls == Counter({s: 2 * n for s, n in expected.items()})

    def test_post_with_nothing_to_link_is_never_tokenized(self, monkeypatch):
        # One surface outside the KB, and one whose only candidate the type
        # filter removes: no mention keeps a candidate.
        kb = build_kb([entity("E1", "تهران", kb_class="city", article="شهر بزرگ")])
        lists = empty_lists(type_mapping={NerType.PER: frozenset({"person"})})
        text = "سفر ناشناس به تهران"
        doc = doc_of(text, mention_at(text, "ناشناس"),
                     mention_at(text, "تهران", ner_type=NerType.PER))
        calls = self._count_normalize(monkeypatch)
        for _ in range(2):
            got = link_document(kb, lists, LinkerConfig(), doc)
        # Only each mention's surface that is not an alias key as it
        # stands, when its candidates are looked up: here "ناشناس".
        assert calls == Counter({mention.surface: 2 for mention in doc.mentions
                                 if mention.surface not in kb.alias_index})
        assert got == oracle_link_document(kb, lists, LinkerConfig(), doc)
        assert [r.decision for r in got] == [NIL, NIL]

    def test_stored_article_words_are_the_terms(self):
        # As they stand: a word that is not in normal form is no `doc_freq`
        # key, so linking fails instead of weighing it with df 0.
        kb = build_kb([entity("E1", "هدف", article="سیب")])
        kb.entities["E1"] = replace(kb.entities["E1"], bag=bag_json("كتاب", (1,)))  # Arabic kaf
        message = "entity 'E1': stored article term 'كتاب' has no document frequency"
        with pytest.raises(PeyvandError, match=f"^{re.escape(message)}$"):
            link_document(kb, empty_lists(), LinkerConfig(), doc_of("هدف", mention_at("هدف", "هدف")))
        assert kb.article_vectors == {}

    # Decoding checks a count per space-separated term and per term of
    # `str.split`; building the vector finds a repeated term.
    @pytest.mark.parametrize(
        "text, counts, reason",
        [
            ("سیب سیب", (1, 1), "stored article repeats the term 'سیب'"),
            ("سیب  انار", (1, 1, 1), "article holds 2 term(s) but 3 count(s)"),
            ("سیب انار", (2,), "article holds 2 term(s) but 1 count(s)"),
            ("سیب", (1, 1), "article holds 1 term(s) but 2 count(s)"),
        ],
        ids=["repeated-term", "double-space", "fewer-counts", "more-counts"],
    )
    def test_bag_whose_terms_do_not_match_its_counts_fails(self, text, counts, reason):
        kb = build_kb([entity("E1", "هدف", article="سیب انار")])
        kb.entities["E1"] = replace(kb.entities["E1"], bag=bag_json(text, counts))
        message = f"entity 'E1': {reason}"
        with pytest.raises(PeyvandError, match=f"^{re.escape(message)}$"):
            link_document(kb, empty_lists(), LinkerConfig(), doc_of("هدف", mention_at("هدف", "هدف")))
        assert kb.article_vectors == {}


    # Terms with a document frequency, and one without (an Arabic kaf);
    # counts small, too large for a weight's square, or for any float.
    @given(st.lists(st.sampled_from(["سیب", "انار", "كتاب"]), max_size=4),
           st.lists(st.integers(min_value=1) | st.integers(10**150, 10**400), min_size=4,
                    max_size=4))
    @example(["سیب", "انار"], [10**300, 1, 1, 1])
    @example(["سیب", "انار"], [10**400, 1, 1, 1])
    @settings(max_examples=200, deadline=None)
    def test_any_decodable_bag_scores_with_a_finite_norm_or_fails(self, terms, counts):
        kb = build_kb([entity("E1", "هدف", article="سیب انار")])
        bag = bag_json(" ".join(terms), counts[: len(terms)])
        kb.entities["E1"] = replace(kb.entities["E1"], bag=bag)
        text = "هدف سیب انار"
        cfg = LinkerConfig(nil_threshold=2.0)  # every candidate on the ambiguity list
        try:
            [result] = link_document(kb, empty_lists(), cfg, doc_of(text, mention_at(text, "هدف")))
        except PeyvandError:
            assert kb.article_vectors == {}
            return
        assert math.isfinite(kb.article_vectors["E1"][1])
        [candidate] = result.ambiguity
        assert 0.0 <= candidate.context_score <= 1.0 + 1e-12
        assert math.isfinite(candidate.combined)


def test_scores_do_not_depend_on_how_sum_rounds(tmp_path, data_dir, mini_corpus, monkeypatch):
    """Norms and dot products add up left to right, the same float
    operations on every Python, though from 3.12 `sum()` compensates its
    rounding: with `sum` shadowed by the correctly rounded `math.fsum`, the
    predictions still equal the golden file byte for byte."""
    monkeypatch.setattr(linker, "sum", math.fsum, raising=False)
    kb, lists, _ = load_kb(data_dir / "mini_kb.jsonl", data_dir / "reference_lists.json")
    results = [link_document(kb, lists, LinkerConfig(), doc) for doc in mini_corpus]
    write_predictions(mini_corpus, results, tmp_path / "predictions.jsonl")
    golden = (data_dir / "golden_predictions.jsonl").read_bytes()
    assert (tmp_path / "predictions.jsonl").read_bytes() == golden


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
    doc_freq = {t: df for t, (df, _) in zip(names, pairs) if df}
    kb = KnowledgeBase({}, {}, doc_count, doc_freq, frozenset())
    vector = linker._tfidf({t: n for t, (_, n) in zip(names, pairs)}, kb)
    for term, (df, count) in zip(names, pairs):
        assert vector[term] == count * (math.log((1 + doc_count) / (1 + df)) + 1.0)
    assert len(kb.idf) == len({df for df, _ in pairs})


# Graph counts over randomized synthetic link graphs.
_GRAPH_IDS = [f"G{i}" for i in range(8)]


@st.composite
def graph_scenarios(draw):
    """The links of each entity to random subsets of the others (one-way and
    mutual links, self-links that the KB drops) and the candidate sets of a
    document's mentions, possibly overlapping, possibly empty, for
    `graph_document` to build."""
    ids = _GRAPH_IDS[: draw(st.integers(min_value=1, max_value=len(_GRAPH_IDS)))]
    links = {i: tuple(sorted(draw(st.sets(st.sampled_from(ids))))) for i in ids}
    mentions = draw(st.lists(st.sets(st.sampled_from(ids)), min_size=1, max_size=8))
    return links, dict(enumerate(mentions))


# G0 -> G1 one way, G1 <-> G2 mutual, G3 -> G0; G1 is a candidate of two
# mentions and mention 3 has no candidates.
_GRAPH_EXAMPLE = (
    {"G0": ("G1",), "G1": ("G2",), "G2": ("G1",), "G3": ("G0",)},
    {0: {"G0", "G3"}, 1: {"G1"}, 2: {"G1", "G2"}, 3: set()},
)


@given(graph_scenarios())
@example(_GRAPH_EXAMPLE)
# G0 <-> G1 inside one mention, kept by no other: both count 0.
@example(({"G0": ("G1",), "G1": ("G0",), "G2": ()}, {0: {"G0", "G1"}, 1: {"G2"}}))
# The same link with G1 kept by a second mention too: G0 counts it.
@example(({"G0": ("G1",), "G1": ("G0",)}, {0: {"G0", "G1"}, 1: {"G1"}}))
# G0 kept by three mentions, linked to and from candidates of each.
@example((
    {"G0": ("G2",), "G1": ("G0",), "G2": (), "G3": ("G0", "G1")},
    {0: {"G0"}, 1: {"G0", "G1"}, 2: {"G0", "G2", "G3"}},
))
@settings(max_examples=300, deadline=None)
def test_graph_score_matches_exhaustive_enumeration(scenario):
    kb, doc = graph_document(*scenario)
    doc_candidates = scenario[1]
    for i, scores in enumerate(graph_scores(kb, doc)):
        assert set(scores) == doc_candidates[i]
        raw = exhaustive_raw_links(kb, i, doc_candidates)
        max_raw = max(raw.values(), default=0)
        for candidate, score in scores.items():
            expected = raw[candidate] / max_raw if max_raw else 0.0
            assert score == expected


@st.composite
def linked_documents(draw):
    """A KB of up to eight linked entities with articles from `_VOCAB`, each
    answering to some of the aliases m0..m3 (a self-link, which the KB
    drops, included), stopwords from `_VOCAB`, and a document that mentions
    those aliases one to eight times, repeats included, between its words."""
    ids = _GRAPH_IDS[: draw(st.integers(min_value=1, max_value=len(_GRAPH_IDS)))]
    aliases = st.sampled_from(["m0", "m1", "m2", "m3"])
    vocab = st.lists(st.sampled_from(_VOCAB), max_size=4)
    stopwords = frozenset(draw(st.lists(st.sampled_from(_VOCAB), max_size=1)))
    records = [
        entity(e, variants=tuple(sorted(draw(st.sets(aliases)))), article=" ".join(draw(vocab)),
               links=tuple(sorted(draw(st.sets(st.sampled_from(ids))))))
        for e in ids
    ]
    text, mentions = "", []
    for surface in draw(st.lists(aliases, min_size=1, max_size=8)):
        text += "".join(word + " " for word in draw(vocab))
        mentions.append(Mention(len(text), len(text) + len(surface), surface))
        text += surface + " "
    text += " ".join(draw(vocab))
    return build_kb(records, stopwords), empty_lists(), doc_of(text, *mentions)


@given(linked_documents(), st.sampled_from([LinkerConfig(), replace(ALL_OFF, nil_threshold=2.0)]))
@settings(max_examples=300, deadline=None)
def test_reversed_mentions_give_reversed_results(case, cfg):
    """The document's candidate graph and context vector do not depend on
    the order of its mentions: reversed, the results come out reversed,
    every score equal to the last bit."""
    kb, lists, doc = case
    forward = link_document(kb, lists, cfg, doc)
    backward = link_document(kb, lists, cfg, doc_of(doc.text, *reversed(doc.mentions)))
    assert backward == forward[::-1]
