from __future__ import annotations

import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peyvand.textnorm import (
    ARABIC_DIACRITICS,
    ARABIC_KAF,
    ARABIC_YEH,
    PERSIAN_KAF,
    PERSIAN_YEH,
    TATWEEL,
    ZWNJ,
    _PLAIN,
    _SeparatorTable,
    normalize,
    persian_normalize,
    terms,
    tokenize,
)

from oracles import oracle_is_separator, oracle_normalize, oracle_tokenize
from synth import tokenizer_text

# Mixed alphabet that stresses the Persian rules as well as generic unicode.
_persianish = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x0600, max_codepoint=0x06FF),
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.sampled_from([ZWNJ, TATWEEL, " ", "\t", "\n", "ّ", "ً"]),
    )
)


class TestNormalize:
    def test_arabic_yeh_becomes_persian_yeh(self):
        assert normalize("علي") == "علی"
        assert normalize(ARABIC_YEH) == PERSIAN_YEH

    def test_arabic_kaf_becomes_persian_kaf(self):
        assert normalize(ARABIC_KAF) == PERSIAN_KAF
        assert normalize("كتاب") == "کتاب"

    def test_whitespace_collapse_and_casefold(self):
        assert normalize("  Apple   Watch ") == "apple watch"
        assert normalize("A\tB\n\nC") == "a b c"

    def test_tatweel_and_diacritics_removed(self):
        assert normalize("ســـلام") == "سلام"
        for mark in ARABIC_DIACRITICS:
            assert normalize(f"ب{mark}") == "ب"

    def test_zwnj_deleted_joins_compound(self):
        assert normalize("می" + ZWNJ + "رود") == "میرود"

    def test_empty_and_whitespace_only(self):
        assert normalize("") == ""
        assert normalize(" \t \n") == ""

    @given(st.text())
    def test_idempotent(self, s):
        once = normalize(s)
        assert normalize(once) == once

    @given(_persianish)
    def test_idempotent_persianish(self, s):
        once = normalize(s)
        assert normalize(once) == once

    def test_idempotent_seeded_sample(self):
        # Deterministic complement to the hypothesis run: 1000 random
        # strings over the full BMP.
        rng = random.Random(20250810)
        for _ in range(1000):
            s = "".join(chr(rng.randrange(0x20, 0xFFFF)) for _ in range(rng.randrange(0, 30)))
            once = normalize(s)
            assert normalize(once) == once


class TestPlainFastPath:
    """Plain strings skip the six steps; each test below holds the package
    normalizer to `oracle_normalize`, which always runs them."""

    def test_plain_class_is_what_its_definition_says(self):
        scanned = map(chr, (*range(0x30, 0x3A), *range(0x61, 0x7B), *range(0x0600, 0x0700)))
        expected = [
            ch
            for ch in scanned
            if ch.isalnum()
            and unicodedata.combining(ch) == 0
            and not unicodedata.decomposition(ch)
            and oracle_normalize(ch) == ch
        ]
        assert list(_PLAIN) == expected

    def test_plain_class_holds_no_character_the_normalizer_changes(self):
        for ch in _PLAIN:
            assert ch in "abcdefghijklmnopqrstuvwxyz0123456789" or 0x0600 <= ord(ch) <= 0x06FF
            assert not ch.isupper()
            assert ch not in (ARABIC_KAF, ARABIC_YEH, TATWEEL, ZWNJ, *ARABIC_DIACRITICS)

    def test_every_plain_character_and_pair_matches_oracle(self):
        for a in _PLAIN:
            assert persian_normalize(a) == oracle_normalize(a) == a
            for b in _PLAIN:
                for s in (a + b, f"{a} {b}"):
                    assert persian_normalize(s) == oracle_normalize(s) == s, s
                # The near misses, which must take the full path.
                for s in (f"{a}  {b}", f" {a}{b}", f"{a}{b} "):
                    assert persian_normalize(s) == oracle_normalize(s), s

    def test_plain_text_comes_back_as_the_same_object(self):
        # The fast path returns its argument without building a new string.
        for s in ("سلام", "کتاب و دفتر", "abc 123", "۱۴۰۲"):
            assert persian_normalize(s) is s

    def test_no_letter_or_digit_is_a_separator(self):
        # Why `terms` may skip the separator table for an `isalnum()` word.
        for cp in range(0x110000):
            ch = chr(cp)
            if ch.isalnum():
                assert not oracle_is_separator(ch), hex(cp)

    @pytest.mark.parametrize(
        "text",
        [
            st.text(),
            tokenizer_text,
            _persianish,
            st.text(alphabet=st.sampled_from(_PLAIN) | st.just(" ")),
        ],
        ids=["any", "tokenizer", "persianish", "plain-and-spaces"],
    )
    @given(data=st.data())
    def test_matches_oracle(self, text, data):
        s = data.draw(text)
        assert persian_normalize(s) == oracle_normalize(s)


class TestTokenize:
    def test_punctuation_dropped_offsets_kept(self):
        tokens = tokenize("سلام، دنیا")
        assert [text for text, _, _ in tokens] == ["سلام", "دنیا"]
        assert [(start, end) for _, start, end in tokens] == [(0, 4), (6, 10)]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("،؟!...") == []

    def test_tatweel_only_token_dropped(self):
        assert tokenize("ـــ") == []

    def test_offsets_reference_original_string(self):
        text = "  Apple، Watch  "
        tokens = tokenize(text)
        for token, start, end in tokens:
            assert normalize(text[start:end]) == token

    def test_zwnj_kept_inside_token_span(self):
        text = "می‌رود آمد"
        tokens = tokenize(text)
        assert tokens[0] == ("میرود", 0, 6)
        assert tokens[1][0] == "آمد"

    @given(st.text())
    def test_tokens_ordered_nonoverlapping_in_bounds(self, s):
        tokens = tokenize(s)
        previous_end = 0
        for token, start, end in tokens:
            assert 0 <= start < end <= len(s)
            assert start >= previous_end
            previous_end = end
            assert normalize(s[start:end]) == token

    @given(tokenizer_text)
    @settings(max_examples=300)
    def test_matches_oracle_tokenizer(self, s):
        assert tokenize(s) == oracle_tokenize(s, oracle_normalize)

    @given(st.text())
    @settings(max_examples=300)
    def test_matches_oracle_tokenizer_on_any_text(self, s):
        assert tokenize(s) == oracle_tokenize(s, oracle_normalize)

    @given(st.text())
    @settings(max_examples=300)
    def test_terms_are_the_token_texts_on_any_text(self, s):
        assert terms(s, persian_normalize) == [text for text, _, _ in tokenize(s)]

    def test_str_split_splits_on_exactly_the_whitespace(self):
        # Why the runs lie inside the whitespace-split words: `str.split()`
        # cuts at each `isspace()` codepoint, every one of them a separator,
        # and at no other.
        for cp in range(0x110000):
            ch = chr(cp)
            expected = ["a", "b"] if ch.isspace() else ["a" + ch + "b"]
            assert ("a" + ch + "b").split() == expected, hex(cp)
            assert not ch.isspace() or oracle_is_separator(ch), hex(cp)

    # The raw runs as well: the separator table alone decides where terms split.
    @given(tokenizer_text, st.sampled_from([persian_normalize, lambda run: run]))
    @settings(max_examples=300)
    def test_terms_match_oracle_tokenizer(self, s, norm):
        assert terms(s, norm) == [text for text, _, _ in oracle_tokenize(s, norm)]

    def test_separator_table_matches_oracle_on_every_codepoint(self):
        # A fresh table, so the module's own stays as small as its inputs.
        everything = "".join(map(chr, range(0x110000)))
        translated = everything.translate(_SeparatorTable())
        assert len(translated) == len(everything)
        for ch, out in zip(everything, translated):
            assert out == (" " if oracle_is_separator(ch) else ch), hex(ord(ch))
