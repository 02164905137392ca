"""Deterministic text normalization and tokenization.

The default profile targets Persian social-media text, where Arabic
keyboard layouts, stray diacritics and inconsistent ZWNJ usage produce
many spellings of the same surface form. An identity profile is kept for
tests and for corpora that need no folding.

Text is split by one `str.translate` table that maps every separator
(whitespace or Unicode punctuation) to a space. The table is filled on
first sight of each codepoint, so it holds at most one entry per distinct
codepoint seen: a few hundred on typical text, and at worst, for an input
holding every codepoint, 1,114,112 entries in about 74 MiB, of which 848
are separators.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from dataclasses import dataclass
from typing import Callable

ARABIC_KAF = "ك"
PERSIAN_KAF = "ک"
ARABIC_YEH = "ي"
PERSIAN_YEH = "ی"
TATWEEL = "ـ"
ZWNJ = "‌"
# Fathatan through sukun: the harakat commonly sprinkled over informal text.
ARABIC_DIACRITICS = tuple(chr(cp) for cp in range(0x064B, 0x0653))

_CHAR_TABLE: dict[int, int | None] = {
    ord(ARABIC_KAF): ord(PERSIAN_KAF),
    ord(ARABIC_YEH): ord(PERSIAN_YEH),
}
for _ch in (TATWEEL, ZWNJ, *ARABIC_DIACRITICS):
    _CHAR_TABLE[ord(_ch)] = None


def persian_normalize(s: str) -> str:
    """Canonical form used for alias keys and term matching.

    In order: Unicode canonical composition, Arabic kaf/yeh mapped to
    their Persian codepoints, tatweel / Arabic diacritics / ZWNJ deleted,
    whitespace runs collapsed to one space and stripped, case folding.
    ZWNJ is deleted rather than replaced by a space, so compounds such as
    "می‌رود" stay one token. Idempotent.
    """
    s = unicodedata.normalize("NFC", s)
    s = s.translate(_CHAR_TABLE)
    # Deleting a mark can leave a base and a combining character apart;
    # recompose so a second pass is a no-op.
    s = unicodedata.normalize("NFC", s)
    s = " ".join(s.split())
    s = s.casefold()
    # Case folding may emit decomposed pairs (e.g. w + combining ring);
    # recompose those too, again for idempotence.
    return unicodedata.normalize("NFC", s)


def identity_normalize(s: str) -> str:
    return s


PROFILES: dict[str, Callable[[str], str]] = {
    "persian": persian_normalize,
    "identity": identity_normalize,
}


def get_normalizer(name: str) -> Callable[[str], str]:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown normalizer profile {name!r}; expected one of {sorted(PROFILES)}"
        ) from None


#: Default profile, used wherever no explicit choice is made.
normalize = persian_normalize


@dataclass(frozen=True)
class Token:
    """A normalized token with offsets into the original string."""

    text: str
    start: int
    end: int


def _is_separator(ch: str) -> bool:
    return ch.isspace() or unicodedata.category(ch).startswith("P")


class _SeparatorTable(dict):
    """Separators map to a space and every other codepoint to itself, as
    the running Python's `unicodedata` classifies them."""

    def __missing__(self, cp: int) -> int:
        value = self[cp] = 0x20 if _is_separator(chr(cp)) else cp
        return value


_SEPARATORS = _SeparatorTable()
_RUN = re.compile("[^ ]+")


def tokenize(s: str, normalizer: Callable[[str], str] = persian_normalize) -> list[Token]:
    """Split on whitespace and punctuation.

    Offsets refer to the original string; `text` is the normalized slice.
    Slices that normalize to nothing (bare tatweel runs and the like) are
    dropped, as is punctuation by construction.
    """
    # The translation is one character for one, so run offsets are offsets into `s`.
    tokens: list[Token] = []
    for run in _RUN.finditer(s.translate(_SEPARATORS)):
        start, end = run.span()
        text = normalizer(s[start:end])
        if text:
            tokens.append(Token(text, start, end))
    return tokens


class NormalForms(dict):
    """Memo of a normalizer profile: each raw run maps to its normal form,
    interned, so that all the vectors built from it share one string per
    distinct term. A run that is already normal is stored under that
    interned string too, so key and value are one object."""

    def __init__(self, profile: Callable[[str], str]):
        super().__init__()
        self.profile = profile

    def __missing__(self, run: str) -> str:
        form = sys.intern(self.profile(run))
        self[form if form == run else run] = form
        return form


def terms(s: str, normalizer: Callable[[str], str]) -> list[str]:
    """The texts of `tokenize(s, normalizer)`, without building offsets."""
    # Every whitespace codepoint is a separator, so `split()` breaks only
    # at the spaces the table put in.
    return [t for run in s.translate(_SEPARATORS).split() if (t := normalizer(run))]
