"""Deterministic text normalization and tokenization.

The default profile targets Persian social-media text, where Arabic
keyboard layouts, stray diacritics and inconsistent ZWNJ usage produce
many spellings of the same surface form. An identity profile is kept for
tests and for corpora that need no folding.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Callable, Collection, Iterable

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


def tokenize(s: str, normalizer: Callable[[str], str] = persian_normalize) -> list[Token]:
    """Split on whitespace and punctuation.

    Offsets refer to the original string; `text` is the normalized slice.
    Slices that normalize to nothing (bare tatweel runs and the like) are
    dropped, as is punctuation by construction.
    """
    tokens: list[Token] = []
    start: int | None = None
    for i, ch in enumerate(s):
        if _is_separator(ch):
            if start is not None:
                text = normalizer(s[start:i])
                if text:
                    tokens.append(Token(text, start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        text = normalizer(s[start:])
        if text:
            tokens.append(Token(text, start, len(s)))
    return tokens


def content_terms(tokens: Iterable[Token], stopwords: Collection[str]) -> list[str]:
    """Token texts minus stopwords; order and duplicates preserved."""
    return [t.text for t in tokens if t.text not in stopwords]
