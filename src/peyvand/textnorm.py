"""Deterministic text normalization and tokenization.

One normalizer, `persian_normalize`, serves every alias key, reference
list entry, document token and article term. It targets Persian
social-media text, where Arabic keyboard layouts, stray diacritics and
inconsistent ZWNJ usage produce many spellings of the same surface form.

Most words are already in normal form, so the normalizer returns at once
a string that is runs of plain characters joined by single spaces. A
plain character is an ASCII `a-z0-9` or Arabic-block (U+0600-U+06FF)
letter or digit with combining class 0 and no decomposition that the
normalizer leaves as it is: 194 codepoints under Unicode 14.0, the
tables of Python 3.11. The shortcut is exact because such a string is
already NFC, case folding and the kaf/yeh table act one character at a
time, and single inner spaces survive the whitespace collapse. The class
is one compiled regex of fixed size; nothing is memoized.

Text is split one way, into runs: maximal stretches of characters that
are not separators (whitespace or Unicode punctuation). `_runs` splits on
whitespace, keeps a word of letters and digits alone as one run, and
splits every other word with one `str.translate` table that maps each
separator to a space. `tokenize` adds each run's offsets; `terms` does
not. The table is filled on first sight of each codepoint, so it holds at
most one entry per distinct codepoint seen: a few hundred on typical
text, and at worst, for an input holding every codepoint, 1,114,112
entries in about 74 MiB, of which 848 are separators.
"""

from __future__ import annotations

import re
import unicodedata
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


def _full_normalize(s: str) -> str:
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


# The plain characters (see the module docstring). Only the 292
# codepoints of these ranges are scanned: a scan of all of Unicode would
# cost about 0.4 s at import.
_PLAIN = "".join(
    ch
    for ch in map(chr, (*range(0x30, 0x3A), *range(0x61, 0x7B), *range(0x0600, 0x0700)))
    if ch.isalnum()
    and unicodedata.combining(ch) == 0
    and not unicodedata.decomposition(ch)
    and _full_normalize(ch) == ch
)
_plain_text = re.compile(f"[{_PLAIN}]+(?: [{_PLAIN}]+)*").fullmatch


def persian_normalize(s: str) -> str:
    """Canonical form used for alias keys and term matching.

    In order: Unicode canonical composition, Arabic kaf/yeh mapped to
    their Persian codepoints, tatweel / Arabic diacritics / ZWNJ deleted,
    whitespace runs collapsed to one space and stripped, case folding.
    ZWNJ is deleted rather than replaced by a space, so compounds such as
    "می‌رود" stay one token. Idempotent.

    Runs of plain characters (`_PLAIN`) joined by single spaces, as most
    words of real text are, come back unchanged without the six steps.
    That is exact: such a string is already NFC, since no plain
    character decomposes or combines; case folding and the kaf/yeh table
    act one character at a time and leave each plain character as it
    is; and single inner spaces survive the whitespace split and join.
    """
    if _plain_text(s):
        return s
    return _full_normalize(s)


#: The public name of the one normalizer.
normalize = persian_normalize


def _is_separator(ch: str) -> bool:
    return ch.isspace() or unicodedata.category(ch).startswith("P")


class _SeparatorTable(dict):
    """Separators map to a space and every other codepoint to itself, as
    the running Python's `unicodedata` classifies them."""

    def __missing__(self, cp: int) -> int:
        value = self[cp] = 0x20 if _is_separator(chr(cp)) else cp
        return value


_SEPARATORS = _SeparatorTable()


def _runs(s: str) -> list[str]:
    """The runs of `s` in order. Every whitespace codepoint is a separator,
    so the runs lie inside the whitespace-split words; no letter or digit
    is, so a word that `isalnum()` is one run as it stands."""
    runs = []
    for word in s.split():
        if word.isalnum():
            runs.append(word)
        else:
            runs += word.translate(_SEPARATORS).split()
    return runs


def tokenize(s: str) -> list[tuple[str, int, int]]:
    """Split on whitespace and punctuation into `(text, start, end)` tuples.

    `start` and `end` are offsets into `s`; `text` is the normalized slice.
    Slices that normalize to nothing (bare tatweel runs and the like) are
    dropped, as is punctuation by construction.
    """
    # A run holds no separator and only separators lie between two runs,
    # so each run starts at its first occurrence at or after the last end.
    tokens = []
    end = 0
    for run in _runs(s):
        start = s.index(run, end)
        end = start + len(run)
        if text := persian_normalize(run):
            tokens.append((text, start, end))
    return tokens


class NormalForms(dict):
    """Memo of `persian_normalize`: each raw run maps to its normal form."""

    def __missing__(self, run: str) -> str:
        form = self[run] = persian_normalize(run)
        return form


def terms(s: str, normalizer: Callable[[str], str]) -> list[str]:
    """The texts of `tokenize(s)`, without building offsets, with each run
    normalized by `normalizer`: `persian_normalize` or a memo of it."""
    return [t for run in _runs(s) if (t := normalizer(run))]
