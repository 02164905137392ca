from __future__ import annotations

from pathlib import Path


class PeyvandError(Exception):
    """Base class for every error raised by this package."""


class InputError(PeyvandError):
    """A malformed input file: `path:line: reason`, or `path: reason` when
    no one line is at fault."""

    def __init__(self, path: str | Path, line: int | None, reason: str):
        super().__init__(f"{path}: {reason}" if line is None else f"{path}:{line}: {reason}")
        self.path = str(path)
        self.line = line
        self.reason = reason
