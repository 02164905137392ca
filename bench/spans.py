"""In-memory spans around calls into the peyvand modules.

The program itself is not instrumented: a `Tracer` replaces module
attributes with timing wrappers for the duration of a `with` block and
puts the originals back afterwards. Each span knows the span that was open
when it started (per thread), so a span's self time is its duration minus
the time of the child spans it covers.

Spans stay in memory until the run ends. Coarse spans keep one record
each; spans marked `leaf` (functions called hundreds of thousands of times
per run) are aggregated per (name, parent) so memory stays flat.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None
    thread: int
    start: float
    end: float
    self_s: float


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (name, parent) -> [calls, total seconds, self seconds]
        self.leaves: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        leaf: bool = False,
        observe: Callable | None = None,
    ) -> Callable:
        """A wrapper that times `fn` under `name`. `observe(args, result)`
        runs after each call, outside the timed interval of the span."""

        def wrapper(*args, **kwargs):
            stack, frame, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, frame, parent, start, leaf)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a coarse span."""
        stack, frame, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(stack, frame, parent, start, False)

    def _open(self, name: str):
        stack = self._stack()
        frame = _Frame(name)
        parent = stack[-1] if stack else None
        stack.append(frame)
        return stack, frame, parent, perf_counter()

    def _close(self, stack, frame, parent, start, leaf) -> None:
        end = perf_counter()
        stack.pop()
        duration = end - start
        if parent is not None:
            parent.child_s += duration
        parent_name = parent.name if parent else None
        with self._lock:
            if leaf:
                agg = self.leaves[(frame.name, parent_name)]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame.child_s
            else:
                self.spans.append(
                    Span(frame.name, parent_name, threading.get_ident(), start, end,
                         duration - frame.child_s)
                )

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace `module.attr` for each `(module, attr, wrapper_factory)`
        while the block runs. A module that no longer has the attribute is
        skipped, so its span reads as zero calls."""
        saved = []
        try:
            for module_name, attr, make in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- summaries -------------------------------------------------------

    def total(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of the spans called `name`."""
        calls, total, self_s = 0, 0.0, 0.0
        for span in self.spans:
            if span.name == name:
                calls += 1
                total += span.end - span.start
                self_s += span.self_s
        for (leaf_name, _), (c, t, s) in self.leaves.items():
            if leaf_name == name:
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def threads(self, name: str) -> int:
        """Distinct threads that ran a coarse span called `name`."""
        return len({span.thread for span in self.spans if span.name == name})
