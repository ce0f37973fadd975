"""Span tracer that wraps module functions from outside the program.

Patching a module attribute replaces the function for every caller that
looks it up through the module.  That includes calls between functions of
the same module, whose globals are the module's attributes, so the call
from `liouvillian.steady_state` to `nullspace_dimension` becomes a child
span without any change to the program.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from typing import Callable

#: Name of the span that covers the tracer's own bookkeeping, so that the
#: time spent counting is not charged to the span that called the function.
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    error: str | None = None  # exception type name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every wrapped function while recording."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.recording = False
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, on_result: Callable | None = None) -> None:
        """Replace module.attr by a spanning wrapper.

        on_result(tracer, args, kwargs, result) runs after a successful call,
        inside a bookkeeping span of its own.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if on_result is not None:
                book = tracer._open(BOOKKEEPING)
                try:
                    on_result(tracer, args, kwargs, result)
                finally:
                    tracer._close(book)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, fn))

    def wrap_public(self, module, on_result: dict[str, Callable] | None = None) -> None:
        """Wrap every public function defined in the module itself."""
        on_result = on_result or {}
        for attr, obj in list(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                self.wrap(module, attr, on_result.get(attr))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]
