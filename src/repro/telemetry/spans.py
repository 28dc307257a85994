"""Nested tracing spans with monotonic timing and per-span counters.

A :class:`Tracer` hands out :class:`Span` context managers.  Nesting is
tracked per thread (a ``threading.local`` span stack), so one tracer
can be shared by every worker thread of an injection campaign; each
thread builds its own ancestry while closed spans land in one
lock-protected buffer.

The :class:`NullTracer` is the disabled path: its spans are created but
never timed (constant-zero clock) nor recorded, so instrumented code
runs unconditionally with near-zero overhead and — critically — zero
effect on any numerical result.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

from .clock import ClockFn, monotonic_clock

#: Allowed span-attribute value types (must stay JSON-representable).
Attribute = Union[str, int, float, bool, None]


@dataclass
class Span:
    """One timed operation: name, ancestry, attributes, counters."""

    name: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    attributes: Dict[str, Attribute] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    status: str = "ok"
    worker: str = "main"

    @property
    def duration(self) -> float:
        """Seconds between open and close (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes: Attribute) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attributes.update(attributes)

    def incr(self, counter: str, amount: int = 1) -> None:
        """Bump a per-span counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount


class Tracer:
    """Produces nested spans and buffers them until export.

    Thread-safe: the span stack is thread-local (each worker thread
    nests independently) and the finished-span buffer appends under a
    lock.  Span ids are ``<worker>-<n>`` with a per-tracer counter, so
    merged buffers from distinct workers cannot collide as long as
    worker labels differ.
    """

    def __init__(self, clock: Optional[ClockFn] = None, worker: str = "main") -> None:
        self.clock: ClockFn = clock or monotonic_clock
        self.worker = worker
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @property
    def enabled(self) -> bool:
        return True

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        parent_id: Optional[str] = None,
        **attributes: Attribute,
    ) -> Iterator[Span]:
        """Open a nested span; it closes (and is recorded) on exit.

        ``parent_id`` overrides the ambient parent — pool workers use it
        to hang their root span under the dispatching stage, because a
        fresh worker thread starts with an empty span stack.
        """
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        with self._lock:
            span_id = f"{self.worker}-{next(self._ids)}"
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start=self.clock(),
            attributes=dict(attributes),
            worker=self.worker,
        )
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.end = self.clock()
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:  # unbalanced exit; keep the stack sane
                stack.remove(span)
            with self._lock:
                self._finished.append(span)

    def events(self) -> List[Span]:
        """A snapshot of every closed span so far."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop all buffered spans (tests and repeated exports)."""
        with self._lock:
            self._finished.clear()


def _zero_clock() -> float:
    return 0.0


class NullTracer(Tracer):
    """The disabled tracer: spans open and close but nothing records."""

    def __init__(self) -> None:
        super().__init__(clock=_zero_clock, worker="null")

    @property
    def enabled(self) -> bool:
        return False

    @contextmanager
    def span(
        self,
        name: str,
        parent_id: Optional[str] = None,
        **attributes: Attribute,
    ) -> Iterator[Span]:
        yield Span(name=name, span_id="", parent_id=None, worker="null")


#: Shared inert tracer; instrumented code falls back to it when no real
#: tracer was injected, keeping call sites branch-free.
NULL_TRACER = NullTracer()


def merge_spans(spans: Sequence[Span]) -> List[Span]:
    """Deterministic export order: by start time, ties by span id.

    Spans land in the buffer in closing order, which interleaves across
    threads; sorting restores one stable timeline.
    """
    return sorted(spans, key=lambda s: (s.start, s.span_id, s.name))
