"""Span recording around the program's public entry points.

The traced run installs a :class:`SpanRecorder` by wrapping functions
and methods from the benchmark's side; nothing in ``src/`` is
instrumented.  A span is ``(name, start, end, parent, frame, attrs)``:
the parent is the innermost wrapped call open on the same thread, and
``frame`` is the frame id the benchmark declared with :meth:`frame`
(or gave a mark).  Spans are kept in memory and written out once, at the
end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    frame: int | None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def frame(self, frame_id: int):
        """Attribute spans opened on this thread to ``frame_id``."""
        previous = getattr(self._local, "frame", None)
        self._local.frame = frame_id
        try:
            yield
        finally:
            self._local.frame = previous

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1,
                    getattr(self._local, "frame", None))
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span

    def mark(self, name: str, frame: int, when: float) -> None:
        """Record an instant (a zero-length span) at ``when``."""
        stack = self._stack()
        with self._lock:
            self.spans.append(Span(name, when, when,
                                   stack[-1] if stack else -1, frame))

    def wrap(self, name: str, fn: Callable, *,
             before: Callable | None = None,
             attrs_of: Callable | None = None) -> Callable:
        """``fn`` recording one span per call.

        ``before(args, kwargs)`` runs ahead of the call;
        ``attrs_of(args, kwargs, result)`` adds attributes once it
        returned.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack().pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result
        return traced

    # -- installing ---------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, **options) -> bool:
        """Replace ``owner.attr`` by its traced wrapper until
        :meth:`restore`.  Handles module functions, methods and
        classmethods.  Returns ``False`` (and patches nothing) when
        ``owner`` has no such attribute, so a refactored entry point
        reads as an unmeasured layer rather than a crashed run."""
        namespace = vars(owner)
        if attr not in namespace:
            return False
        original = namespace[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__,
                                            **options))
        else:
            wrapped = self.wrap(name, original, **options)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))
        return True

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self, patches):
        """Install ``(owner, attr, name, options)`` patches for a block;
        yields the names of the patches whose target was missing."""
        try:
            yield [name for owner, attr, name, options in patches
                   if not self.patch(owner, attr, name, **options)]
        finally:
            self.restore()

    # -- analysis ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Per span index: its duration minus the union of the intervals
        its child spans cover (clipped to the span itself)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append(span)
        result = {}
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(index, ()),
                                key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[index] = span.duration - covered
        return result

    def per_frame(self, name: str) -> dict[int, float]:
        """Summed duration of ``name`` spans per frame id."""
        totals: dict[int, float] = defaultdict(float)
        for span in self.named(name):
            if span.frame is not None:
                totals[span.frame] += span.duration
        return dict(totals)

    def rows(self) -> list[list]:
        """The spans as JSON rows, in :data:`FIELDS` order."""
        return [[s.name, s.start, s.end, s.parent, s.frame, s.attrs]
                for s in self.spans]


#: Column names of :meth:`SpanRecorder.rows`.
FIELDS = ("name", "start_s", "end_s", "parent", "frame", "attrs")
