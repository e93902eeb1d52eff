"""In-memory span recorder and the wrappers that feed it.

A span is ``(id, parent, request, name, start, end, tag, failed)``.
The current span lives in a :mod:`contextvars` variable, so spans
nest correctly inside one thread, inside one asyncio task, and across
tasks created from a span (they copy the context).  Spans stay in a
list in memory and are written out once, at the end of a run.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Children may overlap each other (several
awaits in flight under one request), so the covered part is the
length of the union of their intervals, clipped to the parent.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "Tracer",
    "layer_totals",
    "load_spans",
    "self_times",
    "union_length",
]


@dataclass(frozen=True)
class Span:
    """One recorded interval at a layer boundary."""

    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float
    tag: str | None = None
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        #: (span id, request id) of the innermost open span.
        self._current: contextvars.ContextVar[tuple[int, int] | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def current(self) -> tuple[int, int] | None:
        """``(span id, request id)`` of the open span in this context."""
        return self._current.get()

    def adopt(self, parent: tuple[int, int] | None) -> contextvars.Token:
        """Make ``parent`` the open span of this context (thread hand-off)."""
        return self._current.set(parent)

    def release(self, token: contextvars.Token) -> None:
        self._current.reset(token)

    def _open(self) -> tuple[int, int | None, int, contextvars.Token]:
        span_id = next(self._ids)
        outer = self._current.get()
        parent, request = (outer if outer is not None else (None, span_id))
        token = self._current.set((span_id, request))
        return span_id, parent, request, token

    def _close(self, opened, name, start, tag, failed) -> None:
        span_id, parent, request, token = opened
        self._current.reset(token)
        self.spans.append(
            Span(span_id, parent, request, name, start, self.clock(), tag, failed)
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag: Callable[..., str | None] | None = None,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        """A span-recording stand-in for ``fn`` (sync or ``async``).

        ``tag`` maps the call's arguments to a label stored on the
        span; ``on_result`` sees every return value (for counts).
        """
        clock = self.clock

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                label = tag(*args, **kwargs) if tag is not None else None
                opened = self._open()
                start = clock()
                failed = True
                try:
                    result = await fn(*args, **kwargs)
                    failed = False
                finally:
                    self._close(opened, name, start, label, failed)
                if on_result is not None:
                    on_result(result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = tag(*args, **kwargs) if tag is not None else None
            opened = self._open()
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._close(opened, name, start, label, failed)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def patch_function(self, module: Any, attr: str, name: str, **kw) -> None:
        """Replace a module-level function everywhere it is bound.

        Callers that did ``from module import fn`` hold their own
        reference, so every loaded module of the same top-level package
        that binds the original object gets the wrapper too.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **kw)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        """Replace a method on its class (every instance sees it)."""
        original = cls.__dict__[attr]
        self.replace(cls, attr, self.wrap(original, name, **kw))

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr``, remembering the old value for :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as one JSON array of rows."""
        rows = [
            [s.id, s.parent, s.request, s.name, s.start, s.end, s.tag, s.failed]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, separators=(",", ":"))


def load_spans(path: str) -> list[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        )
        result[span.id] = span.duration - covered
    return result


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, summed duration, call count."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "failed": 0}
    )
    for span in spans:
        row = totals[span.name]
        row["self_s"] += own[span.id]
        row["total_s"] += span.duration
        row["calls"] += 1
        row["failed"] += span.failed
    return dict(totals)
