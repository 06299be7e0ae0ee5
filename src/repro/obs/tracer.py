"""Hierarchical span tracing.

A *span* is one timed region of work -- a pipeline phase, a solver call,
a job attempt -- with a name, free-form attributes, and a parent, so a
run decomposes into a tree whose leaves explain where the wall clock
went (the paper's SS VII-B3 accounting asks exactly this question of a
multi-day JasperGold campaign).

Design points:

* **Context-manager API.**  ``with tracer.span("phase.cover", iuv="DIV")``
  brackets the region; the span object supports ``set``/``inc`` for
  attributes discovered while the region runs (e.g. how many properties
  it evaluated and how much checker time they consumed).
* **Thread-safe.**  The parent stack is thread-local; span-id allocation
  is lock-protected, so concurrent threads trace into one sink without
  interleaving corruption.
* **Pluggable sink.**  Spans are emitted as paired ``span_begin`` /
  ``span_end`` JSONL events through any ``sink(kind, **fields)``
  callable -- normally :meth:`repro.engine.telemetry.TelemetryLog.event`,
  so spans share the stream with the engine's job/cache events.
* **Cross-process forwarding.**  Worker processes trace into a
  :class:`SpanCollector` (an in-memory sink); the recorded events travel
  back in the worker report and the parent replays them into its own
  log, re-parenting worker root spans under the run span.  Span ids are
  prefixed with a per-tracer unique token, so ids never collide across
  processes (or across the inline path, which uses the same mechanism).
* **Near-zero cost when off.**  The module-level :func:`span` helper
  resolves the active tracer; with none active it returns a shared
  no-op context manager, so instrumented code needs no conditionals.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "SpanCollector",
    "replay_into",
    "NULL_SPAN",
    "activate",
    "deactivate",
    "current_tracer",
    "current_span",
    "span",
]


class Span:
    """One open region of traced work."""

    __slots__ = ("name", "span_id", "parent_id", "start", "attrs")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str],
                 start: float, attrs: Dict[str, Any]):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def inc(self, key: str, value: float = 1) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + value

    def __repr__(self):
        return "Span(%s, id=%s)" % (self.name, self.span_id)


class _NullSpan:
    """Stateless stand-in used when no tracer is active; also its own
    context manager, so one shared instance serves every call site."""

    __slots__ = ()
    name = span_id = parent_id = None
    start = 0.0

    def set(self, key, value):
        pass

    def inc(self, key, value=1):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def __repr__(self):
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager for one live span on one tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._begin(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._tracer._end(self._span, error=exc is not None)
        return False


class Tracer:
    """Emits a tree of spans to a sink; see module docstring."""

    def __init__(self, sink: Optional[Callable] = None, prefix: Optional[str] = None):
        self.sink = sink
        # unique across processes AND across tracers within one process
        self.prefix = prefix or "%d-%s" % (os.getpid(), uuid.uuid4().hex[:6])
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # ----------------------------------------------------------------- state
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _new_id(self) -> str:
        with self._lock:
            return "%s:%d" % (self.prefix, next(self._counter))

    # ------------------------------------------------------------------ API
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        parent = self.current_span
        record = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start=time.time(),
            attrs=dict(attrs),
        )
        return _SpanContext(self, record)

    # ------------------------------------------------------------ internals
    def _emit(self, kind: str, fields: Dict[str, Any]) -> None:
        if self.sink is not None:
            self.sink(kind, **fields)

    def _begin(self, record: Span) -> None:
        self._stack().append(record)
        self._emit(
            "span_begin",
            {
                "ts": record.start,
                "span": record.span_id,
                "parent": record.parent_id,
                "name": record.name,
                "attrs": dict(record.attrs),
            },
        )

    def _end(self, record: Span, error: bool = False) -> None:
        stack = self._stack()
        # tolerate exits out of order (a bug in instrumented code must not
        # corrupt sibling spans): pop down to, and including, this span
        while stack and stack[-1] is not record:
            stack.pop()
        if stack:
            stack.pop()
        end = time.time()
        fields = {
            "ts": end,
            "span": record.span_id,
            "name": record.name,
            "dur": round(end - record.start, 9),
            "attrs": {
                key: (round(value, 9) if isinstance(value, float) else value)
                for key, value in record.attrs.items()
            },
        }
        if error:
            fields["error"] = True
        self._emit("span_end", fields)


class SpanCollector:
    """In-memory sink for worker-side tracing.

    Records ``(kind, fields)`` tuples in emission order; the list is
    picklable and travels back to the parent in the worker report, where
    :func:`replay_into` forwards it into the parent's log.
    """

    def __init__(self):
        self.records: List[Tuple[str, Dict[str, Any]]] = []

    def __call__(self, kind: str, **fields: Any) -> None:
        self.records.append((kind, fields))


def replay_into(records, sink: Callable, reparent: Optional[str] = None) -> None:
    """Forward collected span events into ``sink``.

    Root spans (``parent`` is None) are re-parented under ``reparent`` so
    worker trees hang off the parent's run span.
    """
    for kind, fields in records:
        if (
            reparent is not None
            and kind == "span_begin"
            and fields.get("parent") is None
        ):
            fields = dict(fields, parent=reparent)
        sink(kind, **fields)


# ------------------------------------------------------- active-tracer stack
#
# Call sites deep in the stack (solver, engines, pipelines) reach the
# tracer through this per-thread stack instead of threading a parameter
# through every signature.  ``activate`` pushes, ``deactivate`` pops;
# nesting is explicitly supported (the scheduler activates a run tracer,
# then the inline job path activates a collector tracer on top).

_active = threading.local()


def _active_stack() -> List[Tracer]:
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    return stack


def activate(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the current tracer for this thread; returns it."""
    _active_stack().append(tracer)
    return tracer


def deactivate(tracer: Optional[Tracer] = None) -> None:
    """Pop the current tracer (verifying identity when one is passed)."""
    stack = _active_stack()
    if not stack:
        return
    if tracer is None or stack[-1] is tracer:
        stack.pop()
        return
    # out-of-order deactivation: drop the named tracer wherever it sits
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] is tracer:
            del stack[i]
            return


def current_tracer() -> Optional[Tracer]:
    stack = _active_stack()
    return stack[-1] if stack else None


def current_span():
    tracer = current_tracer()
    if tracer is None:
        return NULL_SPAN
    return tracer.current_span or NULL_SPAN


def span(name: str, **attrs: Any):
    """Open a span on the active tracer (shared no-op when none active)."""
    tracer = current_tracer()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)
