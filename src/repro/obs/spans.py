"""Causal spans: trace_id/span_id/parent_id records over the trace ring.

A *span* is an interval of work with a causal parent, encoded as a pair
of ordinary :class:`~repro.obs.trace.TraceEvent` records (``span.start``
/ ``span.end``) in the same ring buffer as flat events.  No new storage,
no new export path: a span JSONL is just a trace JSONL, and
:mod:`repro.obs.analyze` reassembles the tree offline.

The fast path matches the rest of ``repro.obs``: every entry point
checks ``tracer.enabled`` first, and :func:`start_span` returns ``None``
when tracing is off, so instrumented code pays one branch and one
``is None`` test per site.  Instrumentation must stay behavior-neutral
(see ``tests/obs/test_neutrality.py``).

Parenting is implicit through a :class:`contextvars.ContextVar` holding
the current span: a span started inside :class:`span_scope` becomes a
child of the enclosing scope without threading handles through call
signatures.  For crossing process boundaries (the planned ``repro.net``
daemon), :func:`inject` / :func:`extract` serialise the (trace_id,
span_id) pair into a flat dict; ``transfer.wire`` wraps that into a
context-envelope frame.

Span identifiers come from a lock-protected monotonic counter rather
than a random source: the determinism lint bans stdlib ``random`` in
``src/repro``, and sequential ids make traces reproducible and tests
exact.  Within one process ids are unique; across processes the
trace_id carried by :func:`extract` keeps causality stitched.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import dataclass

from .events import SPAN_END, SPAN_START
from .trace import TRACER, TraceBuffer

__all__ = [
    "SpanHandle",
    "current_span",
    "start_span",
    "finish_span",
    "span_scope",
    "activated",
    "inject",
    "extract",
    "reset_ids",
]


@dataclass(frozen=True)
class SpanHandle:
    """Identity of one live (or finished) span.

    ``parent_id == 0`` marks a root span; root spans also have
    ``trace_id == span_id`` so a trace is named after its root.
    """

    trace_id: int
    span_id: int
    parent_id: int
    op: str


class _IdSource:
    """Monotonic span-id allocator (deterministic, thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 1

    def allocate(self) -> int:
        with self._lock:
            value = self._next
            self._next += 1
            return value

    def reset(self) -> None:
        with self._lock:
            self._next = 1


_IDS = _IdSource()

#: The innermost open :class:`span_scope` in this execution context.
_CURRENT: ContextVar[SpanHandle | None] = ContextVar(
    "repro_obs_current_span", default=None
)

#: Sentinel distinguishing "no parent given" from "explicitly a root".
_UNSET = object()


def reset_ids() -> None:
    """Restart span-id allocation at 1 (test isolation hook)."""
    _IDS.reset()


def current_span() -> SpanHandle | None:
    """The span the current execution context is inside, if any."""
    return _CURRENT.get()


def start_span(
    op: str,
    parent: SpanHandle | None = _UNSET,  # type: ignore[assignment]
    tracer: TraceBuffer = TRACER,
    **attrs,
) -> SpanHandle | None:
    """Open a span and emit ``span.start``; returns ``None`` if tracing is off.

    ``parent`` defaults to :func:`current_span`; pass ``None`` to force a
    root, or a handle (e.g. from :func:`extract`) to parent explicitly.
    ``attrs`` become the start event's ``attrs`` payload and must be
    JSON-serialisable.
    """
    if not tracer.enabled:
        return None
    if parent is _UNSET:
        parent = _CURRENT.get()
    span_id = _IDS.allocate()
    if parent is None:
        handle = SpanHandle(trace_id=span_id, span_id=span_id, parent_id=0, op=op)
    else:
        handle = SpanHandle(
            trace_id=parent.trace_id,
            span_id=span_id,
            parent_id=parent.span_id,
            op=op,
        )
    tracer.emit(
        SPAN_START,
        trace_id=handle.trace_id,
        span_id=handle.span_id,
        parent_id=handle.parent_id,
        op=handle.op,
        attrs=attrs,
    )
    return handle


def finish_span(
    handle: SpanHandle | None,
    status: str = "ok",
    tracer: TraceBuffer = TRACER,
) -> None:
    """Emit ``span.end`` for ``handle``; a ``None`` handle is a no-op.

    Accepting ``None`` lets call sites pair an unconditional
    ``finish_span`` with a :func:`start_span` that ran while tracing was
    disabled.
    """
    if handle is None or not tracer.enabled:
        return
    tracer.emit(
        SPAN_END,
        trace_id=handle.trace_id,
        span_id=handle.span_id,
        op=handle.op,
        status=status,
    )


class span_scope:
    """Context manager: a span that parents everything inside its body.

    Sets the contextvar on entry so nested :func:`start_span` /
    ``span_scope`` sites auto-parent, and restores it on exit.  The span
    finishes with status ``"ok"``, or ``"error"`` if the body raised.
    When tracing is disabled the scope is a pure no-op (one branch).
    """

    __slots__ = ("op", "attrs", "parent", "tracer", "handle", "_token")

    def __init__(
        self,
        op: str,
        parent: SpanHandle | None = _UNSET,  # type: ignore[assignment]
        tracer: TraceBuffer = TRACER,
        **attrs,
    ) -> None:
        self.op = op
        self.attrs = attrs
        self.parent = parent
        self.tracer = tracer
        self.handle: SpanHandle | None = None
        self._token = None

    def __enter__(self) -> SpanHandle | None:
        if not self.tracer.enabled:
            return None
        self.handle = start_span(
            self.op, parent=self.parent, tracer=self.tracer, **self.attrs
        )
        if self.handle is not None:
            self._token = _CURRENT.set(self.handle)
        return self.handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if self.handle is not None:
            finish_span(
                self.handle,
                status="ok" if exc_type is None else "error",
                tracer=self.tracer,
            )
            self.handle = None
        return False


class activated:
    """Context manager: make an already-open span current for the body.

    For work one span covers but that runs as many separate calls (a
    download advanced slot by slot from outside), so spans opened by
    each call still parent under it.  ``None`` is a no-op, matching
    :func:`finish_span`.
    """

    __slots__ = ("handle", "_token")

    def __init__(self, handle: SpanHandle | None) -> None:
        self.handle = handle
        self._token = None

    def __enter__(self) -> SpanHandle | None:
        if self.handle is not None:
            self._token = _CURRENT.set(self.handle)
        return self.handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        return False


def inject(span: SpanHandle | None = None, carrier: dict | None = None) -> dict:
    """Write span context into a flat dict carrier (W3C-tracecontext style).

    ``span`` defaults to :func:`current_span`.  With no active span the
    carrier is returned unmodified, so injection is safe to call
    unconditionally.
    """
    if carrier is None:
        carrier = {}
    if span is None:
        span = _CURRENT.get()
    if span is not None:
        carrier["trace_id"] = span.trace_id
        carrier["span_id"] = span.span_id
    return carrier


def extract(carrier: dict) -> SpanHandle | None:
    """Read span context out of a carrier dict; ``None`` if absent.

    The returned handle represents the *remote* parent: pass it as
    ``parent=`` to :func:`start_span` to continue the trace on this side
    of a peer boundary.
    """
    try:
        trace_id = int(carrier["trace_id"])
        span_id = int(carrier["span_id"])
    except (KeyError, TypeError, ValueError):
        return None
    return SpanHandle(trace_id=trace_id, span_id=span_id, parent_id=0, op="remote")
