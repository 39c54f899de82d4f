"""Hierarchical spans with contextvar parent tracking.

A span is one timed region of work (``interp.run``, ``analysis.intra``,
``experiment:table2``); spans opened while another span is active
become its children, so a run produces a tree mirroring the call
structure across the pipeline's layers.

Tracing is *off* by default.  ``REPRO_TRACE`` (or ``--trace`` on the
CLI, or :func:`enable_tracing`) turns it on; while off, :func:`span`
returns a shared no-op singleton, so the cost of an instrumentation
point is one module-global read and one function call — effectively
zero next to the work being traced.  ``--timings`` forces tracing on
for the duration of a command (:func:`forced_tracing`) because the
timing reports are *views over the trace*, not a parallel mechanism.

Clocks: spans measure duration with :func:`time.perf_counter` and
record their start as an offset from the process's trace epoch, so
sibling ordering is meaningful within a process but wall-clock dates
never enter the trace (keeping exports diffable).

Request scoping: the serving daemon needs per-request span trees even
when process-wide tracing is off.  :func:`request_buffer` installs a
:class:`TraceBuffer` in the current context; while one is active,
:func:`span` records real spans whose finished roots land in the
buffer instead of the process-global root list.  Because the buffer
lives in a contextvar, it follows the request across ``await`` points,
and a ``contextvars.copy_context()`` hop carries it onto worker
threads (the single-flight scheduler does exactly that), so spans
opened on a worker still parent under the request span.
"""

from __future__ import annotations

import os
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

_TRUTHY = {"1", "yes", "on", "true"}

#: Process trace epoch: span starts are offsets from this instant.
_EPOCH = time.perf_counter()

_ENABLED: bool = (
    os.environ.get("REPRO_TRACE", "").strip().lower() in _TRUTHY
)

#: The innermost open span of the current (thread/task) context.
_CURRENT: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_current_span", default=None
)

#: Finished top-level spans, in completion order.
_ROOTS: list["Span"] = []

#: The request-scoped trace buffer of the current context (serving).
_BUFFER: ContextVar[Optional["TraceBuffer"]] = ContextVar(
    "repro_obs_trace_buffer", default=None
)


def tracing_enabled() -> bool:
    """Whether spans are being recorded."""
    return _ENABLED


def enable_tracing() -> None:
    """Turn span recording on for this process."""
    global _ENABLED
    _ENABLED = True


def disable_tracing() -> None:
    """Turn span recording off (open spans still close normally)."""
    global _ENABLED
    _ENABLED = False


def reset_trace() -> None:
    """Drop every recorded span (tests and worker task hygiene)."""
    _ROOTS.clear()
    _CURRENT.set(None)


@contextmanager
def forced_tracing(active: bool = True):
    """Temporarily force tracing on (used by ``--timings`` views)."""
    if not active or _ENABLED:
        yield
        return
    enable_tracing()
    try:
        yield
    finally:
        disable_tracing()


class Span:
    """One timed region; children are spans opened while it is open."""

    __slots__ = ("name", "attrs", "start", "seconds", "children", "_token")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.seconds = 0.0
        self.children: list["Span"] = []
        self._token = None

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span (cache hits, sizes, ...)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self.start = time.perf_counter() - _EPOCH
        return self

    def __exit__(self, *_exc) -> None:
        self.seconds = (time.perf_counter() - _EPOCH) - self.start
        _CURRENT.reset(self._token)
        self._token = None
        parent = _CURRENT.get()
        if parent is not None:
            parent.children.append(self)
            return
        buffer = _BUFFER.get()
        if buffer is not None:
            buffer.roots.append(self)
            if _ENABLED:
                _ROOTS.append(self)
        else:
            _ROOTS.append(self)

    # ------------------------------------------------------------------
    # Serialization (worker→parent payloads and JSONL export).

    def to_dict(self) -> dict:
        payload: dict = {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        if self.children:
            payload["children"] = [
                child.to_dict() for child in self.children
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span_ = cls(str(payload["name"]), dict(payload.get("attrs", {})))
        span_.start = float(payload.get("start", 0.0))
        span_.seconds = float(payload.get("seconds", 0.0))
        span_.children = [
            cls.from_dict(child) for child in payload.get("children", [])
        ]
        return span_


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **_attrs: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **attrs: object):
    """Open a span named ``name``.

    Records a real span when process tracing is on *or* a request
    buffer is active in this context; a shared no-op otherwise.
    """
    if not _ENABLED and _BUFFER.get() is None:
        return _NOOP
    return Span(name, attrs)


def current_span():
    """The innermost open span (a no-op stand-in when none/disabled)."""
    if not _ENABLED and _BUFFER.get() is None:
        return _NOOP
    return _CURRENT.get() or _NOOP


# ----------------------------------------------------------------------
# Request-scoped buffers and trace identity (the serving layer).


class TraceBuffer:
    """Collects one request's finished root spans.

    Installed in the context by :func:`request_buffer`; while active,
    :func:`span` records real spans regardless of the process-wide
    tracing switch, and top-level spans land in :attr:`roots` instead
    of (or, with tracing on, in addition to) the global root list.
    """

    __slots__ = ("trace_id", "roots")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.roots: list[Span] = []


@contextmanager
def request_buffer(trace_id: Optional[str] = None):
    """Scope a :class:`TraceBuffer` to the current context."""
    buffer = TraceBuffer(trace_id)
    token = _BUFFER.set(buffer)
    try:
        yield buffer
    finally:
        _BUFFER.reset(token)


def current_buffer() -> Optional[TraceBuffer]:
    """The active request buffer, if any."""
    return _BUFFER.get()


def current_trace_id() -> Optional[str]:
    """Trace id of the active request buffer (None outside one)."""
    buffer = _BUFFER.get()
    return buffer.trace_id if buffer is not None else None


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span/request id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


#: W3C Trace Context ``traceparent``: version-traceid-parentid-flags.
_TRACEPARENT = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def parse_traceparent(value: str) -> Optional[tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a ``traceparent`` header.

    Returns None for anything malformed, the all-zero ids, or the
    reserved version ``ff`` — callers then mint a fresh trace id
    rather than propagating garbage.
    """
    match = _TRACEPARENT.match(value.strip().lower())
    if match is None:
        return None
    version, trace_id, parent_id, _flags = match.groups()
    if version == "ff":
        return None
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return trace_id, parent_id


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a ``traceparent`` header (version 00, sampled flag)."""
    return f"00-{trace_id}-{span_id}-01"


def attach_span(span_: Span) -> None:
    """Adopt an already-finished span (e.g. one deserialized from a
    worker) as a child of the current span, or as a root."""
    parent = _CURRENT.get()
    if parent is not None:
        parent.children.append(span_)
    else:
        _ROOTS.append(span_)


def trace_roots() -> list[Span]:
    """Finished top-level spans, in completion order."""
    return list(_ROOTS)


def walk_spans(roots: Optional[list[Span]] = None):
    """Yield ``(span, depth)`` over the trees in pre-order."""
    stack = [
        (root, 0)
        for root in reversed(roots if roots is not None else _ROOTS)
    ]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        for child in reversed(node.children):
            stack.append((child, depth + 1))


def span_names(roots: Optional[list[Span]] = None) -> set[str]:
    """The set of distinct span names in the trace."""
    return {node.name for node, _ in walk_spans(roots)}
