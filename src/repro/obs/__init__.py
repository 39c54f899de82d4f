"""Zero-dependency tracing and metrics for the whole pipeline.

Four pieces, threaded through every layer of the system:

* :mod:`repro.obs.trace` — hierarchical spans with contextvar parent
  tracking; off by default (``REPRO_TRACE``/``--trace``), near-zero
  overhead when disabled.
* :mod:`repro.obs.metrics` — an always-on registry of counters, gauges,
  and histograms (cache hits/misses/bytes, interpreter run totals,
  solver dispatch decisions, request latencies).
* :mod:`repro.obs.aggregate` — worker tasks capture their spans and
  metric deltas and ship them to the parent, which merges them in
  deterministic task order, so ``--jobs N`` yields one coherent trace.
* :mod:`repro.obs.export` — JSONL traces (``REPRO_TRACE_FILE``), the
  ``repro trace`` tree report, and the persisted metrics snapshot
  behind ``repro stats``.

Two request-level companions (imported on demand, not re-exported):
:mod:`repro.obs.flight`, the daemon's tail-sampled flight recorder
and structured access log, and :mod:`repro.obs.profiler`, the
zero-dependency sampling wall-clock profiler behind ``repro
profile`` and ``GET /debug/profile``.

This module also owns :func:`diag`, the single helper all diagnostic
stderr chatter routes through (``--quiet``/``REPRO_QUIET`` silence it
without touching stdout).
"""

from __future__ import annotations

import os
import sys

from repro.obs.aggregate import WorkerCapture, absorb
from repro.obs.export import (
    default_trace_path,
    read_stats,
    read_trace_jsonl,
    render_span_tree,
    stats_file_path,
    write_stats,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    counter,
    counter_value,
    gauge,
    histogram,
    incr,
    merge_metrics,
    metrics_delta,
    metrics_snapshot,
    observe,
    render_metrics,
    render_prometheus,
    reset_metrics,
    sample_percentiles,
    set_gauge,
)
from repro.obs.trace import (
    Span,
    TraceBuffer,
    attach_span,
    current_buffer,
    current_span,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    forced_tracing,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    request_buffer,
    reset_trace,
    span,
    span_names,
    trace_roots,
    tracing_enabled,
    walk_spans,
)

_QUIET: bool = (
    os.environ.get("REPRO_QUIET", "").strip().lower()
    in {"1", "yes", "on", "true"}
)


def set_quiet(value: bool) -> None:
    """Silence (or restore) diagnostic stderr output."""
    global _QUIET
    _QUIET = bool(value)


def quiet_enabled() -> bool:
    """Whether diagnostic chatter is suppressed."""
    return _QUIET


def diag(message: str) -> None:
    """Print one diagnostic line to stderr unless quiet is on.

    Every informational message the CLI emits (timings, progress,
    cache traffic) goes through here, so ``--quiet`` silences all of
    it at once while stdout stays untouched for scripted use.
    """
    if not _QUIET:
        print(message, file=sys.stderr)


__all__ = [
    "Span",
    "TraceBuffer",
    "WorkerCapture",
    "absorb",
    "attach_span",
    "counter",
    "counter_value",
    "current_buffer",
    "current_span",
    "current_trace_id",
    "default_trace_path",
    "diag",
    "disable_tracing",
    "enable_tracing",
    "forced_tracing",
    "format_traceparent",
    "gauge",
    "histogram",
    "incr",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "request_buffer",
    "merge_metrics",
    "metrics_delta",
    "metrics_snapshot",
    "observe",
    "quiet_enabled",
    "read_stats",
    "read_trace_jsonl",
    "render_metrics",
    "render_prometheus",
    "render_span_tree",
    "reset_metrics",
    "reset_trace",
    "sample_percentiles",
    "set_gauge",
    "set_quiet",
    "span",
    "span_names",
    "stats_file_path",
    "trace_roots",
    "tracing_enabled",
    "walk_spans",
    "write_stats",
    "write_trace_jsonl",
]
