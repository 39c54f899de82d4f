"""Process-global metrics registry: counters, gauges, histograms.

Metrics are always on — recording is a dict lookup plus an add, and
every instrumentation point sits at cache-probe or solver granularity,
never inside the interpreter's per-block hot loop — so hit rates and
dispatch decisions are available even when span tracing is disabled.

The registry is process-global.  Worker processes capture a snapshot
before doing work, compute the *delta* afterwards, and ship it back to
the parent (see :mod:`repro.obs.aggregate`), which merges deltas in
deterministic task order; counters and histogram components add, gauges
take the merged value last-writer-wins.

Rendering: :func:`render_metrics` produces the human table behind
``repro stats``; :func:`render_prometheus` the ``--format prom``
text-exposition view.

Importing this module installs one :data:`gc.callbacks` hook that times
every cyclic-GC collection into ``gc.pause_ms{generation=N}`` and counts
it in ``gc.collections{generation=N}``.  A collection pauses whichever
span happens to allocate, so these are the only way to tell collector
time from the work it interrupted.
"""

from __future__ import annotations

import gc
import re
import time
from typing import Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (hits, misses, bytes, calls)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (worker count, configured jobs)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


#: Per-histogram sample reservoir bound.  Below the cap the reservoir
#: is the exact observation multiset (so percentiles are exact and
#: serial vs. ``--jobs N`` runs agree); past it, new observations
#: overwrite slots in a deterministic stride so the reservoir keeps
#: tracking the recent distribution without ever growing.
SAMPLE_CAP = 512

#: Odd stride coprime to every possible cap ≤ SAMPLE_CAP, so repeated
#: replacement visits all slots before reusing one.
_SAMPLE_STRIDE = 40503


class Histogram:
    """A distribution summary: count, sum, min, max, plus a bounded
    sample reservoir for percentiles and an optional exemplar (the
    trace id of one recent observation, for metric→trace pivots)."""

    __slots__ = (
        "count", "total", "minimum", "maximum",
        "samples", "exemplar", "_cursor",
    )
    kind = "histogram"

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.samples: list[float] = []
        self.exemplar: Optional[dict] = None
        self._cursor: int = 0

    def observe(
        self, value: Number, exemplar: Optional[str] = None
    ) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self._insert(value)
        if exemplar is not None:
            self.exemplar = {"value": value, "trace_id": exemplar}

    def _insert(self, value: float) -> None:
        self._cursor += 1
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(value)
        else:
            self.samples[
                (self._cursor * _SAMPLE_STRIDE) % SAMPLE_CAP
            ] = value

    def percentiles(self) -> Optional[dict[str, float]]:
        """Nearest-rank p50/p95/p99 over the sample reservoir."""
        return sample_percentiles(self.samples)

    def to_dict(self) -> dict:
        payload = {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "samples": list(self.samples),
        }
        if self.exemplar is not None:
            payload["exemplar"] = dict(self.exemplar)
        return payload


def sample_percentiles(
    samples: Optional[list[float]],
) -> Optional[dict[str, float]]:
    """Nearest-rank ``{"p50", "p95", "p99"}`` of a sample list."""
    if not samples:
        return None
    ordered = sorted(samples)
    last = len(ordered) - 1
    return {
        f"p{int(q * 100)}": ordered[min(last, int(round(q * last)))]
        for q in (0.50, 0.95, 0.99)
    }


Metric = Union[Counter, Gauge, Histogram]

_REGISTRY: dict[str, Metric] = {}


def _metric(name: str, factory) -> Metric:
    metric = _REGISTRY.get(name)
    if metric is None:
        metric = _REGISTRY[name] = factory()
    return metric


def counter(name: str) -> Counter:
    """The counter registered under ``name`` (created on first use)."""
    return _metric(name, Counter)  # type: ignore[return-value]


def gauge(name: str) -> Gauge:
    """The gauge registered under ``name`` (created on first use)."""
    return _metric(name, Gauge)  # type: ignore[return-value]


def histogram(name: str) -> Histogram:
    """The histogram registered under ``name`` (created on first use)."""
    return _metric(name, Histogram)  # type: ignore[return-value]


def incr(name: str, amount: Number = 1) -> None:
    """Increment the counter ``name`` by ``amount``."""
    counter(name).inc(amount)


def set_gauge(name: str, value: Number) -> None:
    """Set the gauge ``name`` to ``value``."""
    gauge(name).set(value)


def observe(
    name: str, value: Number, exemplar: Optional[str] = None
) -> None:
    """Record one observation into the histogram ``name`` (with an
    optional exemplar trace id)."""
    histogram(name).observe(value, exemplar=exemplar)


def counter_value(name: str) -> Number:
    """Current value of the counter ``name`` (0 if never touched)."""
    metric = _REGISTRY.get(name)
    return metric.value if isinstance(metric, Counter) else 0


#: Registry names of the collector metrics, indexed by generation.
_GC_METRICS = [
    (
        f"gc.pause_ms{{generation={generation}}}",
        f"gc.collections{{generation={generation}}}",
    )
    for generation in range(3)
]
_gc_started = 0.0


def _record_gc(phase: str, info: dict) -> None:
    """The :data:`gc.callbacks` hook: one pause and one count per
    collection.  Collections never nest and hold the GIL, so one start
    time serves every thread."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    pause, collections = _GC_METRICS[info["generation"]]
    observe(pause, (time.perf_counter() - _gc_started) * 1000.0)
    incr(collections)


gc.callbacks.append(_record_gc)


def reset_metrics() -> None:
    """Drop every registered metric (tests and worker hygiene)."""
    _REGISTRY.clear()


def metrics_snapshot() -> dict[str, dict]:
    """All metrics as a plain JSON-able ``{name: state}`` mapping."""
    return {
        name: _REGISTRY[name].to_dict() for name in sorted(_REGISTRY)
    }


def metrics_delta(before: dict[str, dict]) -> dict[str, dict]:
    """What changed since ``before`` (a prior :func:`metrics_snapshot`).

    Counters and histograms subtract component-wise; gauges report
    their current value whenever it differs.  Only changed metrics
    appear, so worker→parent payloads stay small.
    """
    delta: dict[str, dict] = {}
    for name, state in metrics_snapshot().items():
        previous = before.get(name)
        if state["type"] == "counter":
            base = previous["value"] if previous else 0
            if state["value"] != base:
                delta[name] = {
                    "type": "counter", "value": state["value"] - base
                }
        elif state["type"] == "gauge":
            if previous is None or state["value"] != previous["value"]:
                delta[name] = state
        else:  # histogram
            base_count = previous["count"] if previous else 0
            if state["count"] != base_count:
                # The reservoir is exact while total observations stay
                # under the cap, so ship only the samples recorded
                # since the snapshot; once replacement kicks in the
                # whole reservoir goes (an approximation, like any
                # bounded reservoir).
                samples = state.get("samples", [])
                if state["count"] <= SAMPLE_CAP:
                    samples = samples[min(base_count, SAMPLE_CAP):]
                delta[name] = {
                    "type": "histogram",
                    "count": state["count"] - base_count,
                    "sum": state["sum"] - (
                        previous["sum"] if previous else 0.0
                    ),
                    "min": state["min"],
                    "max": state["max"],
                    "samples": list(samples),
                }
                if state.get("exemplar") is not None:
                    delta[name]["exemplar"] = state["exemplar"]
    return delta


def merge_metrics(delta: dict[str, dict]) -> None:
    """Fold one worker's :func:`metrics_delta` into this registry."""
    for name, state in sorted(delta.items()):
        kind = state.get("type")
        if kind == "counter":
            counter(name).inc(state["value"])
        elif kind == "gauge":
            gauge(name).set(state["value"])
        elif kind == "histogram":
            target = histogram(name)
            target.count += state["count"]
            target.total += state["sum"]
            for value in state.get("samples", []):
                target._insert(float(value))
            if state.get("exemplar") is not None:
                target.exemplar = dict(state["exemplar"])
            for key, worse in (("minimum", min), ("maximum", max)):
                incoming = state["min" if key == "minimum" else "max"]
                if incoming is None:
                    continue
                current = getattr(target, key)
                setattr(
                    target,
                    key,
                    incoming if current is None else worse(
                        current, incoming
                    ),
                )


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


#: Section order of the ``repro stats`` table: counts first, then
#: point-in-time values, then distributions.
_TYPE_ORDER = {"counter": 0, "gauge": 1, "histogram": 2}


def render_metrics(snapshot: Optional[dict[str, dict]] = None) -> str:
    """Human-readable metrics table (the ``repro stats`` view).

    Rows are grouped by metric type (counters, then gauges, then
    histograms) and sorted by name within each group, so the table is
    byte-identical however the metrics were registered — serial runs,
    ``--jobs N`` worker merges, and cross-process ``absorb`` all
    render the same way.
    """
    if snapshot is None:
        snapshot = metrics_snapshot()
    if not snapshot:
        return "(no metrics recorded)"
    width = max(len(name) for name in snapshot)
    lines = [f"{'metric':{width}} {'type':9} value"]
    ordered = sorted(
        snapshot,
        key=lambda name: (
            _TYPE_ORDER.get(snapshot[name]["type"], len(_TYPE_ORDER)),
            name,
        ),
    )
    for name in ordered:
        state = snapshot[name]
        if state["type"] == "histogram":
            value = (
                f"count={state['count']} sum={_format_value(state['sum'])}"
                f" min={_format_value(state['min'])}"
            )
            quantiles = sample_percentiles(state.get("samples"))
            if quantiles:
                value += "".join(
                    f" {label}={_format_value(quantiles[label])}"
                    for label in ("p50", "p95", "p99")
                )
            value += f" max={_format_value(state['max'])}"
        else:
            value = _format_value(state["value"])
        lines.append(f"{name:{width}} {state['type']:9} {value}")
    return "\n".join(lines)


def _prom_name(name: str) -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


#: Registry names of the form ``base{key=value,key=value}`` are labeled
#: series of the ``base`` family (the convention the serving layer uses
#: for per-tenant and per-status metrics).
_LABELED_NAME = re.compile(r"^(?P<base>[^{}]+)\{(?P<labels>.*)\}$")


def _split_labels(name: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """``"a{k=v,k2=v2}"`` → ``("a", (("k", "v"), ("k2", "v2")))``."""
    match = _LABELED_NAME.match(name)
    if match is None:
        return name, ()
    labels = []
    for pair in match.group("labels").split(","):
        key, sep, value = pair.partition("=")
        if sep and key.strip():
            labels.append((key.strip(), value))
    return match.group("base"), tuple(labels)


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus text exposition format."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{re.sub(r"[^a-zA-Z0-9_]", "_", key)}='
        f'"{_escape_label_value(value)}"'
        for key, value in labels
    )
    return "{" + inner + "}"


def render_prometheus(snapshot: Optional[dict[str, dict]] = None) -> str:
    """Prometheus text-exposition rendering of a metrics snapshot.

    Each family gets ``# HELP`` and ``# TYPE`` lines followed by its
    series; registry names carrying a ``{key=value,...}`` suffix render
    as labeled series of one family with label values escaped per the
    exposition format.  Counters get the conventional ``_total`` suffix
    and histograms export as summaries (``_count``/``_sum``).
    """
    if snapshot is None:
        snapshot = metrics_snapshot()
    families: dict[tuple[str, str], list] = {}
    for name in sorted(snapshot):
        state = snapshot[name]
        base, labels = _split_labels(name)
        families.setdefault((base, state["type"]), []).append(
            (labels, state)
        )
    lines: list[str] = []
    for base, kind in sorted(families):
        prom = _prom_name(base)
        if kind == "counter":
            prom += "_total"
        prom_type = "summary" if kind == "histogram" else kind
        lines.append(f"# HELP {prom} {kind} {base}")
        lines.append(f"# TYPE {prom} {prom_type}")
        for labels, state in families[(base, kind)]:
            rendered = _render_labels(labels)
            if kind == "histogram":
                count_line = f"{prom}_count{rendered} {state['count']}"
                exemplar = state.get("exemplar")
                if exemplar:
                    # OpenMetrics-style exemplar: one recent
                    # observation pinned to its trace id, the
                    # metric→trace pivot for dashboards.
                    count_line += (
                        f' # {{trace_id="'
                        f'{_escape_label_value(str(exemplar["trace_id"]))}'
                        f'"}} {_format_value(exemplar["value"])}'
                    )
                lines.append(count_line)
                lines.append(
                    f"{prom}_sum{rendered} "
                    f"{_format_value(state['sum'])}"
                )
                quantiles = sample_percentiles(state.get("samples"))
                for fraction, label in (
                    ("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")
                ):
                    if quantiles:
                        quantile_labels = labels + (
                            ("quantile", fraction),
                        )
                        lines.append(
                            f"{prom}{_render_labels(quantile_labels)} "
                            f"{_format_value(quantiles[label])}"
                        )
            else:
                lines.append(
                    f"{prom}{rendered} {_format_value(state['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
