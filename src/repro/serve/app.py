"""Transport-independent core of the analysis daemon.

:class:`ServeApp` owns everything between the HTTP socket and the
estimator pipeline: the sharded session pool, the single-flight
scheduler, inflight accounting and backpressure, per-tenant metrics,
the drain state machine, and the optional end-of-life ledger record.
The HTTP layer (:mod:`repro.serve.http`) only parses bytes and calls
:meth:`ServeApp.handle`; tests can drive the app directly.

Request lifecycle for ``POST /v1/analyze``:

1. a trace id is minted (or adopted from an incoming W3C
   ``traceparent`` header) and a request-scoped span buffer opens, so
   the request records a full span tree even with process tracing off;
2. draining? → 503 (new work refused while in-flight work completes);
3. at ``max_inflight``? → 429 with ``Retry-After`` (backpressure);
4. body parsed and validated → 400 with a structured error on any
   malformed shape, including :meth:`FrontendError.diagnostic` as
   ``{error, file, line, col, trace_id}`` for rejected source;
5. the request goes straight to a worker thread, where it runs
   against the session pool, unless an identical request is already
   in flight, whose result it then shares; either way it must finish
   inside ``request_timeout_s`` → 504 otherwise;
6. the response carries ``traceparent`` + ``X-Repro-Trace-Id``; the
   completed trace lands in the flight recorder
   (:mod:`repro.obs.flight`), one JSON access-log line is emitted,
   and RED metrics — per-tenant request counters,
   ``serve.errors{class=4xx|5xx}``, and a latency histogram with
   exemplar trace ids — land in the :mod:`repro.obs` registry,
   scraped live by ``GET /metrics``.

Debug surface: ``GET /debug/traces`` (recent / error traces),
``GET /debug/slow`` (slowest retained traces, full span trees), and
``GET /debug/profile?seconds=N`` (on-demand flamegraph SVG from the
sampling profiler).
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import repro
from repro.frontend.errors import FrontendError
from repro.obs import (
    diag,
    format_traceparent,
    incr,
    metrics_snapshot,
    new_span_id,
    new_trace_id,
    observe,
    parse_traceparent,
    render_prometheus,
    request_buffer,
    set_gauge,
    span,
)
from repro.obs.flight import AccessLog, FlightRecorder, build_record
from repro.serve.pool import SessionPool
from repro.serve.report import (
    RequestError,
    build_report,
    content_hash,
    validate_request,
)
from repro.serve.scheduler import SingleFlight

#: Upper bound on accepted request bodies (sources beyond this are
#: not programs anyone analyzes interactively).
DEFAULT_MAX_BODY = 2 * 1024 * 1024


@dataclass
class ServeConfig:
    """Everything ``repro serve`` lets the operator tune."""

    host: str = "127.0.0.1"
    port: int = 8787
    workers: int = 4
    max_inflight: int = 128
    request_timeout_s: float = 30.0
    max_body_bytes: int = DEFAULT_MAX_BODY
    #: Record the serving run (uptime, traffic counters) in the ledger
    #: on shutdown.
    record: bool = False
    #: Directory for the rotated on-disk access log (None: stderr
    #: only; also settable via ``REPRO_ACCESS_LOG_DIR``).
    access_log_dir: Optional[str] = None


@dataclass
class Response:
    """One HTTP response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def status_text(status: int) -> str:
    """Reason phrase for the status line."""
    return _STATUS_TEXT.get(status, "Unknown")


def _json_response(status: int, payload: object, **headers: str) -> Response:
    body = (
        json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    )
    return Response(status, body, headers=dict(headers))


_TENANT_RE = re.compile(r"[^A-Za-z0-9_.-]")


def tenant_label(headers: dict[str, str]) -> str:
    """The metrics label for one request's tenant.

    ``X-Repro-Tenant`` sanitized to a safe charset and bounded length;
    absent or empty headers map to ``anon``.
    """
    raw = headers.get("x-repro-tenant", "").strip()
    if not raw:
        return "anon"
    return _TENANT_RE.sub("_", raw)[:32]


class _RequestTrace:
    """Per-request trace identity plus outcome fields the analyze
    handler fills in for the flight record / access log."""

    __slots__ = (
        "trace_id", "request_id", "name", "cache", "error", "timeout"
    )

    def __init__(self, trace_id: str, request_id: str) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.name: Optional[str] = None
        self.cache: Optional[str] = None
        self.error: Optional[str] = None
        self.timeout = False


class ServeApp:
    """The daemon's request broker (one instance per server)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.pool = SessionPool()
        self.flight = FlightRecorder()
        self.access_log = AccessLog(
            directory=self.config.access_log_dir
        )
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        self.draining = False
        self.inflight = 0
        self.started_monotonic = time.monotonic()
        self.started_at: Optional[str] = None
        self._metrics_before = metrics_snapshot()
        self._flights: Optional[SingleFlight] = None
        self._idle: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Event-loop binding (the app is constructed before the loop runs).

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the scheduler and drain event to the serving loop."""
        self._flights = SingleFlight(loop, self.executor)
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Routing.

    async def handle(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> Response:
        """Dispatch one parsed request to its route.

        Every request runs inside a request-scoped trace buffer: the
        span tree it produces feeds the flight recorder and the
        access log, the response echoes the trace identity
        (``traceparent`` + ``X-Repro-Trace-Id``), and RED metrics
        record rate, errors, and duration with exemplar trace ids.
        """
        tenant = tenant_label(headers)
        route, _, query = path.partition("?")
        params = dict(urllib.parse.parse_qsl(query))
        incoming = parse_traceparent(headers.get("traceparent", ""))
        trace_id = incoming[0] if incoming else new_trace_id()
        rtx = _RequestTrace(trace_id, new_span_id())
        with request_buffer(trace_id) as buffer:
            with span(
                "serve.request",
                path=route,
                tenant=tenant,
                request_id=rtx.request_id,
            ) as request_span:
                if incoming:
                    request_span.set(parent_id=incoming[1])
                if route == "/healthz" and method == "GET":
                    response = self._handle_healthz()
                elif route == "/metrics" and method == "GET":
                    response = self._handle_metrics()
                elif route == "/debug/traces" and method == "GET":
                    response = self._handle_traces(params, slow=False)
                elif route == "/debug/slow" and method == "GET":
                    response = self._handle_traces(params, slow=True)
                elif route == "/debug/profile" and method == "GET":
                    response = await self._handle_profile(params)
                elif route == "/v1/analyze":
                    if method != "POST":
                        response = _json_response(
                            405, {"error": "use POST"}, Allow="POST"
                        )
                    else:
                        response = await self._handle_analyze(
                            headers, body, rtx
                        )
                else:
                    response = _json_response(
                        404, {"error": f"no route {route!r}"}
                    )
        # Inside a request buffer the span is always real: its duration
        # is the request latency the log, the record and the histogram
        # report.
        elapsed_ms = request_span.seconds * 1000.0
        status = response.status
        incr(f"serve.responses{{code={status},tenant={tenant}}}")
        if status >= 500:
            incr("serve.errors{class=5xx}")
        elif status >= 400:
            incr("serve.errors{class=4xx}")
        observe(
            f"serve.latency_ms{{tenant={tenant}}}",
            elapsed_ms,
            exemplar=trace_id,
        )
        response.headers.setdefault(
            "traceparent",
            format_traceparent(trace_id, rtx.request_id),
        )
        response.headers.setdefault("X-Repro-Trace-Id", trace_id)
        record = build_record(
            trace_id=trace_id,
            request_id=rtx.request_id,
            method=method,
            path=route,
            tenant=tenant,
            status=status,
            elapsed_ms=elapsed_ms,
            spans=[root.to_dict() for root in buffer.roots],
            name=rtx.name,
            cache=rtx.cache,
            error=rtx.error,
            timeout=rtx.timeout,
        )
        if route == "/v1/analyze" and method == "POST":
            self.flight.record(record)
        entry = {
            key: value
            for key, value in record.items()
            if key != "spans"
        }
        diag(self.access_log.log(entry))
        return response

    # ------------------------------------------------------------------
    # Routes.

    def _handle_healthz(self) -> Response:
        return _json_response(
            200,
            {
                "status": "draining" if self.draining else "ok",
                "version": repro.__version__,
                "inflight": self.inflight,
                "uptime_s": round(
                    time.monotonic() - self.started_monotonic, 3
                ),
                "pool": self.pool.stats(),
                "workers": self.config.workers,
                "max_inflight": self.config.max_inflight,
            },
        )

    def _handle_metrics(self) -> Response:
        self.refresh_gauges()
        text = render_prometheus(metrics_snapshot())
        return Response(
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _handle_traces(
        self, params: dict[str, str], slow: bool
    ) -> Response:
        try:
            limit = int(params.get("limit", "0")) or None
        except ValueError:
            limit = None
        if limit is not None and limit < 0:
            return _json_response(
                400, {"error": "limit must not be negative"}
            )
        if slow:
            records = self.flight.slow(limit)
        elif params.get("kind") == "errors":
            records = self.flight.errors(limit)
        else:
            records = self.flight.traces(limit)
        return _json_response(
            200, {"traces": records, "stats": self.flight.stats()}
        )

    async def _handle_profile(self, params: dict[str, str]) -> Response:
        from repro.obs.profiler import SamplingProfiler

        try:
            seconds = float(params.get("seconds", "2"))
            interval_ms = float(params.get("interval_ms", "5"))
        except ValueError:
            seconds = interval_ms = math.nan
        # NaN passes the min/max clamps unchanged, and sleeping for NaN
        # leaves an unordered deadline in the event loop's timer heap.
        if not (math.isfinite(seconds) and math.isfinite(interval_ms)):
            return _json_response(
                400,
                {"error": "seconds and interval_ms must be finite numbers"},
            )
        seconds = min(max(seconds, 0.05), 60.0)
        interval_ms = min(max(interval_ms, 1.0), 100.0)
        include_idle = params.get("idle", "").lower() in {
            "1", "yes", "on", "true"
        }
        profiler = SamplingProfiler(
            interval_ms=interval_ms, include_idle=include_idle
        )
        profiler.start()
        try:
            await asyncio.sleep(seconds)
        finally:
            profiler.stop()
        if params.get("format") == "collapsed":
            return Response(
                200,
                profiler.collapsed_text().encode("utf-8"),
                content_type="text/plain; charset=utf-8",
            )
        svg = profiler.flamegraph_svg(
            title=(
                f"repro serve — {seconds:g}s at {interval_ms:g}ms"
            )
        )
        return Response(
            200, svg.encode("utf-8"), content_type="image/svg+xml"
        )

    async def _handle_analyze(
        self,
        headers: dict[str, str],
        body: bytes,
        rtx: _RequestTrace,
    ) -> Response:
        trace_id = rtx.trace_id
        if self.draining:
            incr("serve.refused.draining")
            rtx.error = "draining"
            return _json_response(
                503,
                {"error": "server is draining", "trace_id": trace_id},
                **{"Retry-After": "5", "Connection": "close"},
            )
        if self.inflight >= self.config.max_inflight:
            incr("serve.refused.backpressure")
            rtx.error = "backpressure"
            return _json_response(
                429,
                {
                    "error": (
                        "too many in-flight requests "
                        f"(limit {self.config.max_inflight})"
                    ),
                    "trace_id": trace_id,
                },
                **{"Retry-After": "1"},
            )
        if len(body) > self.config.max_body_bytes:
            rtx.error = "body too large"
            return _json_response(
                413,
                {
                    "error": (
                        f"body exceeds {self.config.max_body_bytes} bytes"
                    ),
                    "trace_id": trace_id,
                },
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            rtx.error = "invalid JSON"
            return _json_response(
                400,
                {
                    "error": "request body is not valid JSON",
                    "trace_id": trace_id,
                },
            )
        try:
            request = validate_request(payload)
        except RequestError as error:
            rtx.error = str(error)
            return _json_response(
                400, {"error": str(error), "trace_id": trace_id}
            )

        rtx.name = request["name"]
        self.inflight += 1
        if self._idle is not None:
            self._idle.clear()
        clock = time.perf_counter()
        try:
            key = (
                content_hash(request["source"]),
                tuple(request["estimators"]),
                request["backend"],
                request["attribution"],
            )
            assert self._flights is not None, "bind_loop() not called"
            report, was_hit = await asyncio.wait_for(
                self._flights.submit(
                    key, lambda: self._analyze(request)
                ),
                timeout=self.config.request_timeout_s,
            )
        except asyncio.TimeoutError:
            incr("serve.timeouts")
            rtx.timeout = True
            rtx.error = "timeout"
            return _json_response(
                504,
                {
                    "error": (
                        "analysis exceeded "
                        f"{self.config.request_timeout_s}s"
                    ),
                    "trace_id": trace_id,
                },
            )
        except FrontendError as error:
            incr("serve.frontend_errors")
            rtx.error = str(error)
            diagnostic = error.diagnostic_dict()
            diagnostic["trace_id"] = trace_id
            # The traceback runs through this frame, ``wait_for``'s and
            # the parser's, and the future holding the error: a cycle
            # that would keep the partial parse alive until a full
            # collection.
            error.__traceback__ = None
            return _json_response(400, diagnostic)
        except Exception as error:  # noqa: BLE001 - boundary
            incr("serve.errors")
            rtx.error = repr(error)
            diag(
                f"repro serve: internal error: {error!r} "
                f"(trace {trace_id})"
            )
            return _json_response(
                500,
                {"error": "internal error", "trace_id": trace_id},
            )
        finally:
            self.inflight -= 1
            if self.inflight == 0 and self._idle is not None:
                self._idle.set()
        rtx.cache = "hit" if was_hit else "miss"
        # The ``server`` block is the only part of the payload that is
        # not a pure function of (source, options): equivalence tests
        # strip exactly this key.
        body_payload = dict(report)
        body_payload["server"] = {
            "cache": "hit" if was_hit else "miss",
            "elapsed_ms": round(
                (time.perf_counter() - clock) * 1000.0, 3
            ),
            "trace_id": trace_id,
        }
        return _json_response(200, body_payload)

    # ------------------------------------------------------------------
    # The worker-thread computation.

    def _analyze(self, request: dict) -> tuple[dict, bool]:
        with span(
            "serve.analyze",
            program=request["name"],
            backend=request["backend"],
        ) as analyze_span:
            session, was_hit = self.pool.get(
                request["source"], request["name"]
            )
            analyze_span.set(pool="hit" if was_hit else "miss")
            report = build_report(
                session,
                estimators=request["estimators"],
                backend=request["backend"],
                attribution=request["attribution"],
                name=request["name"],
            )
        return report, was_hit

    # ------------------------------------------------------------------
    # Gauges, drain, shutdown.

    def refresh_gauges(self) -> None:
        """Point-in-time serving gauges (scrape/healthz freshness)."""
        stats = self.pool.stats()
        set_gauge("serve.pool.entries", stats["entries"])
        set_gauge("serve.pool.bytes", stats["bytes"])
        set_gauge("serve.inflight", self.inflight)
        set_gauge(
            "serve.uptime_seconds",
            round(time.monotonic() - self.started_monotonic, 3),
        )
        set_gauge("serve.draining", 1 if self.draining else 0)
        flight = self.flight.stats()
        set_gauge("serve.flight.recorded", flight["recorded"])
        set_gauge("serve.flight.errors", flight["errors"])
        set_gauge("serve.flight.slowest_ms", flight["slowest_ms"])

    def begin_drain(self) -> None:
        """Stop accepting analyze work; in-flight requests complete."""
        if not self.draining:
            self.draining = True
            incr("serve.drains")

    async def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Wait for in-flight work to finish; True when fully drained."""
        if self._idle is None or self.inflight == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def close(self) -> None:
        """Tear down workers and optionally record the serving run."""
        self.executor.shutdown(wait=True)
        self.access_log.close()
        if self.config.record:
            self._record_run()

    def _record_run(self) -> None:
        from repro.obs import ledger, metrics_delta

        delta = metrics_delta(self._metrics_before)
        counters = ledger.counter_values(delta)
        requests = sum(
            value
            for name, value in counters.items()
            if name.startswith("serve.responses{")
        )
        ledger.record_run(
            "serve",
            label=f"{self.config.host}:{self.config.port}",
            started_at=self.started_at,
            jobs=self.config.workers,
            scores={
                "serve": {
                    "requests": requests,
                    "pool_hits": counters.get("serve.pool.hits", 0.0),
                    "pool_misses": counters.get(
                        "serve.pool.misses", 0.0
                    ),
                }
            },
            stages={
                "serve.uptime": time.monotonic()
                - self.started_monotonic
            },
            counters=counters,
        )
