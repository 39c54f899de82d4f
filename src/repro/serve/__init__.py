"""Estimation-as-a-service: the ``repro serve`` analysis daemon.

A zero-dependency asyncio HTTP/JSON server that turns the batch CLI's
estimator pipeline into a long-lived, multi-tenant service:

* :mod:`repro.serve.report` — the analyze report (block/function
  frequencies, rankings, branch predictions, optional attribution),
  a pure function of an :class:`~repro.analysis.session
  .AnalysisSession` so the HTTP surface can never drift from the CLI;
* :mod:`repro.serve.pool` — sharded in-memory LRU of warmed sessions
  keyed by content hash, in front of the on-disk caches;
* :mod:`repro.serve.scheduler` — single-flight dispatch: identical
  requests that arrive while one is running share its computation;
* :mod:`repro.serve.app` — routing, backpressure (429), timeouts
  (504), drain (503), per-tenant metrics, ledger recording;
* :mod:`repro.serve.http` — the asyncio transport and the SIGTERM
  drain choreography (plus :func:`start_in_thread` for tests);
* :mod:`repro.serve.client` — a stdlib blocking client used by the
  tests and the CI smoke job.

Endpoints: ``POST /v1/analyze``, ``GET /healthz``, ``GET /metrics``
(live Prometheus text over the :mod:`repro.obs` registry),
``GET /debug/traces`` / ``GET /debug/slow`` (the tail-sampled flight
recorder, :mod:`repro.obs.flight`), and ``GET /debug/profile``
(on-demand flamegraphs from :mod:`repro.obs.profiler`).  Every
request carries a W3C ``traceparent`` trace identity end to end.
"""

from __future__ import annotations

from repro.serve.app import Response, ServeApp, ServeConfig, tenant_label
from repro.serve.client import ServeClient, ServeResponse
from repro.serve.http import (
    RunningServer,
    run_server,
    serve_forever,
    start_in_thread,
)
from repro.serve.pool import SessionPool
from repro.serve.report import (
    DEFAULT_BACKEND,
    DEFAULT_ESTIMATORS,
    INTER_BACKENDS,
    RequestError,
    build_report,
    content_hash,
    prediction_lines,
    validate_request,
)
from repro.serve.scheduler import SingleFlight

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_ESTIMATORS",
    "INTER_BACKENDS",
    "RequestError",
    "Response",
    "RunningServer",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServeResponse",
    "SessionPool",
    "SingleFlight",
    "build_report",
    "content_hash",
    "prediction_lines",
    "run_server",
    "serve_forever",
    "start_in_thread",
    "tenant_label",
    "validate_request",
]
