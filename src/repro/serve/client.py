"""Blocking client for the analysis daemon (stdlib ``http.client``).

Used two ways: by the serving tests (drive the real socket path) and
by the CI smoke job (``scripts/serve_smoke.py``).  Nothing here
depends on the server internals — it is an ordinary HTTP client any
consumer could write.

Trace propagation: pass ``traceparent=`` per call (or set a client
default) and the daemon joins that W3C trace instead of minting a
fresh id; every response exposes the server-assigned identity as
:attr:`ServeResponse.trace_id`.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs import format_traceparent, parse_traceparent


@dataclass
class ServeResponse:
    """One HTTP exchange: status, parsed JSON (when JSON), raw text."""

    status: int
    payload: Optional[dict]
    text: str
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def trace_id(self) -> Optional[str]:
        """The request's trace id as echoed by the daemon."""
        parsed = parse_traceparent(self.headers.get("traceparent", ""))
        if parsed is not None:
            return parsed[0]
        return self.headers.get("x-repro-trace-id")


class ServeClient:
    """A small synchronous client; one connection per request by
    default (``keep_alive=True`` reuses a single connection — not
    thread-safe in that mode)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        tenant: Optional[str] = None,
        keep_alive: bool = False,
        traceparent: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.tenant = tenant
        self.keep_alive = keep_alive
        #: Default ``traceparent`` sent with every request (callers
        #: joining an existing distributed trace).
        self.traceparent = traceparent
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict[str, str]] = None,
    ) -> ServeResponse:
        send_headers = dict(headers or {})
        if self.tenant:
            send_headers.setdefault("X-Repro-Tenant", self.tenant)
        if self.traceparent:
            send_headers.setdefault("traceparent", self.traceparent)
        if not self.keep_alive:
            send_headers.setdefault("Connection", "close")
        connection = self._connection
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            connection.request(
                method, path, body=body, headers=send_headers
            )
            raw = connection.getresponse()
            text = raw.read().decode("utf-8", "replace")
            status = raw.status
            response_headers = {
                name.lower(): value
                for name, value in raw.getheaders()
            }
        finally:
            if self.keep_alive:
                self._connection = connection
            else:
                connection.close()
        payload: Optional[dict] = None
        try:
            decoded = json.loads(text)
            if isinstance(decoded, dict):
                payload = decoded
        except ValueError:
            payload = None
        return ServeResponse(status, payload, text, response_headers)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # ------------------------------------------------------------------
    # Endpoints.

    def analyze(
        self,
        source: str,
        name: Optional[str] = None,
        estimators: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        attribution: Optional[bool] = None,
        extra: Optional[dict] = None,
        traceparent: Optional[str] = None,
    ) -> ServeResponse:
        """``POST /v1/analyze`` for one source text."""
        payload: dict = {"source": source}
        if name is not None:
            payload["name"] = name
        if estimators is not None:
            payload["estimators"] = list(estimators)
        if backend is not None:
            payload["backend"] = backend
        if attribution is not None:
            payload["attribution"] = attribution
        if extra:
            payload.update(extra)
        headers = {"Content-Type": "application/json"}
        if traceparent is not None:
            headers["traceparent"] = traceparent
        return self._request(
            "POST",
            "/v1/analyze",
            body=json.dumps(payload).encode("utf-8"),
            headers=headers,
        )

    def healthz(self) -> ServeResponse:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw Prometheus exposition text."""
        return self._request("GET", "/metrics").text

    def traces(
        self,
        limit: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> ServeResponse:
        """``GET /debug/traces`` (``kind="errors"`` for failures)."""
        query = []
        if limit:
            query.append(f"limit={int(limit)}")
        if kind:
            query.append(f"kind={kind}")
        path = "/debug/traces" + (
            "?" + "&".join(query) if query else ""
        )
        return self._request("GET", path)

    def slow(self, limit: Optional[int] = None) -> ServeResponse:
        """``GET /debug/slow`` — slowest retained request traces."""
        path = "/debug/slow" + (f"?limit={int(limit)}" if limit else "")
        return self._request("GET", path)

    def profile(
        self,
        seconds: float = 2.0,
        interval_ms: float = 5.0,
        format: Optional[str] = None,
    ) -> ServeResponse:
        """``GET /debug/profile`` — sample the daemon for
        ``seconds``; the body is a flamegraph SVG (or collapsed
        stacks with ``format="collapsed"``)."""
        path = (
            f"/debug/profile?seconds={seconds:g}"
            f"&interval_ms={interval_ms:g}"
        )
        if format:
            path += f"&format={format}"
        return self._request("GET", path)

    def wait_ready(self, timeout: float = 30.0) -> dict:
        """Poll ``/healthz`` until the daemon answers; returns the
        payload (raises ``TimeoutError`` otherwise)."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                response = self.healthz()
                if response.status == 200 and response.payload:
                    return response.payload
            except OSError as error:
                last_error = error
            time.sleep(0.05)
        raise TimeoutError(
            f"daemon at {self.host}:{self.port} not ready in "
            f"{timeout}s (last error: {last_error!r})"
        )
