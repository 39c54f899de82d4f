"""Zero-dependency asyncio HTTP/1.1 transport for the daemon.

A deliberately small HTTP server — request line, headers,
``Content-Length`` bodies, keep-alive — built directly on
``asyncio.start_server`` so the daemon needs nothing outside the
standard library.  All semantics live in :class:`ServeApp`; this module
only moves bytes and owns the shutdown choreography:

* **SIGTERM/SIGINT** → the app begins draining (new analyze requests
  get 503, the listener closes) while every accepted request runs to
  completion; the process exits once in-flight work is done (bounded
  by ``drain_timeout_s``).
* Responses sent while draining carry ``Connection: close`` so
  keep-alive clients fall off naturally; stragglers are closed after
  the drain completes.

:func:`start_in_thread` runs the same server on a background thread —
the harness tests, benchmarks, and example clients use it to get a
real socket without a subprocess.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs import diag, incr, new_trace_id
from repro.serve.app import Response, ServeApp, ServeConfig, status_text

#: Reading limits: a request head (line + headers) beyond this is junk.
MAX_HEAD_BYTES = 32 * 1024

#: How long shutdown waits for in-flight requests before giving up.
DEFAULT_DRAIN_TIMEOUT_S = 30.0


class _BadRequest(Exception):
    """Unparseable request head (connection-fatal)."""


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[tuple[str, str, dict[str, str]]]:
    """Parse one request head; None on clean EOF before a request."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise _BadRequest("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _BadRequest("request head too large") from None
    if len(head) > MAX_HEAD_BYTES:
        raise _BadRequest("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(f"malformed request line {lines[0]!r}")
    method, path, _ = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers


def _encode_response(
    response: Response, close: bool
) -> bytes:
    head = [
        f"HTTP/1.1 {response.status} {status_text(response.status)}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
    ]
    headers = dict(response.headers)
    if close:
        headers.setdefault("Connection", "close")
    else:
        headers.setdefault("Connection", "keep-alive")
    head.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body


async def _handle_connection(
    app: ServeApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    connections: set[asyncio.StreamWriter],
) -> None:
    connections.add(writer)
    try:
        while True:
            try:
                head = await _read_head(reader)
            except _BadRequest as error:
                incr("serve.bad_requests")
                # Even an unparseable request gets a trace id, so the
                # rejection correlates with the access log.
                trace_id = new_trace_id()
                diag(app.access_log.log({
                    "trace_id": trace_id,
                    "method": None,
                    "path": None,
                    "status": 400,
                    "error": str(error),
                }))
                writer.write(
                    _encode_response(
                        Response(
                            400,
                            (
                                b'{"error": "' +
                                str(error).encode("utf-8") +
                                b'", "trace_id": "' +
                                trace_id.encode("ascii") + b'"}\n'
                            ),
                            headers={"X-Repro-Trace-Id": trace_id},
                        ),
                        close=True,
                    )
                )
                await writer.drain()
                return
            if head is None:
                return
            method, path, headers = head
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if length < 0 or length > app.config.max_body_bytes:
                response = Response(
                    413,
                    b'{"error": "request body too large or malformed"}\n',
                )
                writer.write(_encode_response(response, close=True))
                await writer.drain()
                return
            body = (
                await reader.readexactly(length) if length else b""
            )
            response = await app.handle(method, path, headers, body)
            close = (
                app.draining
                or headers.get("connection", "").lower() == "close"
                or response.headers.get("Connection", "").lower()
                == "close"
            )
            writer.write(_encode_response(response, close))
            await writer.drain()
            if close:
                return
    except (
        asyncio.IncompleteReadError,
        ConnectionResetError,
        BrokenPipeError,
    ):
        return
    finally:
        connections.discard(writer)
        with contextlib.suppress(Exception):
            writer.close()


async def run_server(
    app: ServeApp,
    *,
    stop: Optional[asyncio.Event] = None,
    install_signals: bool = False,
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    on_ready: Optional[Callable[[str, int], None]] = None,
) -> bool:
    """Serve until ``stop`` is set (or a signal arrives); returns
    whether the final drain completed with no in-flight work left."""
    loop = asyncio.get_running_loop()
    app.bind_loop(loop)
    stop = stop or asyncio.Event()
    connections: set[asyncio.StreamWriter] = set()

    async def handler(reader, writer):
        await _handle_connection(app, reader, writer, connections)

    server = await asyncio.start_server(
        handler, app.config.host, app.config.port
    )
    host, port = server.sockets[0].getsockname()[:2]
    app.config.port = port  # resolve port 0 to the bound port
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
    if on_ready is not None:
        on_ready(host, port)
    await stop.wait()

    # Drain: refuse new analyze work, stop accepting connections, let
    # everything already accepted run to completion.
    app.begin_drain()
    server.close()
    await server.wait_closed()
    drained = await app.wait_drained(timeout=drain_timeout_s)
    # One extra loop tick so final responses flush before teardown.
    await asyncio.sleep(0)
    for writer in list(connections):
        with contextlib.suppress(Exception):
            writer.close()
    if not drained:
        diag(
            f"repro serve: drain timed out with {app.inflight} "
            "requests in flight"
        )
    return drained


def serve_forever(config: ServeConfig) -> int:
    """Blocking entry point behind ``repro serve``; returns the exit
    status (0 on a clean drain)."""
    from repro.obs import ledger

    # The pooled heap is acyclic (the pool detaches what it drops and
    # rejected sources free by refcount), so a full collection walks
    # every pooled session and finds nothing there to free; CPython's
    # oldest threshold would run one at a steady rate once the heap
    # stops growing.  Raise only that one: larger young thresholds make
    # each young pass dearer.  Not higher than 100, since attribution
    # requests still leave cycles behind (the compiled machine and the
    # classes its code generator defines).
    young, middle, _ = gc.get_threshold()
    gc.set_threshold(young, middle, 100)
    app = ServeApp(config)
    app.started_at = ledger.now_iso()

    def announce(host: str, port: int) -> None:
        # The ready line goes to stdout (and flushes) so wrappers and
        # the CI smoke job can wait for it; everything else is diag.
        print(f"serving on http://{host}:{port}", flush=True)
        diag(
            f"repro serve: workers={config.workers} "
            f"max-inflight={config.max_inflight}"
        )
        if app.access_log.directory:
            diag(
                "repro serve: access log in "
                f"{app.access_log.directory}"
            )

    try:
        drained = asyncio.run(
            run_server(app, install_signals=True, on_ready=announce)
        )
    finally:
        app.close()
    diag("repro serve: shut down cleanly" if drained else
         "repro serve: shut down with undrained requests")
    return 0 if drained else 1


@dataclass
class RunningServer:
    """Handle on a server running on a background thread."""

    app: ServeApp
    host: str
    port: int
    _thread: threading.Thread
    _loop: asyncio.AbstractEventLoop
    _stop: asyncio.Event
    _box: dict

    @property
    def drained(self) -> Optional[bool]:
        """Drain verdict after shutdown (None while still serving)."""
        return self._box.get("drained")

    def shutdown(self, timeout: float = 30.0) -> bool:
        """Trigger the drain and join the server thread."""
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)
        self.app.close()
        return not self._thread.is_alive()


def start_in_thread(
    config: Optional[ServeConfig] = None,
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
) -> RunningServer:
    """Run the daemon on a daemon thread; returns once it accepts
    connections.  Tests and benchmarks use this to exercise the real
    socket path in-process (port 0 picks a free port)."""
    config = config or ServeConfig(port=0)
    app = ServeApp(config)
    ready = threading.Event()
    box: dict = {}

    def main() -> None:
        async def body() -> None:
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            box["loop"] = loop
            box["stop"] = stop

            def on_ready(host: str, port: int) -> None:
                box["host"] = host
                box["port"] = port
                ready.set()

            box["drained"] = await run_server(
                app,
                stop=stop,
                drain_timeout_s=drain_timeout_s,
                on_ready=on_ready,
            )

        try:
            asyncio.run(body())
        except BaseException as error:  # pragma: no cover - diagnostics
            box["error"] = error
            ready.set()
            raise

    thread = threading.Thread(
        target=main, name="repro-serve", daemon=True
    )
    thread.start()
    ready.wait(timeout=30.0)
    if "error" in box:
        raise RuntimeError(
            f"server failed to start: {box['error']!r}"
        )
    if "port" not in box:
        raise RuntimeError("server did not become ready in 30s")
    return RunningServer(
        app=app,
        host=box["host"],
        port=box["port"],
        _thread=thread,
        _loop=box["loop"],
        _stop=box["stop"],
        _box=box,
    )
