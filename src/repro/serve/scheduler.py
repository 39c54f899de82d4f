"""Single-flight request dispatch for the analysis daemon.

The first analyze request for a key — (content hash, estimators,
backend, attribution) — sends its computation to the worker threads at
once.  Identical requests that arrive while that computation runs
await the same result instead of starting a second copy (counted as
``serve.batch.coalesced``); under a thundering herd of identical
sources the pipeline runs once per flight, not once per request.  The
entry leaves the in-flight map when the job finishes or fails, so the
next identical request computes again (the session pool makes that
cheap).

The scheduler is transport-agnostic: callers ``await submit(key,
thunk)`` where ``thunk`` is the synchronous computation to run on a
worker thread.  Cancellation of one waiter never cancels the shared
computation (other waiters may be parked on it), and a job whose
waiters have all timed out stays in the map until it settles, so
identical requests join it rather than start another.

Tracing: ``loop.run_in_executor`` does **not** carry contextvars onto
the worker thread, so each job captures ``contextvars.copy_context()``
at submit time and runs inside it.  The copied context holds the
submitting request's span and trace buffer, so the worker-side
``serve.batch`` span (and everything the pipeline opens beneath it)
parents under that request's ``serve.request`` span.  Requests that
*coalesce* onto an existing job run in the owner's context; their own
request spans instead carry ``coalesced=True`` plus
``link_trace``/``link_job`` attributes pointing at the owner's trace
and the shared job id — a span link, not a parent edge.

Histograms, both observed on the loop thread when a job settles:
``serve.batch.requests`` (waiters per job) and
``serve.batch.queue_wait_ms`` (submit until a worker thread starts the
job, which includes any wait for a free thread; also recorded on every
``serve.batch`` span).  The ``serve.batch`` names predate single-flight
dispatch and are kept because the repository benchmark reads them from
``/metrics``.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from typing import Awaitable, Callable, Hashable

from repro.obs import (
    current_span,
    current_trace_id,
    incr,
    new_span_id,
    observe,
    span,
)


class _Flight:
    """One running computation and everyone waiting on it."""

    __slots__ = (
        "thunk", "waiters", "submitted", "waited_ms", "trace_id", "job_id"
    )

    def __init__(
        self, thunk: Callable[[], object], waiter: asyncio.Future
    ) -> None:
        self.thunk = thunk
        self.waiters: list[asyncio.Future] = [waiter]
        self.submitted = time.perf_counter()
        self.waited_ms = 0.0
        self.trace_id = current_trace_id()
        #: Shared computation id: coalesced requests link to it.
        self.job_id = new_span_id()

    def run(self) -> object:
        """The worker-thread body, run inside the submitter's context."""
        self.waited_ms = (time.perf_counter() - self.submitted) * 1000.0
        with span(
            "serve.batch",
            job=self.job_id,
            queue_wait_ms=round(self.waited_ms, 3),
        ):
            return self.thunk()


class SingleFlight:
    """Coalesce identical in-flight computations over a thread executor.

    :meth:`submit` and the jobs' done-callbacks both run on the event
    loop's thread, so the in-flight map needs no lock.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, executor) -> None:
        self._loop = loop
        self._executor = executor
        self._inflight: dict[Hashable, _Flight] = {}

    def submit(
        self, key: Hashable, thunk: Callable[[], object]
    ) -> Awaitable[object]:
        """Run ``thunk()`` on a worker, or join the run already in
        flight for ``key``; resolves with its result.

        Returns a future the caller awaits (wrap in
        ``asyncio.wait_for`` for per-request timeouts; the shared
        computation itself is never cancelled).
        """
        waiter: asyncio.Future = self._loop.create_future()
        flight = self._inflight.get(key)
        if flight is not None:
            flight.waiters.append(waiter)
            incr("serve.batch.coalesced")
            current_span().set(
                coalesced=True,
                link_trace=flight.trace_id,
                link_job=flight.job_id,
            )
        else:
            flight = _Flight(thunk, waiter)
            current_span().set(link_job=flight.job_id)
            task = self._loop.run_in_executor(
                self._executor, contextvars.copy_context().run, flight.run
            )
            task.add_done_callback(
                lambda done: self._settle(key, flight, done)
            )
            self._inflight[key] = flight
        # A timed-out request cancels only this shield, never the
        # waiter the job resolves.
        return asyncio.shield(waiter)

    def _settle(
        self, key: Hashable, flight: _Flight, done: asyncio.Future
    ) -> None:
        del self._inflight[key]
        observe("serve.batch.queue_wait_ms", flight.waited_ms)
        observe("serve.batch.requests", len(flight.waiters))
        error = done.exception()
        for waiter in flight.waiters:
            if error is not None:
                waiter.set_exception(error)
            else:
                waiter.set_result(done.result())
        # A failed job's traceback holds the frame of ``_Flight.run``,
        # hence the flight and, through this list, the futures holding
        # that traceback: let go so the rejected work frees by refcount.
        flight.waiters.clear()
