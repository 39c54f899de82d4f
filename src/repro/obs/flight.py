"""Tail-sampled flight recorder and structured access log.

After-the-fact debuggability for the daemon: when a tenant reports
"my request was slow / failed five minutes ago", aggregates cannot
answer — only the request's own trace can.  The flight recorder keeps
a bounded in-memory ring of *completed* request traces with a
tail-sampling retention policy:

* **recent** — the last N requests, whatever their outcome (the
  rolling context window);
* **errors** — every request that failed or timed out, in its own
  ring so a flood of healthy traffic can never evict the interesting
  failures;
* **slow** — the top-K slowest requests seen so far (a min-heap on
  elapsed time), so the tail latency outliers survive even when they
  are rare.

A record is a plain JSON-able dict: trace/request ids, route, tenant,
status, elapsed, cache/queue/pool attributes, and the request's full
span tree (``spans``).  ``GET /debug/traces`` and ``GET /debug/slow``
expose the rings; ``repro traces`` renders them client-side.

The :class:`AccessLog` emits one structured JSON line per request —
trace id, tenant, status, cache hit, queue wait, elapsed —
through :func:`repro.obs.diag` (stderr) and, when a directory is
configured (``--access-log`` / ``REPRO_ACCESS_LOG_DIR``), into a
size-rotated on-disk log.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
from collections import deque
from typing import Optional

#: Default ring capacities: recent requests, retained failures, and
#: the slowest-requests heap.
DEFAULT_RECENT = 256
DEFAULT_ERRORS = 256
DEFAULT_SLOW = 32

#: Access-log rotation: roll ``access.log`` past this size, keeping
#: this many rolled files.
DEFAULT_LOG_BYTES = 4 * 1024 * 1024
DEFAULT_LOG_KEEP = 4

#: Environment override for the on-disk access-log directory.
ACCESS_LOG_ENV = "REPRO_ACCESS_LOG_DIR"


def find_span(spans: list[dict], name: str) -> Optional[dict]:
    """First span dict named ``name`` in a list of span trees."""
    stack = list(spans)
    while stack:
        node = stack.pop()
        if node.get("name") == name:
            return node
        stack.extend(node.get("children", []))
    return None


def build_record(
    *,
    trace_id: str,
    request_id: str,
    method: str,
    path: str,
    tenant: str,
    status: int,
    elapsed_ms: float,
    spans: list[dict],
    name: Optional[str] = None,
    cache: Optional[str] = None,
    error: Optional[str] = None,
    timeout: bool = False,
) -> dict:
    """One flight-recorder record for a completed request.

    Pulls the scheduling attributes (queue wait, pool shard,
    coalescing links) out of the span tree so every record answers
    "where did the time go" without re-walking spans.
    """
    record: dict = {
        "trace_id": trace_id,
        "request_id": request_id,
        "method": method,
        "path": path,
        "tenant": tenant,
        "status": int(status),
        "elapsed_ms": round(float(elapsed_ms), 3),
        "error": error,
        "timeout": bool(timeout),
        "spans": spans,
    }
    if name is not None:
        record["name"] = name
    if cache is not None:
        record["cache"] = cache
    request = find_span(spans, "serve.request")
    if request is not None:
        attrs = request.get("attrs", {})
        for key in ("coalesced", "link_trace", "link_job", "parent_id"):
            if key in attrs:
                record[key] = attrs[key]
    batch = find_span(spans, "serve.batch")
    if batch is not None:
        record["queue_wait_ms"] = batch.get("attrs", {}).get("queue_wait_ms")
    analyze = find_span(spans, "serve.analyze")
    if analyze is not None and "pool_shard" in analyze.get("attrs", {}):
        record["pool_shard"] = analyze["attrs"]["pool_shard"]
    return record


class FlightRecorder:
    """Bounded, tail-sampled ring of completed request records."""

    def __init__(
        self,
        recent: int = DEFAULT_RECENT,
        errors: int = DEFAULT_ERRORS,
        slow: int = DEFAULT_SLOW,
    ) -> None:
        self._lock = threading.Lock()
        self._recent: deque[dict] = deque(maxlen=max(1, recent))
        self._errors: deque[dict] = deque(maxlen=max(1, errors))
        #: min-heap of (elapsed_ms, seq, record): the root is the
        #: fastest of the retained slowest, evicted first.
        self._slow: list[tuple[float, int, dict]] = []
        self._slow_cap = max(1, slow)
        self._seq = 0
        self.recorded = 0

    def record(self, record: dict) -> None:
        """Retain one completed request (cheap: O(log slow-cap))."""
        with self._lock:
            self._seq += 1
            record = dict(record)
            record["seq"] = self._seq
            self.recorded += 1
            self._recent.append(record)
            if (
                record.get("timeout")
                or record.get("error")
                or record.get("status", 200) >= 400
            ):
                self._errors.append(record)
            item = (
                float(record.get("elapsed_ms") or 0.0),
                self._seq,
                record,
            )
            if len(self._slow) < self._slow_cap:
                heapq.heappush(self._slow, item)
            elif item[0] > self._slow[0][0]:
                heapq.heapreplace(self._slow, item)

    def traces(self, limit: Optional[int] = None) -> list[dict]:
        """Most recent records first."""
        with self._lock:
            records = list(self._recent)
        records.reverse()
        return records[: limit] if limit else records

    def errors(self, limit: Optional[int] = None) -> list[dict]:
        """Most recent retained failures first."""
        with self._lock:
            records = list(self._errors)
        records.reverse()
        return records[: limit] if limit else records

    def slow(self, limit: Optional[int] = None) -> list[dict]:
        """Slowest retained requests, slowest first."""
        with self._lock:
            items = sorted(self._slow, reverse=True)
        records = [record for _, _, record in items]
        return records[: limit] if limit else records

    def stats(self) -> dict:
        """Point-in-time retention stats (gauges and ``/debug``)."""
        with self._lock:
            slowest = max(
                (elapsed for elapsed, _, _ in self._slow),
                default=0.0,
            )
            threshold = self._slow[0][0] if (
                len(self._slow) >= self._slow_cap
            ) else 0.0
            return {
                "recorded": self.recorded,
                "recent": len(self._recent),
                "errors": len(self._errors),
                "slow": len(self._slow),
                "slowest_ms": round(slowest, 3),
                "slow_threshold_ms": round(threshold, 3),
            }

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._errors.clear()
            self._slow.clear()


class AccessLog:
    """One structured JSON line per request, optionally on disk.

    The stderr line (via :func:`repro.obs.diag`) is always produced by
    the caller from :meth:`line`; when a directory is set the same
    line is appended to ``access.log`` there, rotated by size
    (``access.log`` → ``access.log.1`` → ... up to ``keep``).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_bytes: int = DEFAULT_LOG_BYTES,
        keep: int = DEFAULT_LOG_KEEP,
    ) -> None:
        self.directory = directory or os.environ.get(
            ACCESS_LOG_ENV
        ) or None
        self.max_bytes = max(4096, max_bytes)
        self.keep = max(1, keep)
        self._lock = threading.Lock()
        self._handle = None
        self._size = 0

    @property
    def path(self) -> Optional[str]:
        if not self.directory:
            return None
        return os.path.join(self.directory, "access.log")

    @staticmethod
    def line(entry: dict) -> str:
        return json.dumps(entry, sort_keys=True)

    def log(self, entry: dict) -> str:
        """Render ``entry``; append to the on-disk log when enabled."""
        line = self.line(entry)
        if self.directory:
            with self._lock:
                try:
                    self._write(line)
                except OSError:
                    # A full or vanished disk must never fail the
                    # request that was merely being logged.
                    pass
        return line

    def _write(self, line: str) -> None:
        if self._handle is None:
            os.makedirs(self.directory, exist_ok=True)
            self._handle = open(
                self.path, "a", encoding="utf-8"
            )
            self._size = self._handle.tell()
        self._handle.write(line + "\n")
        self._size += len(line) + 1
        if self._size >= self.max_bytes:
            self._handle.flush()
            self._handle.close()
            self._handle = None
            self._rotate()

    def _rotate(self) -> None:
        base = self.path
        for index in range(self.keep - 1, 0, -1):
            older = f"{base}.{index}"
            newer = f"{base}.{index + 1}"
            if os.path.exists(older):
                os.replace(older, newer)
        if os.path.exists(base):
            os.replace(base, f"{base}.1")

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._handle.close()
                self._handle = None


def access_log_info() -> dict:
    """``repro cache info`` summary of the access-log directory."""
    directory = os.environ.get(ACCESS_LOG_ENV, "").strip() or None
    info: dict = {
        "directory": directory,
        "enabled": bool(directory),
        "files": 0,
        "bytes": 0,
    }
    if directory and os.path.isdir(directory):
        for entry in os.listdir(directory):
            if not entry.startswith("access.log"):
                continue
            try:
                info["bytes"] += os.path.getsize(
                    os.path.join(directory, entry)
                )
                info["files"] += 1
            except OSError:
                continue
    return info
