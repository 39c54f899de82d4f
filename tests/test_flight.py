"""Tests for the tail-sampled flight recorder and access log
(:mod:`repro.obs.flight`)."""

from __future__ import annotations

import json
import os

from repro.obs.flight import (
    ACCESS_LOG_ENV,
    AccessLog,
    FlightRecorder,
    access_log_info,
    build_record,
    find_span,
)


def _record(
    seq: int,
    status: int = 200,
    elapsed_ms: float = 1.0,
    error: str | None = None,
    timeout: bool = False,
) -> dict:
    return {
        "trace_id": f"{seq:032x}",
        "request_id": f"{seq:016x}",
        "method": "POST",
        "path": "/v1/analyze",
        "tenant": "default",
        "status": status,
        "elapsed_ms": elapsed_ms,
        "error": error,
        "timeout": timeout,
        "spans": [],
    }


SPANS = [
    {
        "name": "serve.request",
        "attrs": {"path": "/v1/analyze", "parent_id": "b" * 16},
        "children": [
            {
                "name": "serve.batch",
                "attrs": {"queue_wait_ms": 1.25},
                "children": [
                    {
                        "name": "serve.analyze",
                        "attrs": {"pool_shard": 2, "pool": "hit"},
                    }
                ],
            }
        ],
    }
]


class TestFindSpan:
    def test_finds_nested(self):
        assert find_span(SPANS, "serve.analyze")["attrs"]["pool"] == (
            "hit"
        )
        assert find_span(SPANS, "serve.request") is SPANS[0]
        assert find_span(SPANS, "missing") is None
        assert find_span([], "anything") is None


class TestBuildRecord:
    def test_lifts_scheduling_attributes(self):
        record = build_record(
            trace_id="a" * 32,
            request_id="c" * 16,
            method="POST",
            path="/v1/analyze",
            tenant="acme",
            status=200,
            elapsed_ms=12.3456,
            spans=SPANS,
            name="req.c",
            cache="hit",
        )
        assert record["trace_id"] == "a" * 32
        assert record["elapsed_ms"] == 12.346  # rounded
        assert record["queue_wait_ms"] == 1.25
        assert record["pool_shard"] == 2
        assert record["parent_id"] == "b" * 16
        assert record["name"] == "req.c"
        assert record["cache"] == "hit"
        assert record["timeout"] is False
        assert record["error"] is None
        json.dumps(record)  # JSON-able end to end

    def test_minimal_spans(self):
        record = build_record(
            trace_id="a" * 32,
            request_id="c" * 16,
            method="GET",
            path="/healthz",
            tenant="default",
            status=200,
            elapsed_ms=0.5,
            spans=[],
        )
        assert "queue_wait_ms" not in record
        assert "pool_shard" not in record
        assert "name" not in record and "cache" not in record


class TestFlightRecorder:
    def test_recent_ring_is_bounded(self):
        recorder = FlightRecorder(recent=4, errors=4, slow=2)
        for seq in range(10):
            recorder.record(_record(seq))
        traces = recorder.traces()
        assert len(traces) == 4
        # Most recent first.
        assert [t["request_id"] for t in traces] == [
            f"{seq:016x}" for seq in (9, 8, 7, 6)
        ]
        assert recorder.traces(limit=2)[0]["request_id"] == f"{9:016x}"

    def test_errors_survive_healthy_flood(self):
        """The tail-sampling guarantee: failures are retained even
        when vastly outnumbered by healthy traffic."""
        recorder = FlightRecorder(recent=8, errors=16, slow=4)
        failures = []
        for seq in range(500):
            if seq % 100 == 7:  # 5 failures in 500 requests
                record = _record(seq, status=500, error="boom")
                failures.append(record["trace_id"])
            elif seq % 100 == 8:
                record = _record(seq, timeout=True, status=504)
                failures.append(record["trace_id"])
            else:
                record = _record(seq)
            recorder.record(record)
        retained = {r["trace_id"] for r in recorder.errors()}
        assert retained == set(failures)  # 100% of failures retained
        # ... while the recent ring has long since evicted them.
        assert all(
            r["trace_id"] not in retained
            for r in recorder.traces()
        )

    def test_4xx_counts_as_failure(self):
        recorder = FlightRecorder()
        recorder.record(_record(1, status=400))
        recorder.record(_record(2, status=200))
        assert [r["status"] for r in recorder.errors()] == [400]

    def test_slow_keeps_top_k(self):
        recorder = FlightRecorder(recent=4, errors=4, slow=3)
        for seq, elapsed in enumerate(
            [5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0]
        ):
            recorder.record(_record(seq, elapsed_ms=elapsed))
        slow = recorder.slow()
        assert [r["elapsed_ms"] for r in slow] == [9.0, 8.0, 7.0]
        assert [r["elapsed_ms"] for r in recorder.slow(limit=1)] == [
            9.0
        ]

    def test_stats(self):
        recorder = FlightRecorder(recent=4, errors=4, slow=2)
        for seq, elapsed in enumerate([1.0, 3.0, 2.0]):
            recorder.record(
                _record(seq, elapsed_ms=elapsed,
                        status=500 if seq == 0 else 200)
            )
        stats = recorder.stats()
        assert stats["recorded"] == 3
        assert stats["recent"] == 3
        assert stats["errors"] == 1
        assert stats["slow"] == 2
        assert stats["slowest_ms"] == 3.0
        # Heap full at cap 2: the eviction threshold is its root.
        assert stats["slow_threshold_ms"] == 2.0

    def test_clear(self):
        recorder = FlightRecorder()
        recorder.record(_record(1, status=500))
        recorder.clear()
        assert recorder.traces() == []
        assert recorder.errors() == []
        assert recorder.slow() == []

    def test_records_are_copied(self):
        recorder = FlightRecorder()
        original = _record(1)
        recorder.record(original)
        assert "seq" not in original  # caller's dict untouched
        assert recorder.traces()[0]["seq"] == 1


class TestAccessLog:
    def test_line_is_deterministic_json(self):
        entry = {"b": 2, "a": 1}
        assert AccessLog.line(entry) == '{"a": 1, "b": 2}'

    def test_disabled_without_directory(self, monkeypatch):
        monkeypatch.delenv(ACCESS_LOG_ENV, raising=False)
        log = AccessLog()
        assert log.directory is None
        assert log.path is None
        assert log.log({"status": 200}) == '{"status": 200}'

    def test_writes_and_rotates(self, tmp_path):
        directory = str(tmp_path / "logs")
        log = AccessLog(directory=directory, max_bytes=4096, keep=2)
        entry = {"trace_id": "a" * 32, "status": 200, "pad": "x" * 80}
        for _ in range(60):  # ~7KB of lines against a 4KB cap
            log.log(entry)
        log.close()
        base = os.path.join(directory, "access.log")
        assert os.path.exists(base + ".1")  # rotated at least once
        names = sorted(os.listdir(directory))
        assert all(name.startswith("access.log") for name in names)
        assert len(names) <= 3  # base + keep=2 rolled files
        with open(base + ".1", encoding="utf-8") as handle:
            parsed = [json.loads(line) for line in handle]
        assert all(p["trace_id"] == "a" * 32 for p in parsed)

    def test_env_var_enables(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "envlogs")
        monkeypatch.setenv(ACCESS_LOG_ENV, directory)
        log = AccessLog()
        log.log({"status": 200})
        log.close()
        assert os.path.exists(os.path.join(directory, "access.log"))

    def test_info_counts_files(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "infologs")
        monkeypatch.setenv(ACCESS_LOG_ENV, directory)
        info = access_log_info()
        assert info["enabled"] and info["files"] == 0
        log = AccessLog()
        log.log({"status": 200})
        log.close()
        info = access_log_info()
        assert info["files"] == 1
        assert info["bytes"] > 0
        monkeypatch.delenv(ACCESS_LOG_ENV)
        assert access_log_info()["enabled"] is False
