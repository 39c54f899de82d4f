"""Tests for the analysis daemon (``repro serve``).

Covers the report builder (and its byte-equivalence with the CLI), the
sharded session pool, the single-flight scheduler, the HTTP surface
end to end over a real socket, backpressure and drain semantics,
per-tenant metrics, and the serving ledger record.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sqlite3
import threading
import time
import tracemalloc
import types
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.analysis.session import AnalysisSession, session_for_suite
from repro.cli import main
from repro.frontend.ast_nodes import Node
from repro.frontend.errors import SourceLocation
from repro.frontend.tokens import Token
from repro.obs import counter_value, render_prometheus
from repro.obs import ledger
from repro.obs.flight import find_span
from repro.program import Program
from repro.serve import (
    RequestError,
    ServeClient,
    ServeConfig,
    SessionPool,
    SingleFlight,
    build_report,
    content_hash,
    prediction_lines,
    start_in_thread,
    tenant_label,
    validate_request,
)
from repro.suite import known_program_names, load_program
from repro.suite.registry import program_source

#: A small program with branches, a loop, and a call — enough to give
#: every report section non-trivial content.
SOURCE = """
int helper(int x) {
    if (x > 3) { return x * 2; }
    return x;
}

int main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) {
            total = total + helper(i);
        } else {
            total = total - 1;
        }
    }
    return total;
}
"""

BROKEN_SOURCE = "int main( { return 0; }"


def _tiny_source(index: int) -> str:
    return f"int main() {{ return {index}; }}"


def _charge(source: str) -> int:
    """What a session pool charges for ``source``."""
    pool = SessionPool(shards=1)
    pool.get(source, "charge.c")
    return pool.stats()["bytes"]


def _normalize(report: dict) -> dict:
    """JSON round-trip, so in-process dicts compare against HTTP
    payloads (tuples become lists, keys become strings)."""
    return json.loads(json.dumps(report, sort_keys=True))


@pytest.fixture
def server():
    running = start_in_thread(ServeConfig(port=0, workers=2))
    yield running
    if running.drained is None:
        running.shutdown()


@pytest.fixture
def client(server):
    return ServeClient(server.host, server.port)


# ----------------------------------------------------------------------
# Request validation.


class TestValidateRequest:
    def test_defaults(self):
        request = validate_request({"source": SOURCE})
        assert request["name"] == "request.c"
        assert request["estimators"] == ["smart"]
        assert request["backend"] == "markov"
        assert request["attribution"] is False

    def test_string_estimator_promoted_and_deduped(self):
        request = validate_request(
            {"source": SOURCE, "estimators": ["loop", "smart", "loop"]}
        )
        assert request["estimators"] == ["loop", "smart"]
        single = validate_request(
            {"source": SOURCE, "estimators": "markov"}
        )
        assert single["estimators"] == ["markov"]

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"source": ""},
            {"source": "   "},
            {"source": 7},
            {"source": SOURCE, "name": ""},
            {"source": SOURCE, "estimators": []},
            {"source": SOURCE, "estimators": ["nope"]},
            {"source": SOURCE, "backend": "nope"},
            {"source": SOURCE, "attribution": "yes"},
        ],
    )
    def test_malformed_shapes_raise(self, payload):
        with pytest.raises(RequestError):
            validate_request(payload)


# ----------------------------------------------------------------------
# The report builder.


class TestBuildReport:
    def test_report_is_deterministic_across_sessions(self):
        first = AnalysisSession.of(
            Program.from_source(SOURCE, "report.c")
        )
        second = AnalysisSession.of(
            Program.from_source(SOURCE, "report.c")
        )
        options = dict(
            estimators=("smart", "loop", "markov"), backend="markov"
        )
        assert _normalize(build_report(first, **options)) == _normalize(
            build_report(second, **options)
        )

    def test_report_sections(self):
        session = AnalysisSession.of(
            Program.from_source(SOURCE, "report.c")
        )
        report = build_report(
            session, estimators=("smart",), backend="markov"
        )
        assert report["name"] == "report.c"
        assert report["version"] == repro.__version__
        assert report["content_hash"] == content_hash(SOURCE)
        assert report["functions"] == ["helper", "main"]
        smart = report["estimates"]["smart"]
        assert smart["main"]["invocations"] == 1.0
        assert smart["helper"]["invocations"] > 0.0
        assert report["rankings"]["smart"]["functions"][0] in (
            "helper",
            "main",
        )
        assert report["predictions"]["lines"]
        assert len(report["predictions"]["branches"]) == len(
            report["predictions"]["lines"]
        )
        assert report["attribution"] is None

    def test_attribution_summary(self):
        session = AnalysisSession.of(
            Program.from_source(SOURCE, "report.c")
        )
        report = build_report(session, attribution=True)
        summary = report["attribution"]
        assert summary["status"] is not None
        assert summary["executions"] > 0
        assert summary["heuristics"]
        assert 0.0 <= summary["miss_rate"] <= 1.0
        for entry in summary["worst_branches"]:
            assert {"function", "block", "line", "predicted"} <= set(
                entry
            )

    def test_prediction_lines_match_cli_predict(self, capsys):
        name = known_program_names("base")[0]
        assert main(["predict", name]) == 0
        printed = capsys.readouterr().out
        expected = "".join(
            line + "\n"
            for line in prediction_lines(session_for_suite(name))
        )
        assert printed == expected


# ----------------------------------------------------------------------
# Session pool.


class TestSessionPool:
    def test_hit_miss_and_peek(self):
        pool = SessionPool()
        session, was_hit = pool.get(SOURCE, "pool.c")
        assert not was_hit
        again, was_hit = pool.get(SOURCE, "pool.c")
        assert was_hit
        assert again is session
        assert pool.peek(SOURCE)
        assert not pool.peek(_tiny_source(0))
        assert pool.stats()["entries"] == 1
        assert pool.clear() == 1
        assert pool.stats()["entries"] == 0

    def test_lru_eviction_respects_byte_budget(self):
        sources = [_tiny_source(index) for index in range(6)]
        budget = _charge(sources[0]) * 3 + 1
        pool = SessionPool(max_bytes=budget, shards=1)
        for source in sources:
            pool.get(source, "tiny.c")
        stats = pool.stats()
        assert stats["bytes"] <= budget
        # The most recent insert always survives; the oldest are gone.
        assert pool.peek(sources[-1])
        assert not pool.peek(sources[0])

    def test_eviction_refreshes_on_hit(self):
        sources = [_tiny_source(index) for index in range(3)]
        budget = _charge(sources[0]) * 2 + 1
        pool = SessionPool(max_bytes=budget, shards=1)
        pool.get(sources[0], "tiny.c")
        pool.get(sources[1], "tiny.c")
        pool.get(sources[0], "tiny.c")  # refresh 0; 1 is now LRU
        pool.get(sources[2], "tiny.c")
        assert pool.peek(sources[0])
        assert not pool.peek(sources[1])

    def test_concurrent_gets_share_one_session(self):
        pool = SessionPool(shards=4)
        barrier = threading.Barrier(8)
        out: list[AnalysisSession] = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            session, _ = pool.get(SOURCE, "race.c")
            with lock:
                out.append(session)

        threads = [
            threading.Thread(target=worker) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(session) for session in out}) == 1
        assert pool.stats()["entries"] == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SessionPool(shards=0)
        with pytest.raises(ValueError):
            SessionPool(max_bytes=0)

    def test_oversize_session_is_served_unpooled(self):
        pool = SessionPool(max_bytes=_charge(SOURCE) - 1, shards=1)
        session, was_hit = pool.get(SOURCE, "big.c")
        assert not was_hit
        assert "main" in build_report(session)["functions"]
        again, was_hit = pool.get(SOURCE, "big.c")
        assert not was_hit
        assert again is not session
        assert not pool.peek(SOURCE)
        assert pool.stats()["entries"] == 0
        assert pool.stats()["bytes"] == 0

    def test_evicted_session_frees_without_the_collector(self):
        pool = SessionPool(max_bytes=_charge(SOURCE), shards=1)
        session, _ = pool.get(SOURCE, "evicted.c")
        build_report(session)  # memoize, as a served request does
        program = weakref.ref(session.program)
        del session
        gc.disable()
        try:
            pool.get(_tiny_source(0), "tiny.c")
            assert not pool.peek(SOURCE)
            assert program() is None
        finally:
            gc.enable()

    def test_clear_frees_without_the_collector(self):
        pool = SessionPool()
        session, _ = pool.get(SOURCE, "cleared.c")
        program = weakref.ref(session.program)
        del session
        gc.disable()
        try:
            assert pool.clear() == 1
            assert program() is None
        finally:
            gc.enable()


#: Dense straight-line code: many AST nodes per source byte, the shape
#: a source-byte charge under-counts most.
DENSE_SOURCE = (
    "int main(void) {\n    int a;\n    a = 1;\n"
    + ("    a = a" + " + a" * 49 + ";\n") * 40
    + "    return a;\n}\n"
)


class TestRetainedMemory:
    """The pool's charge against what its sessions really hold, and
    nothing the daemon drops left behind for the cyclic collector."""

    @pytest.mark.parametrize(
        "name", [*known_program_names(), "xl00", "xl16", "xl33", "dense"]
    )
    def test_charge_tracks_retained_memory(self, name):
        source = DENSE_SOURCE if name == "dense" else program_source(name)
        pool = SessionPool(shards=1)
        tracemalloc.start()
        try:
            session, _ = pool.get(source, f"{name}.c")
            build_report(session, name=f"{name}.c")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            charge = pool.stats()["bytes"]
            pool.clear()
            del session
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0.5 <= charge / retained <= 2, (charge, retained)

    def test_daemon_leaves_no_cyclic_garbage(self):
        """Misses that evict, a pool hit, a coalesced pair and a
        rejected source, served with the collector paused: what they
        drop frees by reference counting.  Python 3.12 leaves nothing
        at all; 3.10 and 3.11 leave one self-referencing asyncio
        transport per closed connection, which is not the daemon's."""
        running = start_in_thread(ServeConfig(port=0, workers=2))
        try:
            running.app.pool = SessionPool(
                max_bytes=2 * _charge(SOURCE), shards=1
            )
            client = ServeClient(
                running.host, running.port, timeout=60, keep_alive=True
            )
            truncated = SOURCE[: SOURCE.index("total = total")]
            # Warm every path once, so lazily built state is in place.
            assert client.analyze(SOURCE, name="warm.c").status == 200
            assert client.analyze(truncated, name="cut.c").status == 400
            analyze = running.app._analyze

            def held_analyze(request):
                # Hold the owner until its twin is admitted, so the
                # twin must join the flight.
                deadline = time.monotonic() + 10.0
                while (
                    running.app.inflight < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                return analyze(request)

            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                evictions = counter_value("serve.pool.evictions")
                for index in range(4):
                    salted = SOURCE + f"/* edit {index} */\n"
                    response = client.analyze(salted, name="edit.c")
                    assert response.status == 200
                assert counter_value("serve.pool.evictions") > evictions
                repeat = client.analyze(salted, name="edit.c")
                assert repeat.payload["server"]["cache"] == "hit"

                coalesced = counter_value("serve.batch.coalesced")
                running.app._analyze = held_analyze
                twins: list[int] = []

                def post():
                    twins.append(
                        ServeClient(running.host, running.port, timeout=60)
                        .analyze(SOURCE + "/* twin */\n", name="twin.c")
                        .status
                    )

                threads = [threading.Thread(target=post) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                running.app._analyze = analyze
                assert twins == [200, 200]
                assert counter_value("serve.batch.coalesced") == coalesced + 1

                assert client.analyze(truncated, name="cut.c").status == 400
                gc.collect()
                garbage = list(gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
                client.close()
            kept = Counter(
                type(thing).__name__
                for thing in garbage
                if isinstance(
                    thing,
                    (
                        Program,
                        AnalysisSession,
                        Node,
                        Token,
                        SourceLocation,
                        types.FrameType,
                    ),
                )
            )
            assert not kept, kept.most_common(10)
        finally:
            running.shutdown()


class TestConcurrentSessionReuse:
    """Satellite: one pooled session hammered from many threads must
    answer byte-identically to fresh single-threaded sessions."""

    def test_hammered_session_matches_fresh_sessions(self):
        pool = SessionPool()
        shared, _ = pool.get(SOURCE, "hammer.c")
        options = dict(
            estimators=("smart", "loop", "markov"), backend="markov"
        )
        fresh = AnalysisSession.of(
            Program.from_source(SOURCE, "hammer.c")
        )
        expected = json.dumps(
            build_report(fresh, **options), sort_keys=True
        )
        barrier = threading.Barrier(8)
        results: list[str] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def worker():
            try:
                barrier.wait()
                text = json.dumps(
                    build_report(shared, **options), sort_keys=True
                )
                with lock:
                    results.append(text)
            except BaseException as error:  # noqa: BLE001
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=worker) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 8
        assert all(text == expected for text in results)

    def test_hammered_mixed_backends(self):
        shared = AnalysisSession.of(
            Program.from_source(SOURCE, "mixed.c")
        )
        backends = ["markov", "call_site", "direct", "all_rec"]
        expected = {}
        for backend in backends:
            fresh = AnalysisSession.of(
                Program.from_source(SOURCE, "mixed.c")
            )
            expected[backend] = json.dumps(
                build_report(fresh, backend=backend), sort_keys=True
            )
        barrier = threading.Barrier(len(backends) * 2)
        mismatches: list[str] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def worker(backend: str):
            try:
                barrier.wait()
                text = json.dumps(
                    build_report(shared, backend=backend),
                    sort_keys=True,
                )
                if text != expected[backend]:
                    with lock:
                        mismatches.append(backend)
            except BaseException as error:  # noqa: BLE001
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(backend,))
            for backend in backends * 2
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not mismatches


# ----------------------------------------------------------------------
# Single-flight scheduler.  Thunks block on a threading.Event, so a job
# is certainly still running when the requests that should join it
# arrive.


def _run_flights(body):
    """Run ``body(flights)`` on a fresh loop and two worker threads."""

    async def main():
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=2) as executor:
            return await asyncio.wait_for(
                body(SingleFlight(loop, executor)), timeout=10
            )

    return asyncio.run(main())


class TestSingleFlight:
    def test_coalesces_identical_keys(self):
        calls: list[str] = []
        release = threading.Event()
        before = counter_value("serve.batch.coalesced")

        def shared():
            calls.append("shared")
            release.wait(timeout=10)
            return "shared"

        def solo():
            calls.append("solo")
            return "solo"

        async def body(flights):
            waiters = []
            for _ in range(5):
                waiters.append(flights.submit("key", shared))
                await asyncio.sleep(0)
            # A different key runs on its own, next to the held job.
            other = await flights.submit("other", solo)
            release.set()
            return await asyncio.gather(*waiters), other

        results, other = _run_flights(body)
        assert results == ["shared"] * 5
        assert other == "solo"
        assert sorted(calls) == ["shared", "solo"]
        assert counter_value("serve.batch.coalesced") - before == 4

    def test_settled_key_runs_again(self):
        calls: list[int] = []

        def thunk():
            calls.append(1)
            return len(calls)

        async def body(flights):
            first = await flights.submit("key", thunk)
            second = await flights.submit("key", thunk)
            return first, second

        assert _run_flights(body) == (1, 2)

    def test_errors_propagate_to_every_waiter(self):
        calls: list[int] = []
        release = threading.Event()

        def boom():
            calls.append(1)
            release.wait(timeout=10)
            raise RuntimeError("nope")

        async def body(flights):
            waiters = []
            for _ in range(3):
                waiters.append(flights.submit("key", boom))
                await asyncio.sleep(0)
            release.set()
            results = await asyncio.gather(
                *waiters, return_exceptions=True
            )
            # The failed entry is gone: the next request computes.
            retry = await flights.submit("key", lambda: "recovered")
            return results, retry

        results, retry = _run_flights(body)
        assert len(calls) == 1
        assert len(results) == 3
        assert all(
            isinstance(result, RuntimeError) for result in results
        )
        assert retry == "recovered"

    def test_cancelled_waiter_leaves_the_others_intact(self):
        calls: list[int] = []
        release = threading.Event()

        def thunk():
            calls.append(1)
            release.wait(timeout=10)
            return "shared"

        async def body(flights):
            first = flights.submit("key", thunk)
            second = flights.submit("key", thunk)
            # What wait_for does to a waiter whose timeout expires.
            first.cancel()
            await asyncio.sleep(0)
            # The job keeps running and stays in flight, so a late
            # identical request joins it instead of starting another.
            late = flights.submit("key", thunk)
            release.set()
            return first.cancelled(), await second, await late

        assert _run_flights(body) == (True, "shared", "shared")
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Tenant labels.


class TestTenantLabel:
    def test_default_and_sanitization(self):
        assert tenant_label({}) == "anon"
        assert tenant_label({"x-repro-tenant": "  "}) == "anon"
        assert tenant_label({"x-repro-tenant": "ci-bot_1"}) == "ci-bot_1"
        assert (
            tenant_label({"x-repro-tenant": 'a"b{c}'}) == "a_b_c_"
        )
        assert len(tenant_label({"x-repro-tenant": "x" * 99})) == 32


# ----------------------------------------------------------------------
# Prometheus rendering (satellite: HELP/TYPE lines + label escaping).


class TestPrometheusRendering:
    def test_help_and_type_per_family(self):
        snapshot = {
            "cache.hits": {"type": "counter", "value": 3},
            "jobs": {"type": "gauge", "value": 2},
            "solve.seconds": {
                "type": "histogram",
                "count": 1,
                "sum": 0.5,
                "min": 0.5,
                "max": 0.5,
            },
        }
        text = render_prometheus(snapshot)
        assert "# HELP repro_cache_hits_total counter cache.hits" in text
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "repro_cache_hits_total 3" in text
        assert "# HELP repro_jobs gauge jobs" in text
        assert "repro_jobs 2" in text
        assert "# TYPE repro_solve_seconds summary" in text
        assert "repro_solve_seconds_count 1" in text
        assert text.endswith("\n")

    def test_labeled_series_group_into_one_family(self):
        snapshot = {
            "serve.responses{code=200,tenant=anon}": {
                "type": "counter",
                "value": 7,
            },
            "serve.responses{code=400,tenant=ci}": {
                "type": "counter",
                "value": 2,
            },
        }
        text = render_prometheus(snapshot)
        assert (
            text.count("# TYPE repro_serve_responses_total counter")
            == 1
        )
        assert (
            'repro_serve_responses_total{code="200",tenant="anon"} 7'
            in text
        )
        assert (
            'repro_serve_responses_total{code="400",tenant="ci"} 2'
            in text
        )

    def test_label_values_are_escaped(self):
        snapshot = {
            'lat{tenant=a"b\\c}': {
                "type": "histogram",
                "count": 2,
                "sum": 3.0,
                "min": 1.0,
                "max": 2.0,
            },
        }
        text = render_prometheus(snapshot)
        assert 'repro_lat_count{tenant="a\\"b\\\\c"} 2' in text
        assert 'repro_lat_sum{tenant="a\\"b\\\\c"} 3' in text


# ----------------------------------------------------------------------
# HTTP surface, end to end over a real socket.


class TestHttpEndpoints:
    def test_healthz_reports_version_and_pool(self, client):
        payload = client.wait_ready()
        assert payload["status"] == "ok"
        assert payload["version"] == repro.__version__
        assert payload["pool"]["entries"] == 0
        assert payload["workers"] == 2

    def test_analyze_roundtrip_and_pool_hit(self, server, client):
        first = client.analyze(SOURCE, name="roundtrip.c")
        assert first.status == 200
        assert first.payload["server"]["cache"] == "miss"
        second = client.analyze(SOURCE, name="roundtrip.c")
        assert second.status == 200
        assert second.payload["server"]["cache"] == "hit"
        stripped_first = dict(first.payload)
        stripped_second = dict(second.payload)
        del stripped_first["server"]
        del stripped_second["server"]
        assert stripped_first == stripped_second

    def test_analyze_matches_direct_report(self, client):
        response = client.analyze(
            SOURCE,
            name="equiv.c",
            estimators=["smart", "loop"],
            backend="call_site",
        )
        assert response.status == 200
        served = dict(response.payload)
        del served["server"]
        session = AnalysisSession.of(
            Program.from_source(SOURCE, "equiv.c")
        )
        direct = _normalize(
            build_report(
                session,
                estimators=("smart", "loop"),
                backend="call_site",
                name="equiv.c",
            )
        )
        assert served == direct

    def test_frontend_error_is_structured_400(self, server, client):
        before = counter_value("serve.frontend_errors")
        response = client.analyze(BROKEN_SOURCE, name="broken.c")
        assert response.status == 400
        assert set(response.payload) == {
            "error",
            "file",
            "line",
            "col",
            "trace_id",
        }
        assert response.payload["file"] == "broken.c"
        assert response.payload["line"] >= 1
        assert response.payload["trace_id"] == response.trace_id
        assert "Traceback" not in response.text
        assert counter_value("serve.frontend_errors") - before == 1

    def test_malformed_json_is_400(self, client):
        response = client._request(
            "POST", "/v1/analyze", body=b"{not json"
        )
        assert response.status == 400
        assert "JSON" in response.payload["error"]

    def test_bad_request_shape_is_400(self, client):
        response = client._request(
            "POST",
            "/v1/analyze",
            body=json.dumps({"source": SOURCE, "backend": "x"}).encode(),
        )
        assert response.status == 400
        assert "backend" in response.payload["error"]

    def test_unknown_route_and_method(self, client):
        assert client._request("GET", "/nope").status == 404
        response = client._request("GET", "/v1/analyze")
        assert response.status == 405
        assert response.headers.get("allow") == "POST"

    def test_metrics_scrape_has_labeled_tenant_counters(self, server):
        for tenant in ("alpha", "beta"):
            ServeClient(
                server.host, server.port, tenant=tenant
            ).analyze(SOURCE, name="tenants.c")
        text = ServeClient(server.host, server.port).metrics()
        assert "# HELP repro_serve_responses_total" in text
        assert "# TYPE repro_serve_responses_total counter" in text
        assert 'tenant="alpha"' in text
        assert 'tenant="beta"' in text
        assert "repro_serve_pool_hits_total" in text
        assert "repro_serve_inflight" in text

    def test_oversized_body_is_413(self):
        running = start_in_thread(
            ServeConfig(port=0, workers=1, max_body_bytes=64)
        )
        try:
            client = ServeClient(running.host, running.port)
            client.wait_ready()
            response = client.analyze(SOURCE, name="big.c")
            assert response.status == 413
        finally:
            running.shutdown()

    def test_backpressure_is_429_with_retry_after(self):
        running = start_in_thread(
            ServeConfig(port=0, workers=1, max_inflight=0)
        )
        try:
            client = ServeClient(running.host, running.port)
            client.wait_ready()
            before = counter_value("serve.refused.backpressure")
            response = client.analyze(SOURCE, name="busy.c")
            assert response.status == 429
            assert response.headers.get("retry-after") == "1"
            assert (
                counter_value("serve.refused.backpressure") - before
                == 1
            )
        finally:
            running.shutdown()

    def test_timeout_is_504(self):
        running = start_in_thread(
            ServeConfig(
                port=0, workers=1, request_timeout_s=0.000001
            )
        )
        try:
            client = ServeClient(running.host, running.port)
            client.wait_ready()
            response = client.analyze(SOURCE, name="slow.c")
            assert response.status == 504
        finally:
            running.shutdown()


class TestDrain:
    def test_draining_refuses_new_work_with_503(self, server, client):
        client.wait_ready()
        asyncio.run_coroutine_threadsafe(
            _call(server.app.begin_drain), server._loop
        ).result(timeout=5)
        response = client.analyze(SOURCE, name="late.c")
        assert response.status == 503
        health = client.healthz()
        assert health.payload["status"] == "draining"

    def test_shutdown_drains_inflight_to_completion(self):
        running = start_in_thread(ServeConfig(port=0, workers=4))
        client = ServeClient(running.host, running.port)
        client.wait_ready()
        statuses: list[int] = []
        lock = threading.Lock()

        def post(index: int):
            response = ServeClient(
                running.host, running.port, timeout=30
            ).analyze(
                _tiny_source(index) + f"\nint f{index}() {{ return 1; }}",
                name=f"drain{index}.c",
            )
            with lock:
                statuses.append(response.status)

        threads = [
            threading.Thread(target=post, args=(index,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        assert running.shutdown(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
        assert len(statuses) == 4
        # Every accepted request completed; anything arriving after
        # the drain began was refused cleanly, never dropped.
        assert set(statuses) <= {200, 503}
        assert running.drained is True


async def _call(function):
    function()


# ----------------------------------------------------------------------
# Byte-equivalence with the CLI pipeline on the paper's base programs.


#: Programs the concurrent pass also asks for attribution, which runs
#: them on the compiled backend (codegen indexes nodes by id).
ATTRIBUTED = ("cc", "gs")


class TestSuiteEquivalence:
    @staticmethod
    def _post_suite(concurrent: bool) -> dict:
        """Post every base program to a fresh daemon, one at a time or
        all at once behind a barrier; returns name -> response."""
        names = known_program_names("base")
        running = start_in_thread(ServeConfig(port=0, workers=4))
        try:
            ServeClient(running.host, running.port).wait_ready()
            barrier = threading.Barrier(len(names) if concurrent else 1)

            def post(name: str):
                client = ServeClient(
                    running.host, running.port, timeout=120
                )
                source = load_program(name).source
                assert source, f"{name} has no source text"
                barrier.wait()
                return client.analyze(
                    source,
                    name=name,
                    attribution=concurrent and name in ATTRIBUTED,
                )

            if concurrent:
                with ThreadPoolExecutor(len(names)) as executor:
                    responses = list(executor.map(post, names))
            else:
                responses = [post(name) for name in names]
        finally:
            running.shutdown()
        return dict(zip(names, responses))

    def test_served_reports_match_in_process_reports(self):
        for concurrent in (False, True):
            responses = self._post_suite(concurrent)
            for name, response in responses.items():
                label = (name, "concurrent" if concurrent else "serial")
                assert response.status == 200, (label, response.text)
                served = dict(response.payload)
                server_block = served.pop("server")
                assert set(server_block) == {
                    "cache",
                    "elapsed_ms",
                    "trace_id",
                }
                direct = _normalize(
                    build_report(
                        session_for_suite(name),
                        name=name,
                        attribution=concurrent and name in ATTRIBUTED,
                    )
                )
                assert served == direct, label


# ----------------------------------------------------------------------
# Version satellite.


class TestVersion:
    def test_cli_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert (
            capsys.readouterr().out.strip()
            == f"repro {repro.__version__}"
        )

    def test_fingerprint_includes_version(self):
        fingerprint = ledger.environment_fingerprint()
        assert fingerprint["version"] == repro.__version__

    def test_recorded_runs_carry_version(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        run_id = ledger.record_run("test", path=path)
        assert run_id is not None
        runs = ledger.list_runs(path=path)
        assert runs[0].version == repro.__version__

    def test_old_ledger_schema_migrates_in_place(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        connection = sqlite3.connect(path)
        connection.executescript(
            """
            CREATE TABLE runs (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                started_at TEXT NOT NULL,
                kind TEXT NOT NULL,
                label TEXT NOT NULL DEFAULT '',
                git_sha TEXT NOT NULL DEFAULT '',
                python TEXT NOT NULL DEFAULT '',
                platform TEXT NOT NULL DEFAULT '',
                jobs INTEGER NOT NULL DEFAULT 1,
                cache_enabled INTEGER NOT NULL DEFAULT 1,
                schema_version INTEGER NOT NULL DEFAULT 1
            );
            INSERT INTO runs (started_at, kind) VALUES ('x', 'old');
            """
        )
        connection.commit()
        connection.close()
        run_id = ledger.record_run("new", path=path)
        assert run_id is not None
        runs = ledger.list_runs(path=path)
        by_kind = {run.kind: run for run in runs}
        assert by_kind["old"].version == ""
        assert by_kind["new"].version == repro.__version__


# ----------------------------------------------------------------------
# Serving runs in the ledger.


class TestServeLedgerRecord:
    def test_record_on_shutdown(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        running = start_in_thread(
            ServeConfig(port=0, workers=1, record=True)
        )
        client = ServeClient(running.host, running.port)
        client.wait_ready()
        assert client.analyze(SOURCE, name="ledger.c").status == 200
        assert client.analyze(SOURCE, name="ledger.c").status == 200
        assert running.shutdown()
        runs = ledger.list_runs()
        assert runs and runs[0].kind == "serve"
        detail = ledger.run_detail(runs[0])
        assert detail.scores["serve"]["requests"] >= 2.0
        assert detail.scores["serve"]["pool_hits"] >= 1.0
        assert "serve.uptime" in detail.stages


# ----------------------------------------------------------------------
# Request tracing, the flight recorder, and the debug surface.


def _span_names(spans: list[dict]) -> set[str]:
    names: set[str] = set()
    stack = list(spans)
    while stack:
        node = stack.pop()
        names.add(node["name"])
        stack.extend(node.get("children", []))
    return names


def _find_record(client: ServeClient, trace_id: str) -> dict:
    for record in client.traces().payload["traces"]:
        if record["trace_id"] == trace_id:
            return record
    raise AssertionError(f"trace {trace_id} not in flight recorder")


class TestTracing:
    def test_every_response_carries_trace_identity(self, client):
        response = client.analyze(SOURCE, name="traced.c")
        assert response.status == 200
        trace_id = response.trace_id
        assert trace_id and len(trace_id) == 32
        int(trace_id, 16)  # valid hex
        assert response.payload["server"]["trace_id"] == trace_id
        header = response.headers["traceparent"]
        assert header.startswith(f"00-{trace_id}-")

    def test_traceparent_round_trip(self, client):
        """A client-supplied W3C trace identity is adopted, echoed,
        and linked to the incoming parent span."""
        trace_id = "ab" * 16
        parent_id = "cd" * 8
        header = f"00-{trace_id}-{parent_id}-01"
        response = client.analyze(
            SOURCE, name="joined.c", traceparent=header
        )
        assert response.status == 200
        assert response.trace_id == trace_id
        assert response.payload["server"]["trace_id"] == trace_id
        # The response's own span id is fresh, not the caller's.
        echoed = response.headers["traceparent"]
        assert echoed.split("-")[2] != parent_id
        record = _find_record(client, trace_id)
        assert record["parent_id"] == parent_id

    def test_client_default_traceparent(self, server):
        trace_id = "12" * 16
        client = ServeClient(
            server.host,
            server.port,
            traceparent=f"00-{trace_id}-{'34' * 8}-01",
        )
        assert client.analyze(SOURCE).trace_id == trace_id

    def test_malformed_traceparent_gets_fresh_id(self, client):
        response = client.analyze(
            SOURCE, name="bad-header.c", traceparent="garbage"
        )
        assert response.status == 200
        assert len(response.trace_id) == 32

    def test_flight_record_has_full_span_tree(self, client):
        response = client.analyze(SOURCE, name="spans.c")
        record = _find_record(client, response.trace_id)
        names = _span_names(record["spans"])
        # The asyncio hop (request -> scheduler -> worker thread) keeps
        # parentage: the whole pipeline hangs off serve.request.
        assert {"serve.request", "serve.batch", "serve.analyze"} <= names
        (request,) = record["spans"]
        assert request["name"] == "serve.request"
        batch = request["children"][0]
        assert batch["name"] == "serve.batch"
        assert any(
            child["name"] == "serve.analyze"
            for child in batch["children"]
        )
        # A fresh daemon's pool misses, and the parse splits into the
        # layers the benchmark's traced table names.
        parse = find_span(record["spans"], "serve.parse")
        assert parse is not None
        assert {
            "frontend.preprocess",
            "frontend.lex",
            "frontend.parse",
            "cfg.build",
            "callgraph.build",
        } <= _span_names(parse["children"])
        # Scheduling attributes are lifted onto the record.
        assert record["queue_wait_ms"] is not None
        assert isinstance(record["pool_shard"], int)
        assert record["cache"] in {"hit", "miss"}
        assert record["name"] == "spans.c"

    def test_coalesced_requests_link_to_shared_job(self):
        """Identical requests while one is in flight: one owner runs
        the computation, the rest carry span links to the owner's
        trace and the shared job id."""
        running = start_in_thread(ServeConfig(port=0, workers=2))
        try:
            client = ServeClient(running.host, running.port)
            client.wait_ready()
            client.analyze(SOURCE, name="warm.c")  # warm the pool
            analyze = running.app._analyze

            def held_analyze(request):
                # Hold the owner's computation until all four requests
                # are admitted, so the other three must join it.
                deadline = time.monotonic() + 10.0
                while (
                    running.app.inflight < 4
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                return analyze(request)

            running.app._analyze = held_analyze
            results: list[str] = []
            lock = threading.Lock()

            def post():
                response = ServeClient(
                    running.host, running.port, timeout=30
                ).analyze(SOURCE, name="warm.c")
                assert response.status == 200
                with lock:
                    results.append(response.trace_id)

            threads = [
                threading.Thread(target=post) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(results) == 4
            records = [
                _find_record(client, trace_id)
                for trace_id in results
            ]
            coalesced = [r for r in records if r.get("coalesced")]
            owners = [r for r in records if not r.get("coalesced")]
            assert coalesced, "no request coalesced onto the held job"
            by_trace = {r["trace_id"]: r for r in owners}
            for record in coalesced:
                assert record["link_trace"] in by_trace
                owner = by_trace[record["link_trace"]]
                owner_request = owner["spans"][0]
                assert (
                    record["link_job"]
                    == owner_request["attrs"]["link_job"]
                )
        finally:
            running.shutdown()

    def test_flight_retains_all_errors_in_mixed_burst(self, server):
        """Tail sampling: a burst of mixed traffic cannot evict the
        failures (the acceptance bar is 100% error retention)."""
        client = ServeClient(server.host, server.port)
        failures = set()
        for index in range(30):
            if index % 5 == 0:
                response = client._request(
                    "POST",
                    "/v1/analyze",
                    body=json.dumps(
                        {"source": SOURCE, "backend": "nope"}
                    ).encode(),
                )
                assert response.status == 400
                failures.add(response.trace_id)
            else:
                assert (
                    client.analyze(
                        _tiny_source(index), name=f"burst{index}.c"
                    ).status
                    == 200
                )
        retained = {
            record["trace_id"]
            for record in client.traces(kind="errors").payload[
                "traces"
            ]
        }
        assert failures <= retained
        stats = client.traces().payload["stats"]
        assert stats["errors"] >= len(failures)

    def test_debug_slow_returns_span_trees_slowest_first(
        self, server, client
    ):
        for index in range(3):
            assert (
                client.analyze(
                    _tiny_source(index) + f"\nint g{index}() {{ return 2; }}",
                    name=f"slow{index}.c",
                ).status
                == 200
            )
        payload = client.slow(limit=3).payload
        records = payload["traces"]
        assert records
        elapsed = [record["elapsed_ms"] for record in records]
        assert elapsed == sorted(elapsed, reverse=True)
        for record in records:
            assert "serve.request" in _span_names(record["spans"])

    def test_debug_profile_svg_and_collapsed(self, client):
        response = client.profile(seconds=0.1, interval_ms=2.0)
        assert response.status == 200
        assert response.headers["content-type"] == "image/svg+xml"
        assert response.text.startswith("<svg ")
        assert "</svg>" in response.text
        collapsed = client.profile(
            seconds=0.1, interval_ms=2.0, format="collapsed"
        )
        assert collapsed.status == 200
        assert "text/plain" in collapsed.headers["content-type"]

    def test_debug_profile_rejects_bad_params(self, client):
        for query in (
            "seconds=abc",
            "seconds=nan",
            "seconds=inf",
            "interval_ms=nan",
            "interval_ms=-inf",
        ):
            response = client._request("GET", f"/debug/profile?{query}")
            assert response.status == 400, query

    def test_debug_traces_rejects_negative_limit(self, client):
        response = client._request("GET", "/debug/traces?limit=-3")
        assert response.status == 400

    def test_error_responses_carry_trace_id(self, client):
        malformed = client._request(
            "POST", "/v1/analyze", body=b"{not json"
        )
        assert malformed.status == 400
        assert malformed.payload["trace_id"] == malformed.trace_id
        bad_shape = client._request(
            "POST",
            "/v1/analyze",
            body=json.dumps({"source": SOURCE, "backend": "x"}).encode(),
        )
        assert bad_shape.status == 400
        assert bad_shape.payload["trace_id"] == bad_shape.trace_id

    def test_unparseable_head_gets_trace_id(self, server):
        import socket as socket_module

        with socket_module.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            data = sock.recv(65536).decode("utf-8", "replace")
        assert " 400 " in data.splitlines()[0]
        body = data.split("\r\n\r\n", 1)[1]
        payload = json.loads(body)
        assert len(payload["trace_id"]) == 32

    def test_latency_histogram_has_exemplar(self, server, client):
        response = client.analyze(SOURCE, name="exemplar.c")
        assert response.status == 200
        text = client.metrics()
        # The RED latency series carries an exemplar trace id and
        # quantile series computed from the sample reservoir.
        assert "repro_serve_latency_ms_count" in text
        assert '# {trace_id="' in text
        assert 'repro_serve_latency_ms{' in text
        assert 'quantile="0.95"' in text
        assert "repro_serve_flight_recorded" in text


class TestTracesCli:
    def test_traces_command_renders_records(self, server, capsys):
        client = ServeClient(server.host, server.port)
        client.wait_ready()
        response = client.analyze(SOURCE, name="cli.c")
        assert response.status == 200
        status = main([
            "traces",
            "--host", server.host,
            "--port", str(server.port),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert response.trace_id[:16] in out
        assert "flight recorder:" in out

    def test_traces_full_renders_span_tree(self, server, capsys):
        client = ServeClient(server.host, server.port)
        client.wait_ready()
        assert client.analyze(SOURCE, name="tree.c").status == 200
        status = main([
            "traces",
            "--host", server.host,
            "--port", str(server.port),
            "--full", "--limit", "1",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        assert "serve.analyze" in out

    def test_traces_json_mode(self, server, capsys):
        client = ServeClient(server.host, server.port)
        client.wait_ready()
        assert client.analyze(SOURCE, name="json.c").status == 200
        status = main([
            "traces",
            "--host", server.host,
            "--port", str(server.port),
            "--json",
        ])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert "traces" in payload and "stats" in payload

    def test_traces_unreachable_daemon_fails_cleanly(self, capsys):
        status = main([
            "traces", "--host", "127.0.0.1", "--port", "1",
        ])
        assert status == 2
        assert "cannot reach daemon" in capsys.readouterr().err


class TestProfileCli:
    def test_profile_wraps_a_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "flame.svg")
        status = main(["profile", "--out", out, "--", "list"])
        assert status == 0
        svg = open(out, encoding="utf-8").read()
        assert svg.startswith("<svg ")
        assert (tmp_path / "flame.collapsed").exists()

    def test_profile_requires_a_command(self, capsys):
        assert main(["profile"]) == 2
        assert "needs a command" in capsys.readouterr().err

    def test_profile_refuses_nesting(self, capsys):
        assert main(["profile", "--", "profile", "--", "list"]) == 2
        assert "cannot nest" in capsys.readouterr().err


class TestAccessLogEndToEnd:
    def test_serve_writes_access_log_lines(self, tmp_path):
        directory = str(tmp_path / "logs")
        running = start_in_thread(
            ServeConfig(port=0, workers=1, access_log_dir=directory)
        )
        try:
            client = ServeClient(running.host, running.port)
            client.wait_ready()
            response = client.analyze(SOURCE, name="logged.c")
            assert response.status == 200
            running.app.access_log.flush()
            with open(
                f"{directory}/access.log", encoding="utf-8"
            ) as handle:
                entries = [json.loads(line) for line in handle]
        finally:
            running.shutdown()
        analyze = [
            entry for entry in entries
            if entry.get("path") == "/v1/analyze"
        ]
        assert analyze
        entry = analyze[-1]
        assert entry["trace_id"] == response.trace_id
        assert entry["status"] == 200
        assert entry["name"] == "logged.c"
        assert "spans" not in entry  # the log line is the summary
