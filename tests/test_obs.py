"""Tests for the observability layer: spans, metrics, aggregation,
exporters, and the cross-process determinism guarantees."""

from __future__ import annotations

import contextvars
import gc
import json
import threading

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with tracing off and empty state.

    Automatic garbage collection is paused meanwhile: each collection
    lands ``gc.*`` metrics in the registry, which would make the exact
    snapshots asserted here depend on allocation timing.
    """
    obs.disable_tracing()
    obs.reset_trace()
    obs.reset_metrics()
    collecting = gc.isenabled()
    gc.disable()
    yield
    if collecting:
        gc.enable()
    obs.disable_tracing()
    obs.reset_trace()
    obs.reset_metrics()


class TestMetrics:
    def test_counter_incr(self):
        obs.incr("c")
        obs.incr("c", 4)
        assert obs.counter_value("c") == 5
        assert obs.counter_value("never-touched") == 0

    def test_gauge_and_histogram(self):
        obs.set_gauge("g", 3)
        obs.set_gauge("g", 7)
        for value in (2.0, 5.0, 1.0):
            obs.observe("h", value)
        snapshot = obs.metrics_snapshot()
        assert snapshot["g"] == {"type": "gauge", "value": 7}
        assert snapshot["h"] == {
            "type": "histogram",
            "count": 3,
            "sum": 8.0,
            "min": 1.0,
            "max": 5.0,
            "samples": [2.0, 5.0, 1.0],
        }

    def test_delta_reports_only_changes(self):
        obs.incr("before", 2)
        obs.observe("h", 1.0)
        base = obs.metrics_snapshot()
        obs.incr("before", 3)
        obs.incr("fresh")
        delta = obs.metrics_delta(base)
        assert delta == {
            "before": {"type": "counter", "value": 3},
            "fresh": {"type": "counter", "value": 1},
        }

    def test_merge_adds_counters_and_histograms(self):
        obs.incr("c", 1)
        obs.observe("h", 10.0)
        obs.merge_metrics(
            {
                "c": {"type": "counter", "value": 4},
                "h": {
                    "type": "histogram",
                    "count": 2,
                    "sum": 3.0,
                    "min": 1.0,
                    "max": 2.0,
                },
                "g": {"type": "gauge", "value": 9},
            }
        )
        snapshot = obs.metrics_snapshot()
        assert snapshot["c"]["value"] == 5
        assert snapshot["h"]["count"] == 3
        assert snapshot["h"]["sum"] == 13.0
        assert snapshot["h"]["min"] == 1.0
        assert snapshot["h"]["max"] == 10.0
        assert snapshot["g"]["value"] == 9

    def test_forced_collection_records_pause_and_count(self):
        before = obs.metrics_snapshot()
        gc.collect()
        delta = obs.metrics_delta(before)
        assert delta["gc.collections{generation=2}"]["value"] == 1
        pause = delta["gc.pause_ms{generation=2}"]
        assert pause["count"] == 1 and pause["sum"] >= 0.0
        prom = obs.render_prometheus()
        assert 'repro_gc_collections_total{generation="2"} 1' in prom
        assert 'repro_gc_pause_ms_count{generation="2"} 1' in prom

    def test_render_table(self):
        obs.incr("cache.hits", 3)
        rendered = obs.render_metrics()
        assert "cache.hits" in rendered
        assert "counter" in rendered
        assert obs.render_metrics({}) == "(no metrics recorded)"

    def test_render_prometheus(self):
        obs.incr("cache.hits", 3)
        obs.set_gauge("jobs", 2)
        obs.observe("solve.seconds", 0.5)
        text = obs.render_prometheus()
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "repro_cache_hits_total 3" in text
        assert "repro_jobs 2" in text
        assert "repro_solve_seconds_count 1" in text
        assert text.endswith("\n")


class TestSpans:
    def test_disabled_is_noop(self):
        first = obs.span("a", key="value")
        second = obs.span("b")
        assert first is second  # the shared no-op singleton
        with first as active:
            active.set(more="attrs")
        assert obs.trace_roots() == []

    def test_nested_parentage(self):
        obs.enable_tracing()
        with obs.span("outer", level=0) as outer:
            with obs.span("middle") as middle:
                with obs.span("inner"):
                    pass
            with obs.span("sibling"):
                pass
        roots = obs.trace_roots()
        assert [root.name for root in roots] == ["outer"]
        assert outer.attrs == {"level": 0}
        assert [child.name for child in outer.children] == [
            "middle",
            "sibling",
        ]
        assert [child.name for child in middle.children] == ["inner"]
        assert outer.seconds >= middle.seconds >= 0.0

    def test_forced_tracing_restores_disabled(self):
        assert not obs.tracing_enabled()
        with obs.forced_tracing(True):
            assert obs.tracing_enabled()
            with obs.span("timed"):
                pass
        assert not obs.tracing_enabled()
        assert obs.span_names() == {"timed"}

    def test_forced_tracing_inactive_is_noop(self):
        with obs.forced_tracing(False):
            assert not obs.tracing_enabled()

    def test_walk_spans_preorder(self):
        obs.enable_tracing()
        with obs.span("root"):
            with obs.span("a"):
                with obs.span("a1"):
                    pass
            with obs.span("b"):
                pass
        names = [
            (node.name, depth) for node, depth in obs.walk_spans()
        ]
        assert names == [
            ("root", 0),
            ("a", 1),
            ("a1", 2),
            ("b", 1),
        ]


class TestExport:
    def _sample_trace(self):
        obs.enable_tracing()
        with obs.span("root", jobs=2):
            with obs.span("child", program="cc"):
                pass
            with obs.span("child", program="ear"):
                pass
        obs.disable_tracing()
        return obs.trace_roots()

    @staticmethod
    def _shape(spans):
        """Structure (names/attrs/tree), ignoring the rounded times."""
        return [
            (
                span.name,
                span.attrs,
                TestExport._shape(span.children),
            )
            for span in spans
        ]

    def test_jsonl_round_trip(self, tmp_path):
        roots = self._sample_trace()
        path, count = obs.write_trace_jsonl(
            str(tmp_path / "trace.jsonl"), roots
        )
        assert count == 3
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert [record["id"] for record in lines] == [0, 1, 2]
        assert lines[1]["parent"] == 0 and lines[2]["parent"] == 0
        back = obs.read_trace_jsonl(path)
        assert self._shape(back) == self._shape(roots)

    def test_render_grouped_and_full(self):
        roots = self._sample_trace()
        grouped = obs.render_span_tree(roots)
        assert "child x2" in grouped
        full = obs.render_span_tree(roots, full=True)
        assert full.count("child") == 2
        assert "program=cc" in full
        assert obs.render_span_tree([]) == "(empty trace)"

    def test_stats_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_STATS_FILE", str(tmp_path / "stats.json")
        )
        assert obs.write_stats() is None  # nothing recorded yet
        obs.incr("cache.hits", 8)
        path = obs.write_stats()
        assert path == str(tmp_path / "stats.json")
        assert obs.read_stats() == {
            "cache.hits": {"type": "counter", "value": 8}
        }

    def test_read_stats_missing(self, tmp_path):
        assert obs.read_stats(str(tmp_path / "absent.json")) is None


class TestWorkerCapture:
    def test_captures_spans_and_metric_deltas(self):
        obs.incr("pre", 10)
        capture = obs.WorkerCapture(trace=True)
        with capture:
            with obs.span("task"):
                obs.incr("pre", 2)
                obs.incr("task.done")
        assert not obs.tracing_enabled()  # restored
        assert obs.trace_roots() == []  # nothing leaked locally
        assert [s["name"] for s in capture.snapshot["spans"]] == ["task"]
        assert capture.snapshot["metrics"] == {
            "pre": {"type": "counter", "value": 2},
            "task.done": {"type": "counter", "value": 1},
        }

    def test_no_spans_when_parent_not_tracing(self):
        capture = obs.WorkerCapture(trace=False)
        with capture:
            with obs.span("task"):
                obs.incr("task.done")
        assert capture.snapshot["spans"] == []
        assert capture.snapshot["metrics"] == {
            "task.done": {"type": "counter", "value": 1}
        }

    def test_absorb_reparents_under_open_span(self):
        capture = obs.WorkerCapture(trace=True)
        with capture:
            with obs.span("task"):
                obs.incr("task.done")
        # The capture normally happens in a worker process; clear the
        # local registry to simulate the process boundary.
        obs.reset_metrics()
        obs.enable_tracing()
        with obs.span("parent") as parent:
            obs.absorb(capture.snapshot)
        assert [child.name for child in parent.children] == ["task"]
        assert obs.counter_value("task.done") == 1

    def test_absorb_drops_spans_when_disabled(self):
        capture = obs.WorkerCapture(trace=True)
        with capture:
            with obs.span("task"):
                obs.incr("task.done")
        obs.reset_metrics()
        obs.absorb(capture.snapshot)  # tracing off in the parent
        assert obs.trace_roots() == []
        assert obs.counter_value("task.done") == 1  # metrics still merge


class TestDiag:
    def test_quiet_suppresses_diag(self, capsys):
        obs.set_quiet(False)
        obs.diag("chatter")
        obs.set_quiet(True)
        try:
            obs.diag("silenced")
        finally:
            obs.set_quiet(False)
        captured = capsys.readouterr()
        assert captured.err == "chatter\n"
        assert captured.out == ""


class TestCrossProcessDeterminism:
    """``run all --jobs 2`` merges one coherent trace whose span-name
    set matches a serial run, and is stable across repeated runs."""

    def _traced_run_all(self, jobs: int):
        from repro.experiments import run_all

        obs.reset_trace()
        obs.enable_tracing()
        try:
            output = run_all(jobs=jobs)
        finally:
            obs.disable_tracing()
        return output, obs.span_names(obs.trace_roots())

    def test_jobs2_matches_jobs1(self):
        from repro.experiments import run_all
        from repro.experiments.runner import EXPERIMENTS

        # Warm every cache and memo untraced first, so none of the
        # traced runs below sees cold-path-only spans.
        run_all(jobs=1)

        serial_out, serial_names = self._traced_run_all(1)
        parallel_out, parallel_names = self._traced_run_all(2)
        repeat_out, repeat_names = self._traced_run_all(2)

        assert serial_out == parallel_out == repeat_out
        assert serial_names == parallel_names == repeat_names
        for name in EXPERIMENTS:
            assert f"experiment:{name}" in serial_names
        assert "run_all" in serial_names
        assert "suite.collect" in serial_names


class TestRenderOrdering:
    """`repro stats` output is grouped by metric type and sorted by
    name within each group — byte-identical however (and in whatever
    order) the metrics were registered."""

    def test_table_groups_counters_gauges_histograms(self):
        # Register deliberately out of order.
        obs.observe("z.hist", 1.0)
        obs.set_gauge("a.gauge", 2)
        obs.incr("m.counter")
        obs.incr("b.counter")
        obs.observe("a.hist", 3.0)
        lines = obs.render_metrics().splitlines()[1:]
        names = [line.split()[0] for line in lines]
        assert names == [
            "b.counter", "m.counter", "a.gauge", "a.hist", "z.hist",
        ]

    def test_table_identical_across_registration_order(self):
        obs.incr("x.one")
        obs.observe("x.two", 1.0)
        obs.set_gauge("x.three", 5)
        first = obs.render_metrics()
        obs.reset_metrics()
        obs.set_gauge("x.three", 5)
        obs.observe("x.two", 1.0)
        obs.incr("x.one")
        assert obs.render_metrics() == first


class TestCompiledBackendExport:
    """compile.* spans and counters survive the JSONL trace
    round-trip and the cross-process worker absorb — the compiled
    backend is as observable from a merged parent as from the process
    that did the compiling."""

    SOURCE = """
    int main(void) {
        int i;
        int n = 0;
        for (i = 0; i < 3; i = i + 1) { n = n + 1; }
        return n;
    }
    """

    def _compile_fresh(self, name):
        from repro.compile import backend
        from repro.program import Program

        # A fresh Program defeats the per-object module memo, so the
        # compile.program span is emitted every time; the codegen
        # cache may hit (that is part of what the counters record).
        program = Program.from_source(self.SOURCE, name)
        backend.compile_program(program)

    def test_compile_spans_survive_jsonl_round_trip(self, tmp_path):
        obs.enable_tracing()
        with obs.span("worker.task"):
            self._compile_fresh("jsonl-roundtrip")
        obs.disable_tracing()
        names = obs.span_names(obs.trace_roots())
        assert "compile.program" in names
        path, count = obs.write_trace_jsonl(
            str(tmp_path / "compile-trace.jsonl")
        )
        assert count >= 2
        back = obs.read_trace_jsonl(path)
        assert obs.span_names(back) == names
        # The program attribute survives too.
        rendered = obs.render_span_tree(back, full=True)
        assert "compile.program" in rendered
        assert "program=jsonl-roundtrip" in rendered

    def test_compile_observability_survives_absorb(self, tmp_path):
        capture = obs.WorkerCapture(trace=True)
        with capture:
            with obs.span("worker.task"):
                self._compile_fresh("absorb-roundtrip")
        def flat_names(nodes):
            for node in nodes:
                yield node["name"]
                yield from flat_names(node.get("children", []))

        assert "compile.program" in set(
            flat_names(capture.snapshot["spans"])
        )
        assert any(
            name.startswith("compile.")
            for name in capture.snapshot["metrics"]
        )
        functions_delta = capture.snapshot["metrics"]["compile.functions"]

        # Simulate the process boundary: a clean parent registry and
        # trace absorb the worker snapshot (ship it through JSON the
        # way the pipeline does).
        shipped = json.loads(json.dumps(capture.snapshot))
        obs.reset_metrics()
        obs.reset_trace()
        obs.enable_tracing()
        with obs.span("suite.collect"):
            obs.absorb(shipped)
        obs.disable_tracing()
        assert obs.counter_value("compile.functions") == (
            functions_delta["value"]
        )
        names = obs.span_names(obs.trace_roots())
        assert "compile.program" in names

        # And the merged tree still exports/imports coherently.
        path, _ = obs.write_trace_jsonl(
            str(tmp_path / "absorbed-trace.jsonl")
        )
        assert obs.span_names(obs.read_trace_jsonl(path)) == names


class TestTraceIdentity:
    """W3C traceparent parsing/formatting and id minting."""

    def test_new_ids_are_hex_and_unique(self):
        trace_ids = {obs.new_trace_id() for _ in range(32)}
        span_ids = {obs.new_span_id() for _ in range(32)}
        assert len(trace_ids) == 32 and len(span_ids) == 32
        assert all(
            len(t) == 32 and int(t, 16) >= 0 for t in trace_ids
        )
        assert all(
            len(s) == 16 and int(s, 16) >= 0 for s in span_ids
        )

    def test_round_trip(self):
        trace_id = obs.new_trace_id()
        span_id = obs.new_span_id()
        header = obs.format_traceparent(trace_id, span_id)
        assert header == f"00-{trace_id}-{span_id}-01"
        assert obs.parse_traceparent(header) == (trace_id, span_id)

    def test_case_and_whitespace_tolerant(self):
        trace_id = "a" * 32
        span_id = "b" * 16
        header = f"  00-{trace_id.upper()}-{span_id.upper()}-01  "
        assert obs.parse_traceparent(header) == (trace_id, span_id)

    @pytest.mark.parametrize(
        "value",
        [
            "",
            "garbage",
            "00-short-b0b0b0b0b0b0b0b0-01",
            "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
            "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # version ff
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # zero parent
        ],
    )
    def test_rejects_malformed(self, value):
        assert obs.parse_traceparent(value) is None


class TestRequestBuffer:
    """Request-scoped span capture, independent of process tracing."""

    def test_buffer_records_with_tracing_off(self):
        assert not obs.tracing_enabled()
        with obs.request_buffer() as buffer:
            with obs.span("serve.request"):
                with obs.span("serve.analyze"):
                    pass
        assert [root.name for root in buffer.roots] == ["serve.request"]
        assert [
            child.name for child in buffer.roots[0].children
        ] == ["serve.analyze"]
        # Nothing leaked into the process-global trace.
        assert obs.trace_roots() == []
        # And the buffer is gone once the request scope closes.
        assert obs.current_buffer() is None
        assert obs.current_trace_id() is None

    def test_buffer_id_visible_inside_scope(self):
        with obs.request_buffer("f" * 32) as buffer:
            assert buffer.trace_id == "f" * 32
            assert obs.current_trace_id() == "f" * 32

    def test_buffer_and_global_roots_with_tracing_on(self):
        obs.enable_tracing()
        with obs.request_buffer() as buffer:
            with obs.span("serve.request"):
                pass
        assert [root.name for root in buffer.roots] == ["serve.request"]
        # With tracing enabled the same root is also globally visible
        # (so `repro trace` still sees serve traffic).
        assert [root.name for root in obs.trace_roots()] == [
            "serve.request"
        ]

    def test_copied_context_parents_across_threads(self):
        """The scheduler's copy_context() hop: a span opened on a
        worker thread parents under the request span that was open
        when the context was captured."""
        with obs.request_buffer() as buffer:
            with obs.span("serve.request"):
                captured = contextvars.copy_context()

                def work():
                    with obs.span("serve.batch"):
                        with obs.span("serve.analyze"):
                            pass

                thread = threading.Thread(
                    target=captured.run, args=(work,)
                )
                thread.start()
                thread.join()
        (request,) = buffer.roots
        assert [c.name for c in request.children] == ["serve.batch"]
        assert [
            c.name for c in request.children[0].children
        ] == ["serve.analyze"]


class TestPercentiles:
    """Histogram sample reservoirs, percentiles, and exemplars."""

    def test_nearest_rank_small(self):
        assert obs.sample_percentiles([]) is None
        assert obs.sample_percentiles(None) is None
        assert obs.sample_percentiles([7.0]) == {
            "p50": 7.0, "p95": 7.0, "p99": 7.0,
        }
        values = [float(v) for v in range(1, 101)]
        result = obs.sample_percentiles(values)
        # Nearest rank over 0..99 indexes of the sorted values.
        assert result["p50"] == 51.0
        assert result["p95"] == 95.0
        assert result["p99"] == 99.0

    def test_reservoir_exact_under_cap(self):
        from repro.obs.metrics import SAMPLE_CAP, histogram

        for value in (3.0, 1.0, 2.0):
            obs.observe("h", value)
        assert histogram("h").samples == [3.0, 1.0, 2.0]
        assert len(histogram("h").samples) <= SAMPLE_CAP

    def test_reservoir_bounded_past_cap(self):
        from repro.obs.metrics import SAMPLE_CAP, histogram

        for value in range(SAMPLE_CAP * 2):
            obs.observe("h", float(value))
        target = histogram("h")
        assert target.count == SAMPLE_CAP * 2
        assert len(target.samples) == SAMPLE_CAP
        # Replacement keeps tracking the stream: recent values present.
        assert any(v >= SAMPLE_CAP for v in target.samples)

    def test_exemplar_recorded_and_rendered(self):
        obs.observe("lat", 5.0, exemplar="a" * 32)
        snapshot = obs.metrics_snapshot()
        assert snapshot["lat"]["exemplar"] == {
            "value": 5.0,
            "trace_id": "a" * 32,
        }
        prom = obs.render_prometheus()
        assert 'repro_lat_count 1 # {trace_id="' + "a" * 32 in prom

    def test_table_shows_percentiles(self):
        for value in (1.0, 2.0, 3.0, 4.0):
            obs.observe("lat", value)
        table = obs.render_metrics()
        assert "p50=" in table and "p95=" in table and "p99=" in table

    def test_prometheus_quantile_series(self):
        for value in (1.0, 2.0, 3.0, 4.0):
            obs.observe("lat", value)
        prom = obs.render_prometheus()
        assert 'repro_lat{quantile="0.5"}' in prom
        assert 'repro_lat{quantile="0.95"}' in prom
        assert 'repro_lat{quantile="0.99"}' in prom

    def test_delta_and_merge_preserve_samples(self):
        obs.observe("h", 1.0)
        base = obs.metrics_snapshot()
        obs.observe("h", 2.0, exemplar="c" * 32)
        obs.observe("h", 3.0)
        delta = obs.metrics_delta(base)
        assert delta["h"]["count"] == 2
        assert delta["h"]["samples"] == [2.0, 3.0]
        assert delta["h"]["exemplar"]["trace_id"] == "c" * 32
        # A fresh registry absorbing the delta reconstructs the
        # distribution (jobs-N parity for percentiles).
        obs.reset_metrics()
        obs.observe("h", 1.0)
        obs.merge_metrics(delta)
        snapshot = obs.metrics_snapshot()
        assert snapshot["h"]["count"] == 3
        assert sorted(snapshot["h"]["samples"]) == [1.0, 2.0, 3.0]
        assert snapshot["h"]["exemplar"]["trace_id"] == "c" * 32
