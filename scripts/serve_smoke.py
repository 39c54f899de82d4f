#!/usr/bin/env python3
"""CI smoke test for the analysis daemon.

Starts ``python -m repro serve`` as a real subprocess, waits for its
ready line, and sends a cold pass of novel sources followed by warm
repeats of the same sources: every warm answer must come from the
session pool (``server.cache == "hit"``, and ``serve.pool.hits`` grows
by at least the number of warm repeats) and the warm median latency
must stay below the cold one.  It then fires a 64-way concurrent burst
mixing repeat sources, novel sources, and one malformed source (the
structured-400 path): every 200 payload, minus its ``server`` block,
must equal the in-process ``build_report`` for the same source.  It
checks ``/metrics``: every repeat request after the first for its
source must be a pool hit or join an in-flight job, and per-tenant
counters must show.  Hostile sources
(nesting and macro-expansion bombs, non-ASCII identifiers and digits)
must each get a structured 400 within two seconds, with no internal
error counted.  It
then exercises the observability surface: a W3C ``traceparent``
round-trip, flight-recorder retention of injected errors
(``/debug/traces?kind=errors``), span trees on ``/debug/slow``, and an
on-demand flamegraph from ``/debug/profile``.  Finally it fires
a second wave and SIGTERMs the server while that wave is in flight:
every accepted request must complete (200) or be refused up front
(503) — never dropped — and the process must exit 0 (clean drain).

Run from the repo root (``python scripts/serve_smoke.py``).  Set
``SERVE_SMOKE_JSON`` to write the latency/metrics report,
``SERVE_SMOKE_PROFILE`` to save the flamegraph SVG, and
``SERVE_SMOKE_FLIGHT`` to dump the flight-recorder rings (all three
are uploaded as CI artifacts).  Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.analysis.session import session_for_source  # noqa: E402
from repro.serve import ServeClient, build_report  # noqa: E402

#: Concurrent clients in the burst (the acceptance floor).
CONCURRENCY = 64
#: Requests per client in the burst.
ROUNDS = 2
#: Distinct repeat sources shared across the burst.
REPEATS = 8
#: Clients in the in-flight wave that SIGTERM interrupts.
DRAIN_WAVE = 16
#: Sources in the cold/warm pool check, and warm passes over them.
POOL_SOURCES = 8
POOL_ROUNDS = 2

MALFORMED = "int main( { return 0 }\n"

#: Seconds a hostile source may take to be rejected.
HOSTILE_DEADLINE_S = 2.0

#: Sources past the frontend's input rules: each must be a 400 with a
#: location, never a 500, and within HOSTILE_DEADLINE_S, so a budget
#: that stopped bounding the work cannot pass as a slow 400.
HOSTILE = [
    (
        "parentheses",
        "int f(int x) { return " + "(" * 200 + "x" + ")" * 200 + "; }\n",
    ),
    ("flat_sum", "int f(int x) { return x" + "+x" * 4999 + "; }\n"),
    (
        "macro_bomb",
        "#define A x+x+x+x\n#define B A+A+A+A\n#define C B+B+B+B\n"
        "#define D C+C+C+C\n#define E D+D+D+D\n#define F E+E+E+E\n"
        "#define G F+F+F+F\nint f(int x) { return G; }\n",
    ),
    (
        "expansion_chain",
        "#define A x+x+x+x\n#define B A+A+A+A\n#define C B+B+B+B\n"
        "#define D C+C+C+C\n#define E D+D+D+D\n#define F E+E+E+E\n"
        "#define G F+F+F+F\n#define H G+G+G+G\n#define I H+H+H+H\n"
        "#define J I+I+I+I\nint f(int x) { return J; }\n",
    ),
    ("identifier", "int café = 1;\nint main(void) { return 0; }\n"),
    ("digit", "int x;\nint main(void) { x = ²; return x; }\n"),
]

_CHECKS: list[bool] = []


def check(ok: bool, label: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    _CHECKS.append(bool(ok))


def _source(index: int) -> str:
    return (
        f"int work{index}(int x) {{\n"
        f"    int j; int total; total = 0;\n"
        f"    for (j = 0; j < {4 + index % 5}; j = j + 1) {{\n"
        f"        if (j % 2 == 0) {{ total = total + x; }}\n"
        f"        else {{ total = total - 1; }}\n"
        f"    }}\n"
        f"    return total;\n"
        f"}}\n"
        f"int main() {{ return work{index}({index}); }}\n"
    )


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(
        len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))
    )
    return ordered[index]


def _metric_value(metrics: str, name: str) -> float:
    for line in metrics.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[-1])
    return 0.0


def main() -> int:
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "4",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert process.stdout is not None
    try:
        ready = process.stdout.readline().strip()
        match = re.search(r"http://([^\s:]+):(\d+)", ready)
        if not match:
            print(f"FAIL no ready line from the daemon (got {ready!r})")
            process.kill()
            return 1
        host, port = match.group(1), int(match.group(2))
        print(f"daemon ready at {host}:{port} (pid {process.pid})")

        # ------------------------------------------------------------
        # Pool: a cold pass, then warm repeats answered from the pool.
        # The pid salt keeps the cold pass cold when the disk analysis
        # cache survives from an earlier smoke run.
        probe = ServeClient(host, port, timeout=30)
        pool_sources = [
            _source(4000 + index) + f"// smoke {process.pid}\n"
            for index in range(POOL_SOURCES)
        ]
        hits_before = _metric_value(
            probe.metrics(), "repro_serve_pool_hits_total"
        )
        cold: list[float] = []
        warm: list[float] = []
        warm_caches: list[object] = []
        for round_ in range(1 + POOL_ROUNDS):
            for index, source in enumerate(pool_sources):
                clock = time.perf_counter()
                response = probe.analyze(source, name=f"pool{index}.c")
                elapsed = time.perf_counter() - clock
                if round_ == 0:
                    cold.append(elapsed)
                    continue
                warm.append(elapsed)
                warm_caches.append(
                    response.payload["server"]["cache"]
                    if response.status == 200
                    else response.status
                )
        metrics = probe.metrics()
        hits_after_pool = _metric_value(
            metrics, "repro_serve_pool_hits_total"
        )
        coalesced_after_pool = _metric_value(
            metrics, "repro_serve_batch_coalesced_total"
        )
        pool_hits = hits_after_pool - hits_before
        check(
            warm_caches == ["hit"] * len(warm),
            f"every warm repeat is a pool hit ({warm_caches.count('hit')}"
            f"/{len(warm)})",
        )
        check(
            pool_hits >= len(warm),
            f"serve.pool.hits grew by {pool_hits:.0f} over {len(warm)} "
            "warm repeats",
        )
        cold_p50 = _percentile(cold, 0.50)
        warm_p50 = _percentile(warm, 0.50)
        check(
            warm_p50 < cold_p50,
            f"warm p50 {warm_p50 * 1000:.2f}ms below cold p50 "
            f"{cold_p50 * 1000:.2f}ms",
        )

        # ------------------------------------------------------------
        # Burst: repeat + novel + one malformed source, two tenants.
        statuses: list[int] = []
        latencies: list[float] = []
        answers: list[tuple[str, str, dict]] = []
        malformed: list[tuple[int, dict | None]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(CONCURRENCY)

        def client_main(worker: int) -> None:
            client = ServeClient(
                host, port, timeout=120, tenant=f"smoke{worker % 2}"
            )
            barrier.wait()
            for round_ in range(ROUNDS):
                if worker == 0 and round_ == 0:
                    response = client.analyze(MALFORMED, name="broken.c")
                    with lock:
                        malformed.append(
                            (response.status, response.payload)
                        )
                    continue
                if round_ % 2:
                    source = _source(1000 + worker)
                    name = f"novel{worker}.c"
                else:
                    source = _source(worker % REPEATS)
                    name = f"repeat{worker % REPEATS}.c"
                clock = time.perf_counter()
                response = client.analyze(source, name=name)
                elapsed = time.perf_counter() - clock
                with lock:
                    statuses.append(response.status)
                    latencies.append(elapsed)
                    if response.status == 200:
                        answers.append((source, name, response.payload))

        threads = [
            threading.Thread(target=client_main, args=(worker,))
            for worker in range(CONCURRENCY)
        ]
        burst_clock = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        burst_wall = time.perf_counter() - burst_clock

        expected = CONCURRENCY * ROUNDS - 1
        check(
            len(statuses) == expected,
            f"burst completed: {len(statuses)}/{expected} responses "
            f"in {burst_wall:.2f}s",
        )
        bad = [status for status in statuses if status != 200]
        check(not bad, f"burst all 200 (non-200: {bad[:10]})")
        status, payload = malformed[0] if malformed else (0, None)
        check(
            status == 400
            and isinstance(payload, dict)
            and set(payload) == {
                "error", "file", "line", "col", "trace_id",
            },
            f"malformed source -> structured 400 (got {status}, "
            f"{payload})",
        )
        # Concurrent workers must answer exactly as one serial,
        # in-process analysis of the same source does.
        expected: dict[tuple[str, str], dict] = {}
        mismatched: list[str] = []
        for source, name, served in answers:
            if (source, name) not in expected:
                report = build_report(
                    session_for_source(source, name), name=name
                )
                expected[source, name] = json.loads(json.dumps(report))
            served = {k: v for k, v in served.items() if k != "server"}
            if served != expected[source, name]:
                mismatched.append(name)
        check(
            bool(answers) and not mismatched,
            f"burst answers match in-process build_report "
            f"({len(answers) - len(mismatched)}/{len(answers)} payloads, "
            f"{len(expected)} sources; mismatched: {mismatched[:5]})",
        )

        # ------------------------------------------------------------
        # Metrics: every repeat request after the first for its source
        # either joins that source's in-flight job or hits the pool.
        metrics = probe.metrics()
        hits = (
            _metric_value(metrics, "repro_serve_pool_hits_total")
            - hits_after_pool
        )
        coalesced = (
            _metric_value(metrics, "repro_serve_batch_coalesced_total")
            - coalesced_after_pool
        )
        # Even rounds send repeat sources; worker 0's first sends the
        # malformed source instead.
        repeat_requests = CONCURRENCY * ((ROUNDS + 1) // 2) - 1
        check(
            hits + coalesced == repeat_requests - REPEATS,
            f"session pool served repeats ({hits:.0f} hits + "
            f"{coalesced:.0f} coalesced = "
            f"{repeat_requests - REPEATS} expected)",
        )
        for tenant in ("smoke0", "smoke1"):
            needle = f'tenant="{tenant}"'
            check(
                needle in metrics, f"per-tenant counters ({needle})"
            )
        for label, source in HOSTILE:
            clock = time.perf_counter()
            response = probe.analyze(source, name=f"{label}.c")
            elapsed = time.perf_counter() - clock
            payload = (
                response.payload if isinstance(response.payload, dict) else {}
            )
            check(
                response.status == 400
                and {"file", "line", "col"} <= set(payload)
                and elapsed < HOSTILE_DEADLINE_S,
                f"hostile {label} -> structured 400 in {elapsed:.2f}s (got "
                f"{response.status}, {payload.get('error')!r})",
            )
        metrics = probe.metrics()
        internal = _metric_value(
            metrics, "repro_serve_errors_total"
        ) + _metric_value(metrics, 'repro_serve_errors_total{class="5xx"}')
        check(
            internal == 0,
            f"no internal errors after hostile input ({internal:.0f})",
        )
        health = probe.healthz().payload or {}
        check(
            health.get("status") == "ok"
            and bool(health.get("version")),
            f"healthz ok, version {health.get('version')!r}",
        )

        # ------------------------------------------------------------
        # Tracing: W3C traceparent round-trips through the daemon.
        trace_id = "ab" * 16
        traced = probe.analyze(
            _source(1), name="traced.c",
            traceparent=f"00-{trace_id}-{'cd' * 8}-01",
        )
        check(
            traced.status == 200
            and traced.trace_id == trace_id
            and traced.payload["server"]["trace_id"] == trace_id,
            f"traceparent round-trip (echoed {traced.trace_id})",
        )

        # ------------------------------------------------------------
        # Flight recorder: injected failures survive the healthy burst.
        injected: set[str] = set()
        for index in range(5):
            bad = probe._request(
                "POST",
                "/v1/analyze",
                body=json.dumps(
                    {"source": _source(index), "backend": "nope"}
                ).encode(),
            )
            if bad.status == 400 and bad.trace_id:
                injected.add(bad.trace_id)
        flight = probe.traces(kind="errors").payload or {}
        retained = {
            record.get("trace_id")
            for record in flight.get("traces", [])
        }
        check(
            len(injected) == 5 and injected <= retained,
            f"flight recorder retained {len(injected & retained)}/"
            f"{len(injected)} injected errors",
        )
        slow = probe.slow(limit=5).payload or {}
        slow_records = slow.get("traces", [])
        check(
            bool(slow_records)
            and all(r.get("spans") for r in slow_records),
            f"/debug/slow returns span trees "
            f"({len(slow_records)} records)",
        )
        flight_target = os.environ.get("SERVE_SMOKE_FLIGHT")
        if flight_target:
            with open(flight_target, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "errors": flight,
                        "slow": slow,
                        "recent": probe.traces(limit=20).payload,
                    },
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
            print(f"flight dump -> {flight_target}")

        # ------------------------------------------------------------
        # Profiler: an on-demand flamegraph while traffic flows.
        noise_stop = threading.Event()

        def noise_main() -> None:
            client = ServeClient(host, port, timeout=120)
            index = 3000
            while not noise_stop.is_set():
                client.analyze(
                    _source(index), name=f"noise{index}.c"
                )
                index += 1

        noise = threading.Thread(target=noise_main)
        noise.start()
        try:
            svg = probe.profile(seconds=1.0, interval_ms=2.0)
        finally:
            noise_stop.set()
            noise.join()
        check(
            svg.status == 200
            and svg.text.startswith("<svg ")
            and "</svg>" in svg.text,
            f"/debug/profile returns a flamegraph SVG "
            f"({len(svg.text)} bytes)",
        )
        profile_target = os.environ.get("SERVE_SMOKE_PROFILE")
        if profile_target:
            with open(
                profile_target, "w", encoding="utf-8"
            ) as handle:
                handle.write(svg.text)
            print(f"flamegraph -> {profile_target}")

        # ------------------------------------------------------------
        # Drain: SIGTERM while a wave is in flight; zero drops.
        drain_results: list[object] = []

        def drain_main(worker: int) -> None:
            client = ServeClient(
                host, port, timeout=120, tenant="drain"
            )
            try:
                response = client.analyze(
                    _source(2000 + worker), name=f"drain{worker}.c"
                )
                outcome: object = response.status
            except OSError:
                # Connection refused after the listener closed: the
                # request was never accepted, so it cannot be dropped.
                outcome = "refused"
            with lock:
                drain_results.append(outcome)

        wave = [
            threading.Thread(target=drain_main, args=(worker,))
            for worker in range(DRAIN_WAVE)
        ]
        for thread in wave:
            thread.start()
        time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        for thread in wave:
            thread.join()
        exit_code = process.wait(timeout=60)

        check(exit_code == 0, f"clean drain exit (code {exit_code})")
        dropped = [
            outcome
            for outcome in drain_results
            if outcome not in (200, 503, "refused")
        ]
        served = sum(
            1 for outcome in drain_results if outcome == 200
        )
        check(
            len(drain_results) == DRAIN_WAVE and not dropped,
            f"drain dropped nothing ({served} served, "
            f"{sum(1 for o in drain_results if o == 503)} refused 503, "
            f"{sum(1 for o in drain_results if o == 'refused')} "
            f"never accepted; anomalies: {dropped})",
        )
        check(served > 0, "drain wave: at least one request served")

        report = {
            "concurrency": CONCURRENCY,
            "requests": len(statuses),
            "burst_wall_s": round(burst_wall, 5),
            "rps": int(len(statuses) / burst_wall) if burst_wall else 0,
            "latency_s": {
                "p50": round(_percentile(latencies, 0.50), 5),
                "p90": round(_percentile(latencies, 0.90), 5),
                "p99": round(_percentile(latencies, 0.99), 5),
            },
            "pool_hits": hits,
            "pool_latency_s": {
                "cold_p50": round(cold_p50, 5),
                "warm_p50": round(warm_p50, 5),
            },
            "drain": {
                "wave": DRAIN_WAVE,
                "served": served,
                "exit_code": exit_code,
            },
            "passed": all(_CHECKS),
        }
        text = json.dumps(report, indent=2, sort_keys=True)
        print(f"serve smoke report:\n{text}")
        target = os.environ.get("SERVE_SMOKE_JSON")
        if target:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)

    failed = _CHECKS.count(False)
    print(
        f"{len(_CHECKS) - failed}/{len(_CHECKS)} checks passed"
        + (f" ({failed} FAILED)" if failed else "")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
