"""Analysis-engine benchmarks: memoized sessions, the sparse Markov
solver, and the parallel experiment runner.

Each benchmark records its wall time into a module-level report that is
printed as JSON at the end of the session (and written to the path in
``REPRO_BENCH_ANALYSIS_JSON``, when set):

* ``session_cold``      — every analysis artifact (smart/markov intra,
  Markov invocations, call sites) computed from scratch on fresh
  programs, disk layer off;
* ``session_memoized``  — the same queries re-issued against the warm
  sessions (pure memo hits);
* ``session_disk_warm`` — fresh sessions served by the on-disk
  analysis cache (the cross-process path);
* ``solve_dense`` / ``solve_sparse`` — every suite CFG's Markov flow
  system solved with the method forced;
* ``run_all_serial`` / ``run_all_parallel`` — the full experiment
  driver, one process vs a worker pool (byte-identical by assertion).

``REPRO_BENCH_SMOKE=1`` shrinks the program set so CI can exercise
every code path in seconds.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import run_once

_REPORT: dict[str, object] = {}

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in {
    "1",
    "yes",
    "on",
    "true",
}

#: Queries issued against each session in the session benchmarks.
_SESSION_QUERIES = (
    ("intra", "smart"),
    ("intra", "markov"),
    ("invocations", "markov"),
    ("callsites", "markov"),
)


def _program_names() -> list[str]:
    from repro.suite import program_names

    names = program_names()
    return names[:3] if _SMOKE else names


@pytest.fixture(scope="module", autouse=True)
def _emit_report():
    yield
    if not _REPORT:
        return
    report = {
        "jobs_available": os.cpu_count() or 1,
        "smoke": _SMOKE,
        "programs": len(_program_names()),
        "seconds": {
            key: round(value, 3)
            for key, value in sorted(_REPORT.items())
            if isinstance(value, float)
        },
        "counts": {
            key: value
            for key, value in sorted(_REPORT.items())
            if isinstance(value, int)
        },
    }
    payload = json.dumps(report, indent=2)
    print(f"\nanalysis benchmark report:\n{payload}")
    target = os.environ.get("REPRO_BENCH_ANALYSIS_JSON")
    if target:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    from conftest import record_bench_report

    record_bench_report("bench-analysis", report)


def _timed(name: str, function, *args, **kwargs):
    clock = time.perf_counter()
    result = function(*args, **kwargs)
    _REPORT[name] = time.perf_counter() - clock
    return result


def _count_cache_traffic(name: str, prefix: str, function, *args):
    """Run ``function`` and record the ``<prefix>.hits``/``.misses``
    counter deltas it produced into the report as ``<name>_hits`` and
    ``<name>_misses``."""
    from repro.obs import counter_value

    hits_before = counter_value(f"{prefix}.hits")
    misses_before = counter_value(f"{prefix}.misses")
    result = function(*args)
    _REPORT[f"{name}_hits"] = int(
        counter_value(f"{prefix}.hits") - hits_before
    )
    _REPORT[f"{name}_misses"] = int(
        counter_value(f"{prefix}.misses") - misses_before
    )
    return result


def _fresh_sessions():
    """Sessions over freshly parsed programs — nothing shared with the
    suite registry's memo, so every analysis starts cold."""
    from repro.analysis.session import AnalysisSession
    from repro.program import Program
    from repro.suite import registry

    return [
        AnalysisSession.of(
            Program.from_source(registry.program_source(name), name)
        )
        for name in _program_names()
    ]


def _query_all(sessions) -> int:
    answered = 0
    for session in sessions:
        for kind, estimator in _SESSION_QUERIES:
            if kind == "intra":
                session.intra_estimates(estimator)
            elif kind == "invocations":
                session.invocations(estimator, "smart")
            else:
                session.call_site_frequencies(estimator, "smart")
            answered += 1
    return answered


def test_bench_session_cold_vs_memoized(benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    sessions = _fresh_sessions()

    def cold_then_memoized():
        _timed("session_cold", _query_all, sessions)
        _timed("session_memoized", _query_all, sessions)

    run_once(benchmark, cold_then_memoized)
    _REPORT["session_memo_hits"] = sum(
        session.stats.hits for session in sessions
    )
    assert all(session.stats.hits > 0 for session in sessions)
    # Memo hits return copies of finished artifacts; recomputation is
    # orders of magnitude slower.
    assert _REPORT["session_memoized"] < _REPORT["session_cold"] / 10


def test_bench_session_disk_cache(
    benchmark, tmp_path_factory, monkeypatch
):
    directory = tmp_path_factory.mktemp("analysis-cache")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    _query_all(_fresh_sessions())  # populate the store

    sessions = _fresh_sessions()  # fresh parses, warm disk
    run_once(
        benchmark,
        lambda: _count_cache_traffic(
            "analysis_cache",
            "analysis_cache",
            lambda: _timed("session_disk_warm", _query_all, sessions),
        ),
    )
    disk_hits = sum(session.stats.disk_hits for session in sessions)
    _REPORT["session_disk_hits"] = disk_hits
    assert disk_hits > 0
    assert _REPORT["analysis_cache_hits"] > 0


def test_bench_solver_dense_vs_sparse(benchmark):
    from repro.analysis.session import session_for_suite
    from repro.estimators.intra.markov import solve_flow_system

    systems = []
    for name in _program_names():
        session = session_for_suite(name)
        for function_name in session.program.function_names:
            systems.append(
                (
                    session.program.cfg(function_name),
                    session.transitions(function_name),
                )
            )
    _REPORT["flow_systems"] = len(systems)

    def solve_all(method: str):
        return [
            solve_flow_system(cfg, transitions, method=method)
            for cfg, transitions in systems
        ]

    def dense_then_sparse():
        dense = _timed("solve_dense", solve_all, "dense")
        sparse = _timed("solve_sparse", solve_all, "sparse")
        for dense_solution, sparse_solution in zip(dense, sparse):
            for block_id, value in dense_solution.items():
                assert sparse_solution[block_id] == pytest.approx(
                    value, abs=1e-8
                )

    run_once(benchmark, dense_then_sparse)


def test_bench_run_all_serial_vs_parallel(benchmark, warm_suite):
    from repro.experiments import run_all

    jobs = max(2, os.cpu_count() or 1)

    def both():
        serial = _timed("run_all_serial", run_all, jobs=1)
        parallel = _timed("run_all_parallel", run_all, jobs=jobs)
        assert parallel == serial

    run_once(
        benchmark,
        lambda: _count_cache_traffic("profile_cache", "profile_cache", both),
    )
