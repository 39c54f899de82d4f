"""Profiling-pipeline benchmarks: cold cache, warm cache, parallel
fan-out, both execution backends, and the single-thread interpreter
hot loop.

Each benchmark records its wall time into a module-level report that is
printed as JSON at the end of the session (and written to the path in
``REPRO_BENCH_JSON``, when set), so runs can be compared across
revisions:

* ``suite_cold_serial``    — interpret every (program × input) pair,
  one process, empty cache (pinned to the ``interp`` backend so the
  series stays comparable across revisions);
* ``suite_cold_parallel``  — same work fanned out over workers;
* ``suite_warm``           — every pair served from the on-disk cache;
* ``suite_cold_compiled``  — compiled backend, empty profile *and*
  codegen caches: generate + ``compile()`` + execute everything;
* ``suite_cold_compiled_warm_codegen`` — compiled backend, empty
  profile cache but primed codegen cache (the steady state after any
  prior run on the same sources);
* ``interp_compress``      — one compress input, pure interpretation
  (the hot-loop microbenchmark).

Alongside ``seconds`` the report carries a ``backends`` map (which
backend each case ran under) and a ``cache`` map with profile-cache and
codegen-cache hit/miss/store counts per case, plus the headline
``speedup_cold_compiled`` ratio.  Set ``REPRO_BENCH_SMOKE=1`` to run
each case over the first three suite programs only.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import run_once

_REPORT: dict[str, float] = {}
_BACKENDS: dict[str, str] = {}
_CACHE: dict[str, dict[str, int]] = {}

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in {
    "1",
    "yes",
    "on",
    "true",
}

_CACHE_COUNTERS = (
    "profile_cache.hits",
    "profile_cache.misses",
    "profile_cache.stores",
    "compile.cache.hits",
    "compile.cache.misses",
    "compile.cache.stores",
)


def _bench_names() -> list[str]:
    from repro.suite import program_names

    names = program_names()
    return names[:3] if _SMOKE else names


@pytest.fixture(scope="module", autouse=True)
def _emit_report():
    yield
    if not _REPORT:
        return
    report: dict[str, object] = {
        "jobs_available": os.cpu_count() or 1,
        "smoke": _SMOKE,
        "seconds": {k: round(v, 3) for k, v in sorted(_REPORT.items())},
        "backends": dict(sorted(_BACKENDS.items())),
        "cache": {k: _CACHE[k] for k in sorted(_CACHE)},
    }
    cold = _REPORT.get("suite_cold_serial")
    compiled = _REPORT.get("suite_cold_compiled")
    if cold and compiled:
        report["speedup_cold_compiled"] = round(cold / compiled, 2)
    payload = json.dumps(report, indent=2)
    print(f"\nprofiling benchmark report:\n{payload}")
    target = os.environ.get("REPRO_BENCH_JSON")
    if target:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    from conftest import record_bench_report

    record_bench_report("bench-profiling", report)


def _timed(name: str, backend: str, function, *args, **kwargs):
    """Run ``function`` under ``backend`` bookkeeping: wall time into
    ``_REPORT``, cache-counter deltas into ``_CACHE``."""
    from repro.obs import metrics_delta, metrics_snapshot

    _BACKENDS[name] = backend
    before = metrics_snapshot()
    clock = time.perf_counter()
    result = function(*args, **kwargs)
    _REPORT[name] = time.perf_counter() - clock
    delta = metrics_delta(before)
    _CACHE[name] = {
        counter: int(delta.get(counter, {}).get("value", 0))
        for counter in _CACHE_COUNTERS
    }
    return result


def _fresh_cache(tmp_path_factory, monkeypatch, label: str) -> None:
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp(label)))


def test_bench_suite_cold_serial(
    benchmark, tmp_path_factory, monkeypatch
):
    from repro.profiles import cache as profile_cache
    from repro.suite import clear_caches, collect_suite_profiles

    names = _bench_names()
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    _fresh_cache(tmp_path_factory, monkeypatch, "cold-serial")
    clear_caches()
    profiles = run_once(
        benchmark,
        lambda: _timed(
            "suite_cold_serial",
            "interp",
            collect_suite_profiles,
            names,
            jobs=1,
        ),
    )
    assert len(profiles) == len(names)
    assert profile_cache.NAMESPACE.info()["entries"] == sum(
        len(p) for p in profiles.values()
    )


def test_bench_suite_cold_parallel(
    benchmark, tmp_path_factory, monkeypatch
):
    from repro.suite import clear_caches, collect_suite_profiles

    names = _bench_names()
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    _fresh_cache(tmp_path_factory, monkeypatch, "cold-parallel")
    clear_caches()
    jobs = max(2, os.cpu_count() or 1)
    profiles = run_once(
        benchmark,
        lambda: _timed(
            "suite_cold_parallel",
            "interp",
            collect_suite_profiles,
            names,
            jobs=jobs,
        ),
    )
    assert len(profiles) == len(names)


def test_bench_suite_warm(benchmark, tmp_path_factory, monkeypatch):
    from repro.suite import clear_caches, collect_suite_profiles

    names = _bench_names()
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    _fresh_cache(tmp_path_factory, monkeypatch, "warm")
    clear_caches()
    collect_suite_profiles(names, jobs=1)  # populate
    clear_caches()  # drop the in-process memo, keep the disk cache
    profiles = run_once(
        benchmark,
        lambda: _timed(
            "suite_warm", "interp", collect_suite_profiles, names, jobs=1
        ),
    )
    assert len(profiles) == len(names)
    # Warm collection must be dramatically cheaper than interpretation.
    if "suite_cold_serial" in _REPORT:
        assert _REPORT["suite_warm"] < _REPORT["suite_cold_serial"] / 10
    assert _CACHE["suite_warm"]["profile_cache.hits"] > 0
    assert _CACHE["suite_warm"]["profile_cache.misses"] == 0


def test_bench_suite_cold_compiled(
    benchmark, tmp_path_factory, monkeypatch
):
    """Compiled backend from nothing: every program is lowered,
    ``compile()``d, stored, and executed."""
    from repro.suite import clear_caches, collect_suite_profiles

    names = _bench_names()
    monkeypatch.setenv("REPRO_BACKEND", "compiled")
    _fresh_cache(tmp_path_factory, monkeypatch, "cold-compiled")
    clear_caches()
    profiles = run_once(
        benchmark,
        lambda: _timed(
            "suite_cold_compiled",
            "compiled",
            collect_suite_profiles,
            names,
            jobs=1,
        ),
    )
    assert len(profiles) == len(names)
    counters = _CACHE["suite_cold_compiled"]
    assert counters["compile.cache.misses"] > 0
    assert counters["compile.cache.stores"] > 0
    if "suite_cold_serial" in _REPORT and not _SMOKE:
        # The headline claim: codegen included, cold compiled profiling
        # beats cold interpretation outright (the committed report pins
        # the exact ratio; ≥5× on the reference machine).
        assert (
            _REPORT["suite_cold_compiled"] < _REPORT["suite_cold_serial"]
        )


def test_bench_suite_cold_compiled_warm_codegen(
    benchmark, tmp_path_factory, monkeypatch
):
    """Compiled backend with a primed codegen cache: profiles are still
    computed from scratch, but generated modules load from disk."""
    from repro.profiles import cache as profile_cache
    from repro.suite import clear_caches, collect_suite_profiles

    names = _bench_names()
    monkeypatch.setenv("REPRO_BACKEND", "compiled")
    _fresh_cache(tmp_path_factory, monkeypatch, "compiled-prime")
    clear_caches()
    collect_suite_profiles(names, jobs=1)  # prime the codegen cache
    profile_cache.NAMESPACE.clear()  # keep codegen, drop the profiles
    clear_caches()
    profiles = run_once(
        benchmark,
        lambda: _timed(
            "suite_cold_compiled_warm_codegen",
            "compiled",
            collect_suite_profiles,
            names,
            jobs=1,
        ),
    )
    assert len(profiles) == len(names)
    counters = _CACHE["suite_cold_compiled_warm_codegen"]
    assert counters["compile.cache.hits"] > 0
    assert counters["compile.cache.misses"] == 0


def test_bench_interpreter_hot_loop(benchmark):
    """Single-thread interpreter microbenchmark: compress, input 1,
    no caching anywhere."""
    from repro.suite import load_program, program_inputs, run_on_input

    load_program("compress")  # compile outside the measured region
    stdin = program_inputs("compress")[0]
    result = run_once(
        benchmark,
        lambda: _timed(
            "interp_compress",
            "interp",
            lambda: run_on_input(
                "compress", stdin, "input1", backend="interp"
            ),
        ),
    )
    assert result.status == 0
    assert result.profile.total_block_executions > 0
