"""Codegen-cost benchmarks: how long lowering + ``compile()`` takes,
how that compares to actually executing the generated module, and what
the content-addressed codegen cache saves on reload.

The split matters for the backend's economics: codegen is a one-time,
per-source cost amortized by the cache, while execution repeats per
input.  The report separates the three phases per subject so a
regression in either shows up independently:

* ``codegen_<name>``        — ``lower_program`` + ``compile()`` to a
  code object, no cache anywhere;
* ``exec_<name>``           — one full profiled run on the already
  compiled module (cache warm, so codegen is excluded);
* ``cached_load_<name>``    — loading the marshalled code object back
  from the codegen cache (the steady-state startup cost).

Subjects: ``compress`` (the classic hot-loop program) and ``xl33``
(a suite-XL program: dozens of generated units, a deep call chain).
Set ``REPRO_BENCH_SMOKE=1`` to drop the XL subject.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import run_once

_REPORT: dict[str, float] = {}
_COUNTS: dict[str, int] = {}

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in {
    "1",
    "yes",
    "on",
    "true",
}

_SUBJECTS = ["compress"] if _SMOKE else ["compress", "xl33"]


@pytest.fixture(scope="module", autouse=True)
def _emit_report():
    yield
    if not _REPORT:
        return
    report: dict[str, object] = {
        "smoke": _SMOKE,
        "subjects": list(_SUBJECTS),
        "seconds": {k: round(v, 4) for k, v in sorted(_REPORT.items())},
        "counts": dict(sorted(_COUNTS.items())),
    }
    payload = json.dumps(report, indent=2)
    print(f"\ncompile benchmark report:\n{payload}")
    target = os.environ.get("REPRO_BENCH_COMPILE_JSON")
    if target:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    from conftest import record_bench_report

    record_bench_report("bench-compile", report)


def _timed(name: str, function, *args, **kwargs):
    clock = time.perf_counter()
    result = function(*args, **kwargs)
    _REPORT[name] = time.perf_counter() - clock
    return result


@pytest.mark.parametrize("name", _SUBJECTS)
def test_bench_codegen(benchmark, name, tmp_path_factory, monkeypatch):
    """Lowering + compiling one program to Python bytecode, cold."""
    from repro.compile.lower import lower_program
    from repro.suite import load_program

    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp(f"codegen-{name}"))
    )
    program = load_program(name)  # frontend outside the measured region

    def codegen():
        lowered = lower_program(program)
        return lowered, compile(lowered.source, f"<{name}>", "exec")

    lowered, _ = run_once(
        benchmark, lambda: _timed(f"codegen_{name}", codegen)
    )
    assert not lowered.fallback
    _COUNTS[f"functions_{name}"] = lowered.function_count
    _COUNTS[f"source_bytes_{name}"] = len(lowered.source)


@pytest.mark.parametrize("name", _SUBJECTS)
def test_bench_execution(benchmark, name, tmp_path_factory, monkeypatch):
    """One profiled run on the compiled module, codegen cache warm —
    the repeating per-input cost the one-time codegen amortizes into."""
    from repro.suite import load_program, program_inputs, run_on_input

    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp(f"exec-{name}"))
    )
    program = load_program(name)
    stdin = program_inputs(name)[0]
    from repro.compile import compile_program

    compile_program(program)  # warm codegen + in-process memo
    result = run_once(
        benchmark,
        lambda: _timed(
            f"exec_{name}",
            run_on_input,
            name,
            stdin,
            "input1",
            backend="compiled",
        ),
    )
    assert result.status == 0
    assert result.profile.total_block_executions > 0


@pytest.mark.parametrize("name", _SUBJECTS)
def test_bench_cached_load(benchmark, name, tmp_path_factory, monkeypatch):
    """Reloading the marshalled code object from the codegen cache —
    what a fresh process pays instead of re-running codegen."""
    from repro.compile import cache as codegen_cache
    from repro.compile.lower import lower_program
    from repro.suite import load_program, program_source

    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp(f"load-{name}"))
    )
    program = load_program(name)
    lowered = lower_program(program)
    key = codegen_cache.codegen_cache_key(program_source(name))
    code = compile(lowered.source, f"<{name}>", "exec")
    codegen_cache.store_code(key, lowered.source, code)

    loaded = run_once(
        benchmark,
        lambda: _timed(
            f"cached_load_{name}",
            codegen_cache.load_cached_code,
            key,
        ),
    )
    assert loaded is not None
    # The cache's reason to exist: loading beats regenerating.
    if f"codegen_{name}" in _REPORT:
        assert (
            _REPORT[f"cached_load_{name}"] < _REPORT[f"codegen_{name}"]
        )
