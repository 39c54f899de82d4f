"""The compiled backend: parity with the interpreter, the codegen
cache, suite XL, and the ``compiled_vs_interpreter`` oracle.

The contract under test is strict: for every program both backends can
run, the compiled backend must reproduce the interpreter's exit
status, stdout, and profile **byte-for-byte** (JSON serialization,
dict insertion order included).  Parity is checked across the whole
registry (base suite + suite XL samples) and across hundreds of fuzz
seeds, which is what lets every other test and experiment in the repo
run on whichever backend ``REPRO_BACKEND`` selects.
"""

from __future__ import annotations

import os

import pytest

from repro.compile import (
    BACKENDS,
    DEFAULT_BACKEND,
    CompiledMachine,
    compile_program,
    machine_class,
    resolve_backend,
    run_program_backend,
)
from repro.compile import cache as codegen_cache
from repro.interp.machine import Machine
from repro.profiles.serialize import dumps_profile
from repro.program import Program
from repro.suite import registry


def _fingerprint(result) -> tuple[int, str, str]:
    return result.status, result.stdout, dumps_profile(result.profile)


def _run_both(program: Program, stdin: str = "", fuel: int = 50_000_000):
    interp = run_program_backend(
        program, stdin=stdin, fuel=fuel, backend="interp"
    )
    compiled = run_program_backend(
        program, stdin=stdin, fuel=fuel, backend="compiled"
    )
    return interp, compiled


def _assert_parity(program: Program, stdin: str = "") -> None:
    interp, compiled = _run_both(program, stdin=stdin)
    assert _fingerprint(interp) == _fingerprint(compiled)


# ----------------------------------------------------------------------
# Backend selection.


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend() == DEFAULT_BACKEND == "compiled"
    assert resolve_backend("interp") == "interp"
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    assert resolve_backend() == "interp"
    assert resolve_backend("compiled") == "compiled"
    monkeypatch.setenv("REPRO_BACKEND", "Compiled ")
    assert resolve_backend() == "compiled"
    with pytest.raises(ValueError):
        resolve_backend("jit")
    monkeypatch.setenv("REPRO_BACKEND", "nope")
    with pytest.raises(ValueError):
        resolve_backend()


def test_machine_class_mapping(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert machine_class("interp") is Machine
    assert machine_class("compiled") is CompiledMachine
    assert machine_class() is CompiledMachine
    assert set(BACKENDS) == {"interp", "compiled"}


# ----------------------------------------------------------------------
# Registry parity: every base-suite program, plus suite-XL samples.


@pytest.mark.parametrize("name", registry.program_names())
def test_suite_program_parity(name):
    """Every registry program, input 1, byte-identical both backends."""
    stdin = registry.program_inputs(name)[0]
    interp = registry.run_on_input(name, stdin, "input1", backend="interp")
    compiled = registry.run_on_input(
        name, stdin, "input1", backend="compiled"
    )
    assert _fingerprint(interp) == _fingerprint(compiled)
    assert not compile_program(registry.load_program(name)).fallback


@pytest.mark.parametrize("name", ["xl00", "xl23", "xl33", "xl49"])
def test_suite_xl_parity(name):
    interp = registry.run_on_input(name, "", "input1", backend="interp")
    compiled = registry.run_on_input(name, "", "input1", backend="compiled")
    assert _fingerprint(interp) == _fingerprint(compiled)
    # XL programs must lower completely: a fallback function would
    # silently shift the tier's profiling work back to the interpreter.
    assert not compile_program(registry.load_program(name)).fallback


def test_fuzz_seed_parity_200():
    """≥200 fuzz seeds run byte-identically under both backends."""
    from repro.fuzz.generator import derive_case_seed, generate_program

    mismatches = []
    for index in range(200):
        generated = generate_program(derive_case_seed(1994, index))
        program = Program.from_source(generated.source, generated.name)
        interp, compiled = _run_both(program, fuel=5_000_000)
        if _fingerprint(interp) != _fingerprint(compiled):
            mismatches.append(generated.seed)
    assert not mismatches, f"diverging seeds: {mismatches[:10]}"


# ----------------------------------------------------------------------
# Language-corner parity (features the suite exercises thinly).


@pytest.mark.parametrize(
    "source,stdin",
    [
        # Integer wrapping at every width, compound assignment, ++/--.
        (
            """
            int main(void) {
                char c = 120; unsigned char u = 250;
                short s = 32760; unsigned short w = 65530;
                int i = 2147483640; unsigned int v = 4294967290u;
                int k;
                for (k = 0; k < 16; k++) {
                    c += 3; u += 3; s += 5; w += 5; i += 7; v += 7;
                }
                printf("%d %d %d %d %d %u\\n", c, u, s, w, i, v);
                c--; u++; s--; w++; i--; v++;
                printf("%d %d %d %d %d %u\\n", c, u, s, w, i, v);
                return 0;
            }
            """,
            "",
        ),
        # Division/shift semantics and float conversions.
        (
            """
            int main(void) {
                int a = -7, b = 3;
                double d = 2.5;
                printf("%d %d %d %d\\n", a / b, a % b, a >> 1, a << 2);
                printf("%d %g\\n", (int)(a + d), d * 4.0);
                return 0;
            }
            """,
            "",
        ),
        # Pointers, arrays, structs, strings, stdin.
        (
            """
            struct point { int x; int y; };
            int sum(struct point *p, int n) {
                int total = 0, i;
                for (i = 0; i < n; i++) total += p[i].x + p[i].y;
                return total;
            }
            int main(void) {
                struct point pts[3];
                char buf[32];
                int i, c, len = 0;
                for (i = 0; i < 3; i++) { pts[i].x = i; pts[i].y = 2 * i; }
                while ((c = getchar()) != -1 && len < 31) buf[len++] = c;
                buf[len] = 0;
                printf("%s|%d|%d\\n", buf, len, sum(pts, 3));
                return 0;
            }
            """,
            "hello world",
        ),
        # Recursion, switch fall-through, function pointers.
        (
            """
            int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
            int twice(int n) { return 2 * n; }
            int main(void) {
                int (*f)(int) = fib;
                int total = 0, i;
                for (i = 0; i < 10; i++) {
                    switch (i % 3) {
                    case 0: total += f(i);
                    case 1: total += twice(i); break;
                    default: total -= 1;
                    }
                }
                f = twice;
                printf("%d %d\\n", total, f(21));
                return 0;
            }
            """,
            "",
        ),
    ],
)
def test_language_corner_parity(source, stdin):
    _assert_parity(Program.from_source(source, "<parity>"), stdin=stdin)


def test_fault_parity():
    """Faulting programs fault under both backends (diagnostic text may
    pin locations differently — see the lowering module docstring, so
    only the fault *kind* is compared)."""
    from repro.interp.errors import InterpreterError

    faults = [
        "int main(void) { int x = 5; return x / (x - x); }",
        "int main(void) { int a[4]; return a[9]; }",
        "int rec(int n) { return rec(n + 1); }\n"
        "int main(void) { return rec(0); }",
    ]

    def fault_of(program, backend):
        try:
            run_program_backend(program, backend=backend)
        except InterpreterError as error:
            return error.message.split(":")[0].strip()
        return None

    for source in faults:
        program = Program.from_source(source, "<fault>")
        interp = fault_of(program, "interp")
        compiled = fault_of(program, "compiled")
        assert interp is not None, source
        assert compiled is not None, source


def test_aggregate_parameter_falls_back():
    """Struct-by-value parameters take the interpreter path; mixed
    compiled/interpreted frames still produce identical results."""
    source = """
    struct pair { int a; int b; };
    int total(struct pair p) { return p.a + p.b; }
    int bump(int x) { return x + 1; }
    int main(void) {
        struct pair p;
        p.a = 3; p.b = 4;
        printf("%d\\n", bump(total(p)));
        return 0;
    }
    """
    program = Program.from_source(source, "<aggregate>")
    module = compile_program(program)
    assert "total" in module.fallback
    _assert_parity(program)


def test_result_types_cover_every_builtin():
    """The compiled backend's static builtin typing table covers every
    handler the runtime registers (a gap silently de-compiles every
    function calling that builtin)."""
    from repro.interp.libc import IMPLEMENTED_BUILTINS, RESULT_TYPES

    missing = sorted(IMPLEMENTED_BUILTINS - set(RESULT_TYPES))
    assert not missing, f"builtins without static result types: {missing}"


# ----------------------------------------------------------------------
# The codegen cache.


def test_codegen_cache_round_trip(tmp_path, monkeypatch):
    program = registry.load_program("xl00")
    from repro.compile.lower import lower_program

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    lowered = lower_program(program)
    key = codegen_cache.codegen_cache_key(program.source)
    assert codegen_cache.load_cached_code(key) is None
    code = compile(lowered.source, "<test>", "exec")
    codegen_cache.store_code(key, lowered.source, code)
    loaded = codegen_cache.load_cached_code(key)
    assert loaded is not None
    namespace: dict[str, object] = {}
    exec(loaded, namespace)
    assert set(namespace["FACTORIES"]) == set(
        program.function_names
    ) - set(lowered.fallback)
    info = codegen_cache.NAMESPACE.info()
    assert info["directory"] == str(tmp_path / "codegen")
    assert info["entries"] == 1  # one key: .py source + .code blob
    assert info["bytes"] > 0
    assert codegen_cache.NAMESPACE.clear() == 2
    assert codegen_cache.NAMESPACE.info()["entries"] == 0


def test_codegen_cache_key_tracks_compile_version(monkeypatch):
    source = "int main(void) { return 0; }"
    before = codegen_cache.codegen_cache_key(source)
    import repro.compile

    monkeypatch.setattr(
        repro.compile,
        "COMPILE_VERSION",
        repro.compile.COMPILE_VERSION + 1,
    )
    assert codegen_cache.codegen_cache_key(source) != before
    assert codegen_cache.codegen_cache_key("int x;") != before


def test_lowered_source_is_deterministic():
    from repro.compile.lower import lower_program

    program = Program.from_source(
        registry.program_source("compress"), "compress-copy"
    )
    assert (
        lower_program(program).source == lower_program(program).source
    )


# ----------------------------------------------------------------------
# Suite XL registry integration.


def test_xl_registry_shape():
    from repro.suite import xl

    names = registry.xl_program_names()
    assert len(names) == xl.XL_COUNT == 50
    assert names[0] == "xl00" and names[-1] == "xl49"
    assert registry.known_program_names("all") == (
        registry.program_names() + names
    )
    with pytest.raises(ValueError):
        registry.known_program_names("giant")
    assert registry.is_known_program("xl07")
    assert not registry.is_known_program("xl99")
    assert registry.program_inputs("xl07") == [""]
    assert registry.program_fuel("xl07") == xl.XL_BY_NAME["xl07"].fuel
    # Generation is pure: regenerating from scratch yields the bytes
    # the memo served.
    first = xl.xl_source("xl07")
    xl.xl_source.cache_clear()
    assert xl.xl_source("xl07") == first
    # The tier carries real scale: hundreds of functions in the larger
    # programs, thousands across the tier's metadata.
    program = registry.load_program("xl49")
    assert len(program.function_names) > 200


def test_xl_through_pipeline_jobs_parity(tmp_path, monkeypatch):
    """Suite-XL profiles are identical through the serial path and the
    multi-worker fan-out (workers re-derive the generated source)."""
    from repro.suite import collect_suite_profiles

    names = ["xl03", "xl11"]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = collect_suite_profiles(names, jobs=1, use_cache=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = collect_suite_profiles(names, jobs=2, use_cache=False)
    assert {
        name: [dumps_profile(p) for p in profiles]
        for name, profiles in serial.items()
    } == {
        name: [dumps_profile(p) for p in profiles]
        for name, profiles in parallel.items()
    }


def test_ledger_rows_identical_across_backends(tmp_path, monkeypatch):
    """`profile-suite --record` under each backend lands identical
    score rows — `repro compare` at --score-tol 0 sees no drift."""
    from repro.cli import main
    from repro.obs import ledger

    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    shard = ["cc", "xl05"]
    for backend in ("interp", "compiled"):
        status = main(
            ["profile-suite", *shard, "--record", "--no-cache",
             "--backend", backend]
        )
        assert status == 0
    runs = ledger.list_runs()
    assert len(runs) == 2
    newer, older = (ledger.run_detail(run) for run in runs)
    assert older.scores and older.scores == newer.scores
    comparison = ledger.compare_scores(
        older.scores, newer.scores, score_tol=0.0
    )
    assert comparison.ok, comparison.regressions


# ----------------------------------------------------------------------
# The compiled_vs_interpreter oracle.


def test_oracle_runs_and_passes():
    from repro.fuzz import check_program, oracle_names
    from repro.fuzz.generator import generate_program

    assert "compiled_vs_interpreter" in oracle_names()
    generated = generate_program(424242)
    for backend in ("interp", "compiled"):
        report = check_program(
            generated.source, generated.name, backend=backend
        )
        assert report.ok, [f.render() for f in report.failures]
        assert "compiled_vs_interpreter" in report.oracles_run


def test_oracle_detects_profile_divergence():
    from repro.analysis.session import AnalysisSession
    from repro.fuzz.oracles import (
        OracleContext,
        check_compiled_vs_interpreter,
    )

    program = Program.from_source(
        "int main(void) { printf(\"%d\\n\", 7); return 0; }", "<oracle>"
    )
    result = run_program_backend(
        program, input_name="<fuzz>", backend="compiled"
    )
    context = OracleContext(
        program=program,
        profile=result.profile,
        session=AnalysisSession.of(program),
        result=result,
        fuel=5_000_000,
        backend="compiled",
    )
    assert check_compiled_vs_interpreter(context) == []
    # Tamper with one block count: the mirror run must expose it.
    tampered = next(iter(result.profile.block_counts))
    first_block = next(iter(result.profile.block_counts[tampered]))
    result.profile.block_counts[tampered][first_block] += 1.0
    violations = check_compiled_vs_interpreter(context)
    assert violations and "profile" in violations[0]


def test_compile_metrics_and_spans(monkeypatch, tmp_path):
    """The obs layer sees codegen: compile.* spans under tracing and
    compile.* counters in the metrics registry.  A warm codegen cache
    skips lowering altogether."""
    from repro.obs import (
        forced_tracing,
        metrics_delta,
        metrics_snapshot,
        trace_roots,
    )

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = Program.from_source(
        "int main(void) { return 0; }", "<obs-compile>"
    )
    before = metrics_snapshot()
    with forced_tracing(True):
        run_program_backend(program, backend="compiled")
        roots = trace_roots()
    delta = metrics_delta(before)
    names = set()

    def visit(spans):
        for item in spans:
            names.add(item.name)
            visit(item.children)

    visit(roots)
    assert "compile.program" in names
    assert "compile.lower" in names
    assert delta.get("compile.functions", {}).get("value", 0) >= 1
    assert "compile.source_bytes" in delta
    assert "compile.cache.stores" in delta
    assert "compile.cache.misses" in delta

    # The same source in a fresh program (a later process, in effect)
    # loads the stored code: one hit, no miss, and nothing lowered.
    import repro.compile.lower

    def no_lowering(program):
        raise AssertionError(f"{program.name} was lowered again")

    monkeypatch.setattr(repro.compile.lower, "lower_program", no_lowering)
    before = metrics_snapshot()
    again = Program.from_source(program.source, "<obs-compile>")
    assert run_program_backend(again, backend="compiled").status == 0
    delta = metrics_delta(before)
    assert delta.get("compile.cache.hits", {}).get("value", 0) == 1
    assert "compile.cache.misses" not in delta


def test_lowering_leaves_no_cyclic_garbage():
    """Lowering allocates nothing that only the cyclic collector frees:
    codegen runs on every cold profile and every attribution request."""
    import gc
    from collections import Counter

    from repro.compile.lower import lower_program

    program = registry.load_program("compress")
    # Until nothing is found: freeing one cycle can orphan another
    # (an earlier test's generated-module namespace, say).
    while gc.collect():
        pass
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        lowered = lower_program(program)
        gc.collect()
        garbage = Counter(type(item).__name__ for item in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert lowered.source
    assert not garbage, garbage.most_common(5)
