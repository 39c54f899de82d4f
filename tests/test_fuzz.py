"""Tests for the differential fuzzing subsystem (repro.fuzz)."""

from __future__ import annotations

import os

import pytest

import repro.analysis.session as session_mod
import repro.linalg.sparse as sparse_mod
from repro.analysis.session import AnalysisSession
from repro.fuzz import corpus
from repro.fuzz import (
    CaseOutcome,
    check_program,
    derive_case_seed,
    fuzz_run,
    generate_program,
    generate_source,
    list_cases,
    load_metadata,
    oracle_names,
    resolve_case,
    save_case,
    save_reduction,
    shrink_case,
)
from repro.fuzz.oracles import OracleContext, check_flow_conservation
from repro.fuzz.shrink import top_level_chunks
from repro.interp.machine import run_program
from repro.program import Program

#: Seeds known to generate small programs (fast to check and shrink).
SMALL_SEEDS = (74, 89, 4)


@pytest.fixture
def fuzz_corpus_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return str(tmp_path / "fuzz")


@pytest.fixture
def markov_fault(monkeypatch, tmp_path):
    """Perturb every solved flow vector: a classic estimator bug.

    Also points the store at a fresh directory — clean analysis
    results cached by other tests would otherwise mask the fault
    (exactly the staleness the cache_round_trip oracle isolates
    against with its own temp directory).
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    real_solve = session_mod.solve_flow_system

    def bad_solve(cfg, transitions, method="auto"):
        flows = real_solve(cfg, transitions, method)
        return {k: v * 1.35 + 2.0 for k, v in flows.items()}

    monkeypatch.setattr(session_mod, "solve_flow_system", bad_solve)


class TestGenerator:
    def test_same_seed_is_byte_identical(self):
        for seed in (0, 1, 17, 12345):
            assert generate_source(seed) == generate_source(seed)

    def test_different_seeds_differ(self):
        assert generate_source(0) != generate_source(1)

    def test_generated_program_record(self):
        generated = generate_program(5)
        assert generated.seed == 5
        assert generated.name == "fuzz_5"
        assert generated.source == generate_source(5)

    def test_case_seed_derivation_is_stable_and_spread(self):
        assert derive_case_seed(0, 0) == derive_case_seed(0, 0)
        seeds = {derive_case_seed(0, index) for index in range(50)}
        seeds |= {derive_case_seed(1, index) for index in range(50)}
        assert len(seeds) == 100

    def test_generated_programs_compile_and_terminate(self):
        for seed in range(20):
            source = generate_source(seed)
            program = Program.from_source(source, f"fuzz_{seed}")
            result = run_program(program, input_name=f"fuzz_{seed}")
            assert result.status == 0, source

    def test_generated_programs_cover_constructs(self):
        corpus = "\n".join(generate_source(seed) for seed in range(20))
        for construct in (
            "while (",
            "for (",
            "switch (",
            "if (",
            "table[",
            "printf(",
            "return",
        ):
            assert construct in corpus


class TestOracles:
    def test_oracle_names(self):
        assert oracle_names() == [
            "flow_conservation",
            "markov_vs_simulation",
            "sparse_vs_dense",
            "cache_round_trip",
            "profile_round_trip",
            "weight_matching_bounds",
            "compiled_vs_interpreter",
        ]

    def test_clean_programs_pass_every_oracle(self):
        for seed in SMALL_SEEDS:
            generated = generate_program(seed)
            report = check_program(generated.source, generated.name)
            assert report.ok, report.failures
            assert report.oracles_run == oracle_names()

    def test_tampered_profile_violates_flow_conservation(self):
        generated = generate_program(SMALL_SEEDS[0])
        report = check_program(generated.source, generated.name)
        assert report.ok
        profile = report.profile
        counts = profile.block_counts["main"]
        block_id = sorted(counts)[0]
        counts[block_id] += 3.0
        program = Program.from_source(generated.source, generated.name)
        context = OracleContext(
            program=program,
            profile=profile,
            session=AnalysisSession.of(program),
        )
        violations = check_flow_conservation(context)
        assert violations

    def test_injected_markov_fault_is_caught(self, markov_fault):
        generated = generate_program(SMALL_SEEDS[0])
        report = check_program(generated.source, generated.name)
        assert "markov_vs_simulation" in report.failing_oracles

    def test_injected_sparse_fault_is_caught(self, monkeypatch):
        real_sparse = sparse_mod.solve_sparse_system

        def bad_sparse(rows, rhs, tolerance=1e-12):
            solution = real_sparse(rows, rhs, tolerance=tolerance)
            return [value * 1.01 + 0.5 for value in solution]

        monkeypatch.setattr(
            sparse_mod, "solve_sparse_system", bad_sparse
        )
        generated = generate_program(SMALL_SEEDS[0])
        report = check_program(generated.source, generated.name)
        assert "sparse_vs_dense" in report.failing_oracles

    def test_frontend_rejection_reported_not_raised(self):
        report = check_program("int main(void) { return 0 +; }\n")
        assert report.failing_oracles == ["frontend"]

    def test_missing_main_is_an_interp_failure(self):
        report = check_program("int helper(int x) { return x; }\n")
        assert report.failing_oracles == ["interp"]


class TestShrink:
    def test_shrink_reduces_injected_fault_case(self, markov_fault):
        generated = generate_program(SMALL_SEEDS[0])
        report = check_program(generated.source, generated.name)
        assert not report.ok
        result = shrink_case(
            generated.source, report.failing_oracles, max_checks=600
        )
        assert result.reduced
        assert result.reduced_lines <= 25
        replay = check_program(result.source, "<min>")
        assert set(report.failing_oracles) & set(replay.failing_oracles)

    def test_shrink_on_passing_case_is_identity(self):
        generated = generate_program(SMALL_SEEDS[0])
        result = shrink_case(generated.source)
        assert not result.reduced
        assert result.source == generated.source

    def test_top_level_chunks_round_trip(self):
        source = generate_source(SMALL_SEEDS[0])
        chunks = top_level_chunks(source)
        assert len(chunks) > 1
        joined = "\n".join(
            line for chunk in chunks for line in chunk
        ) + "\n"
        assert joined == source


class TestCorpus:
    def test_save_resolve_round_trip(self, fuzz_corpus_dir):
        source = generate_source(3)
        key = save_case(source, {"seed": 3, "origin": "test"})
        resolved_key, resolved = resolve_case(key)
        assert (resolved_key, resolved) == (key, source)
        # A unique prefix also resolves.
        assert resolve_case(key[:10]) == (key, source)
        metadata = load_metadata(key)
        assert metadata["seed"] == 3
        assert metadata["key"] == key

    def test_resolve_rejects_unknown_and_ambiguous(self, fuzz_corpus_dir):
        with pytest.raises(KeyError):
            resolve_case("feedface")
        save_case("int main(void) { return 0; }\n")
        save_case("int main(void) { return 1; }\n")
        with pytest.raises(KeyError):
            resolve_case("")  # prefix of everything

    def test_resolve_path_outside_corpus(self, fuzz_corpus_dir, tmp_path):
        path = tmp_path / "external.c"
        path.write_text("int main(void) { return 0; }\n")
        key, source = resolve_case(str(path))
        assert source.startswith("int main")
        assert len(key) == 64

    def test_list_info_and_clear(self, fuzz_corpus_dir):
        assert corpus.NAMESPACE.directory == fuzz_corpus_dir
        assert list_cases() == []
        assert corpus.NAMESPACE.info()["entries"] == 0
        key_a = save_case("int main(void) { return 0; }\n", {"seed": 1})
        key_b = save_case("int main(void) { return 2; }\n", {"seed": 2})
        save_reduction(key_a, "int main(void) { }\n")
        cases = list_cases()
        assert [case["key"] for case in cases] == sorted([key_a, key_b])
        by_key = {case["key"]: case for case in cases}
        assert by_key[key_a]["has_reduction"] is True
        assert by_key[key_b]["has_reduction"] is False
        info = corpus.NAMESPACE.info()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        removed = corpus.NAMESPACE.clear()
        assert removed == 5  # 2 sources + 2 metadata + 1 reduction
        assert list_cases() == []


class TestRunner:
    def test_serial_and_parallel_reports_are_identical(
        self, fuzz_corpus_dir
    ):
        serial = fuzz_run(seed=0, count=6, jobs=1)
        parallel = fuzz_run(seed=0, count=6, jobs=2)
        assert serial.render() == parallel.render()
        assert serial.ok and parallel.ok
        assert serial.digest() == parallel.digest()

    def test_different_base_seeds_change_the_digest(self, fuzz_corpus_dir):
        assert (
            fuzz_run(seed=0, count=3, jobs=1).digest()
            != fuzz_run(seed=1, count=3, jobs=1).digest()
        )

    def test_failing_cases_are_saved_to_the_corpus(
        self, fuzz_corpus_dir, markov_fault
    ):
        report = fuzz_run(seed=0, count=2, jobs=1)
        assert not report.ok
        rendered = report.render()
        assert "FAIL case" in rendered
        saved = list_cases()
        assert len(saved) == len(report.failures)
        for case in saved:
            assert case["origin"] == "fuzz run"
            assert case["oracles"]
            assert case["base_seed"] == 0

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            fuzz_run(seed=0, count=0, jobs=1)

    def test_outcome_failing_oracles_deduplicate(self):
        outcome = CaseOutcome(
            index=0,
            seed=1,
            key="k",
            failures=[("a", "x"), ("b", "y"), ("a", "z")],
        )
        assert outcome.failing_oracles == ["a", "b"]
        assert not outcome.ok


def test_no_global_random_on_src_paths():
    """Fuzzed (and all other) src/ paths must not use the shared
    global ``random`` state: every RNG is an explicit, seeded
    ``random.Random`` instance."""
    src_root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    offenders = []
    for directory, _, files in os.walk(src_root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            if "import random" in text:
                # The only sanctioned form is instantiating
                # random.Random(seed); module-level functions like
                # random.random()/random.randint() share global state.
                stripped = text.replace("random.Random", "")
                if "random." in stripped.replace("import random", ""):
                    offenders.append(os.path.relpath(path, src_root))
    assert offenders == []
