"""Tests for the parallel suite-profiling pipeline.

The expensive part (two full-suite interpretations: one serial with the
cache off, one fanned out over workers against an empty cache) happens
once in a module-scoped fixture; the tests then compare rendered
experiment output byte for byte.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import run_experiment
from repro.profiles import cache as profile_cache
from repro.profiles import profiles_equal
from repro.suite import (
    SUITE,
    clear_caches,
    collect_suite_profiles,
    program_inputs,
    program_names,
    resolve_jobs,
)
from repro.suite import registry


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == max(1, os.cpu_count() or 1)

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()


class TestInputPaths:
    def test_inputs_are_contiguous_and_ordered(self):
        for entry in SUITE:
            paths = registry.input_paths(entry.name)
            assert len(paths) >= 4
            for index, path in enumerate(paths, start=1):
                assert path.endswith(f"{entry.name}.{index}.txt")

    def test_gap_in_numbering_raises(self, tmp_path, monkeypatch):
        (tmp_path / "demo.1.txt").write_text("a")
        (tmp_path / "demo.3.txt").write_text("c")
        monkeypatch.setattr(registry, "INPUTS_DIR", str(tmp_path))
        with pytest.raises(FileNotFoundError, match="demo.2.txt"):
            registry.input_paths("demo")

    def test_unrelated_files_ignored(self, tmp_path, monkeypatch):
        (tmp_path / "demo.1.txt").write_text("a")
        (tmp_path / "demo.notes.txt").write_text("x")
        (tmp_path / "demo.1.txt.bak").write_text("x")
        monkeypatch.setattr(registry, "INPUTS_DIR", str(tmp_path))
        paths = registry.input_paths("demo")
        assert [os.path.basename(p) for p in paths] == ["demo.1.txt"]

    def test_no_inputs_is_empty(self, tmp_path, monkeypatch):
        monkeypatch.setattr(registry, "INPUTS_DIR", str(tmp_path))
        assert registry.input_paths("demo") == []

    def test_unknown_program_rejected(self):
        with pytest.raises(KeyError):
            collect_suite_profiles(["not-a-program"])


@pytest.fixture(scope="module")
def serial_vs_parallel(tmp_path_factory):
    """Collect every suite profile twice — serially with caching off,
    and through the worker fan-out against a fresh empty cache — and
    render the two suite-wide experiments from each."""
    figures = ("figure2", "figure5")

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv("REPRO_CACHE", "0")
        clear_caches()
        serial = collect_suite_profiles(jobs=1)
        serial_rendered = {name: run_experiment(name) for name in figures}

    parallel_cache = tmp_path_factory.mktemp("parallel-cache")
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv("REPRO_CACHE_DIR", str(parallel_cache))
        patcher.delenv("REPRO_CACHE", raising=False)
        clear_caches()
        parallel = collect_suite_profiles(jobs=2)
        parallel_rendered = {
            name: run_experiment(name) for name in figures
        }

    # Leave no stale memo behind for later test modules.
    clear_caches()
    return serial, serial_rendered, parallel, parallel_rendered, str(
        parallel_cache
    )


class TestDeterminism:
    def test_figure2_bytes_identical(self, serial_vs_parallel):
        _, serial_rendered, _, parallel_rendered, _ = serial_vs_parallel
        assert (
            parallel_rendered["figure2"].encode()
            == serial_rendered["figure2"].encode()
        )

    def test_figure5_bytes_identical(self, serial_vs_parallel):
        _, serial_rendered, _, parallel_rendered, _ = serial_vs_parallel
        assert (
            parallel_rendered["figure5"].encode()
            == serial_rendered["figure5"].encode()
        )

    def test_profiles_identical_pairwise(self, serial_vs_parallel):
        serial, _, parallel, _, _ = serial_vs_parallel
        assert list(serial) == program_names()
        assert list(parallel) == program_names()
        for name in program_names():
            assert len(serial[name]) == len(parallel[name])
            for left, right in zip(serial[name], parallel[name]):
                assert profiles_equal(left, right)

    def test_fanout_populated_the_cache(
        self, serial_vs_parallel, monkeypatch
    ):
        *_, cache_dir = serial_vs_parallel
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        expected = sum(
            len(program_inputs(name)) for name in program_names()
        )
        assert profile_cache.NAMESPACE.info()["entries"] == expected
