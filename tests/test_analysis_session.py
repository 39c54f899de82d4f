"""Tests for the memoized analysis sessions and their disk layer."""

import os

import pytest

from repro.analysis import cache as analysis_cache
from repro.analysis.session import (
    AnalysisSession,
    clear_sessions,
    session_for_source,
    session_for_suite,
)
from repro.estimators.base import intra_estimates
from repro.estimators.inter.markov import markov_invocations
from repro.estimators.intra.astwalk import smart_estimator
from repro.obs import counter_value
from repro.program import Program

SOURCE = """\
int helper(int x)
{
    int total = 0;
    while (x > 0) {
        total = total + x;
        x = x - 1;
    }
    return total;
}

int main(void)
{
    return helper(5);
}
"""


@pytest.fixture
def program():
    return Program.from_source(SOURCE, "<session-test>")


class TestMemoization:
    def test_of_attaches_one_session_per_program(self, program):
        session = AnalysisSession.of(program)
        assert AnalysisSession.of(program) is session
        other = Program.from_source(SOURCE, "<session-test>")
        assert AnalysisSession.of(other) is not session

    def test_intra_estimates_computed_once(self, program):
        session = AnalysisSession.of(program)
        first = session.intra_estimates("smart")
        misses = session.stats.misses
        second = session.intra_estimates("smart")
        assert second == first
        assert session.stats.misses == misses
        assert session.stats.hits >= 1

    def test_intra_estimates_are_defensive_copies(self, program):
        session = AnalysisSession.of(program)
        first = session.intra_estimates("smart")
        first["helper"][0] = -1.0
        assert session.intra_estimates("smart")["helper"][0] != -1.0

    def test_intra_matches_direct_estimator(self, program):
        session = AnalysisSession.of(program)
        via_session = session.intra_estimates("smart")
        direct = {
            name: smart_estimator(program, name)
            for name in program.function_names
        }
        assert via_session == direct

    def test_callable_estimators_bypass_memo(self, program):
        session = AnalysisSession.of(program)
        calls = []

        def estimator(prog, name):
            calls.append(name)
            return {0: 1.0}

        session.intra_estimates(estimator)
        session.intra_estimates(estimator)
        assert calls.count("helper") == 2

    def test_invocations_memoized_per_backend(self, program):
        session = AnalysisSession.of(program)
        markov = session.invocations("markov", "smart")
        direct = session.invocations("direct", "smart")
        misses = session.stats.misses
        assert session.invocations("markov", "smart") == markov
        assert session.invocations("direct", "smart") == direct
        assert session.stats.misses == misses

    def test_unknown_backend_raises(self, program):
        with pytest.raises(KeyError):
            AnalysisSession.of(program).invocations("banana")

    def test_transitions_rows_sum_to_one_or_zero(self, program):
        session = AnalysisSession.of(program)
        transitions = session.transitions("helper")
        for row in transitions.values():
            total = sum(row.values())
            assert total == pytest.approx(1.0) or total == 0.0

    def test_predictor_memoizes_predictions(self, program):
        session = AnalysisSession.of(program)
        predictor = session.predictor()
        cfg = program.cfg("helper")
        pairs = list(cfg.conditional_branches())
        assert pairs
        block, branch = pairs[0]
        first = predictor.predict_branch("helper", block, branch)
        assert predictor.predict_branch("helper", block, branch) is first


class TestRegistryDelegation:
    def test_base_intra_estimates_delegates_to_session(self, program):
        estimates = intra_estimates(program, "smart")
        session = AnalysisSession.of(program)
        assert session.stats.misses >= 1
        assert estimates == session.intra_estimates("smart")

    def test_markov_invocations_delegates_to_session(self, program):
        invocations = markov_invocations(program, "smart")
        session = AnalysisSession.of(program)
        assert invocations == session.invocations("markov", "smart")

    def test_unknown_estimator_name_still_raises(self, program):
        with pytest.raises(KeyError):
            intra_estimates(program, "banana")


class TestSessionConstructors:
    def test_session_for_source_memoizes_parse(self):
        clear_sessions()
        first = session_for_source(SOURCE, "<constructor-test>")
        assert session_for_source(SOURCE, "<constructor-test>") is first
        clear_sessions()
        assert (
            session_for_source(SOURCE, "<constructor-test>") is not first
        )

    def test_session_for_suite_reuses_registry_program(self):
        from repro.suite import load_program

        session = session_for_suite("compress")
        assert session.program is load_program("compress")
        assert session_for_suite("compress") is session


class TestStageSpans:
    def test_sessions_open_stage_spans(self, program, tmp_path, monkeypatch):
        """A computed stage is a span: the intra span names its
        estimator and nests the transitions it computes."""
        from repro.obs import forced_tracing, span

        # A private store, so no disk hit can skip the computation.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = AnalysisSession.of(program)
        with forced_tracing(), span("test-root") as root:
            session.intra_estimates("markov")
        (intra,) = [
            child for child in root.children
            if child.name == "analysis.intra"
        ]
        assert intra.attrs["estimator"] == "markov"
        assert intra.children
        assert {child.name for child in intra.children} == {
            "analysis.transitions"
        }

        # Every query kind, asked twice: the second round is all memo
        # hits and computes nothing, so it opens no stage span.
        def query_all():
            session.intra_estimates("smart")
            session.intra_estimates("markov")
            session.invocations("markov", "smart")
            session.call_site_frequencies("markov", "smart")

        query_all()
        hits = session.stats.hits
        with forced_tracing(), span("test-root") as again:
            query_all()
        assert again.children == []
        assert session.stats.hits == hits + 4


class TestDiskLayer:
    @pytest.fixture(autouse=True)
    def _private_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def test_roundtrip_via_cache_dir(self, program):
        session = AnalysisSession.of(program)
        estimates = session.intra_estimates("smart")
        invocations = session.invocations("markov", "smart")
        assert session.stats.disk_stores == 2
        assert analysis_cache.NAMESPACE.info()["entries"] == 2

        # A brand-new session (fresh process stand-in) loads from disk.
        fresh = AnalysisSession(
            Program.from_source(SOURCE, "<session-test>")
        )
        hits = counter_value("analysis_cache.hits")
        assert fresh.intra_estimates("smart") == estimates
        assert fresh.invocations("markov", "smart") == invocations
        assert fresh.stats.disk_hits == 2
        assert counter_value("analysis_cache.hits") == hits + 2
        # Block ids must come back as ints, not JSON string keys.
        assert all(
            isinstance(block_id, int)
            for blocks in fresh.intra_estimates("smart").values()
            for block_id in blocks
        )

    def test_disabled_by_env(self, tmp_path, monkeypatch, program):
        monkeypatch.setenv("REPRO_CACHE", "0")
        session = AnalysisSession.of(program)
        session.intra_estimates("smart")
        assert session.stats.disk_stores == 0
        assert not os.listdir(tmp_path)

    def test_stale_function_set_misses(self, program):
        key = analysis_cache.analysis_cache_key(
            program.source, "intra", "smart"
        )
        analysis_cache.store_analysis(
            key, {"functions": {"other": {"0": 1.0}}}
        )
        session = AnalysisSession.of(program)
        estimates = session.intra_estimates("smart")
        assert session.stats.disk_hits == 0
        assert set(estimates) == set(program.function_names)

    def test_corrupt_entry_is_a_miss(self, tmp_path, program):
        key = analysis_cache.analysis_cache_key(
            program.source, "intra", "smart"
        )
        (tmp_path / "analysis").mkdir()
        (tmp_path / "analysis" / f"{key}.json").write_text("{not json")
        session = AnalysisSession.of(program)
        assert session.intra_estimates("smart")
        assert session.stats.disk_hits == 0

    def test_key_varies_by_kind_and_source(self):
        base = analysis_cache.analysis_cache_key("src", "intra", "smart")
        assert base != analysis_cache.analysis_cache_key(
            "src", "inter", "smart"
        )
        assert base != analysis_cache.analysis_cache_key(
            "src2", "intra", "smart"
        )
        assert base != analysis_cache.analysis_cache_key(
            "src", "intra", "markov"
        )

    def test_default_dir_nests_under_profile_cache(self, tmp_path):
        assert analysis_cache.NAMESPACE.directory == os.path.join(
            str(tmp_path), "analysis"
        )
