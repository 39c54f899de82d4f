"""Tests for profile serialization and the persistent profile cache."""

import pytest

from repro.experiments import run_all
from repro.interp.machine import Machine
from repro.obs import counter_value
from repro.profiles import (
    Profile,
    dumps_profile,
    load_cached_profile,
    loads_profile,
    profile_cache_key,
    profile_from_dict,
    profile_to_dict,
    profiles_equal,
    store_profile,
)
from repro.suite import clear_caches, collect_suite_profiles

BRANCHY_SOURCE = """
int helper(int x) {
    if (x > 2) { return x * 2; }
    return x + 1;
}

int main(void) {
    int i;
    int total = 0;
    for (i = 0; i < 6; i++) {
        total += helper(i);
    }
    printf("%d\\n", total);
    return 0;
}
"""


@pytest.fixture
def branchy_profile(run_c):
    result = run_c(BRANCHY_SOURCE)
    assert result.status == 0
    return result.profile


class TestSerializationRoundTrip:
    def test_block_counts_survive(self, branchy_profile):
        restored = loads_profile(dumps_profile(branchy_profile))
        assert restored.block_counts == branchy_profile.block_counts

    def test_arc_counts_survive(self, branchy_profile):
        restored = loads_profile(dumps_profile(branchy_profile))
        assert restored.arc_counts == branchy_profile.arc_counts

    def test_branch_outcomes_survive(self, branchy_profile):
        restored = loads_profile(dumps_profile(branchy_profile))
        for function, branches in branchy_profile.branch_outcomes.items():
            for block_id, outcome in branches.items():
                restored_outcome = restored.branch_outcomes[function][
                    block_id
                ]
                assert restored_outcome.taken == outcome.taken
                assert restored_outcome.not_taken == outcome.not_taken

    def test_call_counts_survive(self, branchy_profile):
        restored = loads_profile(dumps_profile(branchy_profile))
        assert restored.call_site_counts == branchy_profile.call_site_counts
        assert (
            restored.call_target_counts
            == branchy_profile.call_target_counts
        )

    def test_entries_totals_and_names_survive(self, branchy_profile):
        restored = loads_profile(dumps_profile(branchy_profile))
        assert (
            restored.function_entries == branchy_profile.function_entries
        )
        assert (
            restored.total_block_executions
            == branchy_profile.total_block_executions
        )
        assert restored.exit_status == branchy_profile.exit_status
        assert restored.program_name == branchy_profile.program_name
        assert restored.input_name == branchy_profile.input_name

    def test_iteration_order_preserved(self, branchy_profile):
        # Byte-identical rendering depends on dict iteration order
        # surviving the round trip, not just the counts.
        restored = loads_profile(dumps_profile(branchy_profile))
        assert profiles_equal(restored, branchy_profile)
        for function in branchy_profile.block_counts:
            assert list(restored.block_counts[function]) == list(
                branchy_profile.block_counts[function]
            )
            assert list(restored.arc_counts[function]) == list(
                branchy_profile.arc_counts[function]
            )

    def test_unknown_format_rejected(self, branchy_profile):
        payload = profile_to_dict(branchy_profile)
        payload["format"] = 999
        with pytest.raises(ValueError):
            profile_from_dict(payload)

    def test_empty_profile_round_trips(self):
        empty = Profile("prog", "input0")
        assert profiles_equal(
            loads_profile(dumps_profile(empty)), empty
        )


class TestCacheKey:
    def test_key_is_stable(self):
        assert profile_cache_key("int main(){}", "in") == profile_cache_key(
            "int main(){}", "in"
        )

    def test_source_edit_changes_key(self):
        # Cache invalidation: any source edit must miss the old entry.
        before = profile_cache_key("int main(){return 0;}", "in")
        after = profile_cache_key("int main(){return 1;}", "in")
        assert before != after

    def test_input_edit_changes_key(self):
        assert profile_cache_key("src", "input a") != profile_cache_key(
            "src", "input b"
        )

    def test_boundary_is_unambiguous(self):
        # Length-prefixed hashing: moving text between source and input
        # must not collide.
        assert profile_cache_key("ab", "c") != profile_cache_key("a", "bc")


class TestCacheStore:
    @pytest.fixture(autouse=True)
    def _private_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def test_store_load_round_trip(self, branchy_profile):
        key = profile_cache_key(BRANCHY_SOURCE, "")
        store_profile(key, branchy_profile)
        loaded = load_cached_profile(key)
        assert loaded is not None
        assert profiles_equal(loaded, branchy_profile)

    def test_missing_key_is_none(self):
        assert load_cached_profile("0" * 64) is None

    def test_source_edit_misses_cache(self, branchy_profile):
        key = profile_cache_key(BRANCHY_SOURCE, "")
        store_profile(key, branchy_profile)
        edited_key = profile_cache_key(BRANCHY_SOURCE + "\n// edit", "")
        assert load_cached_profile(edited_key) is None


class TestWarmCacheSkipsInterpretation:
    def test_run_all_with_warm_cache_never_runs_the_machine(
        self, monkeypatch
    ):
        """Acceptance: a warm cache makes ``repro run all`` skip
        interpretation entirely — zero ``Machine.run`` calls."""
        # Warm the (session-scoped, hermetic) persistent cache: the
        # suite profiles plus the two example runs (table 2's strchr
        # harness, figure 10's held-out compress input).  Then drop the
        # in-process memo so profiles must come from disk.
        from repro.experiments.figure10 import evaluation_profile
        from repro.experiments.table2 import run_table2

        collect_suite_profiles()
        run_table2()
        evaluation_profile()
        clear_caches()

        calls = []
        original = Machine.run

        def counting_run(self):
            calls.append(self.program.name)
            return original(self)

        monkeypatch.setattr(Machine, "run", counting_run)
        hits = counter_value("profile_cache.hits")
        misses = counter_value("profile_cache.misses")
        output = run_all()
        assert "figure2" in output and "figure10" in output
        assert calls == []
        assert counter_value("profile_cache.hits") > hits
        assert counter_value("profile_cache.misses") == misses
