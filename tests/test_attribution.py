"""Tests for the attribution layer: branch records, Markov
sensitivity, heuristic accuracy, heatmaps, the persistent cache, and
the ``repro explain`` CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.attribution import (
    BranchRecord,
    ProgramExplanation,
    accuracy_by_heuristic,
    accuracy_score_rows,
    attribute_function_errors,
    collect_branch_records,
    explain_program,
    explain_programs,
    export_features,
    heatmap_dot,
    render_explanations,
    write_heatmaps,
)
from repro.attribution import cache as attribution_cache
from repro.attribution.records import KNOWN_REASONS
from repro.cfg.dot import cfg_to_dot
from repro.cli import main
from repro.interp.machine import Machine
from repro.profiles.aggregate import aggregate_profiles
from repro.profiles.profile import Profile


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


LOOPY_SOURCE = """
int work(int n) {
    int total = 0;
    int i;
    for (i = 0; i < n; i = i + 1) {
        if (i == 0) {
            total = total + 10;
        } else {
            total = total + 1;
        }
    }
    return total;
}

int main(void) {
    int rounds = 0;
    while (rounds < 8) {
        rounds = rounds + 1;
    }
    return work(rounds);
}
"""


@pytest.fixture
def loopy(compile_program):
    program = compile_program(LOOPY_SOURCE, "loopy")
    profile = Profile("loopy")
    Machine(program, profile=profile).run()
    return program, profile


class TestRecords:
    def test_one_record_per_conditional_branch(self, loopy):
        program, profile = loopy
        records = collect_branch_records(program, profile)
        expected = sum(
            len(list(program.cfg(name).conditional_branches()))
            for name in program.function_names
        )
        assert len(records) == expected
        assert all(r.function in program.function_names for r in records)
        # (function, block) order is stable.
        keys = [(r.function, r.block_id) for r in records]
        by_function: dict[str, list[int]] = {}
        for function, block in keys:
            by_function.setdefault(function, []).append(block)
        for blocks in by_function.values():
            assert blocks == sorted(blocks)

    def test_winner_and_fired_reasons_are_known(self, loopy):
        program, profile = loopy
        for record in collect_branch_records(program, profile):
            assert record.winner in KNOWN_REASONS
            assert record.fired, record
            for reason, probability in record.fired:
                assert reason in KNOWN_REASONS
                assert 0.0 <= probability <= 1.0

    def test_loop_branch_has_ground_truth(self, loopy):
        program, profile = loopy
        records = collect_branch_records(program, profile)
        loops = [
            r for r in records
            if r.function == "main" and r.winner == "loop"
        ]
        assert len(loops) == 1
        record = loops[0]
        # while (rounds < 8): taken 8 times, exits once.
        assert record.taken == 8.0
        assert record.not_taken == 1.0
        assert record.actual_probability == pytest.approx(8 / 9)
        assert record.scored
        assert record.dynamic_misses == 1.0

    def test_constant_branch_excluded_from_scoring(
        self, compile_program
    ):
        program = compile_program(
            """
            int main(void) {
                int n = 0;
                if (1) { n = 5; }
                return n;
            }
            """,
            "constbranch",
        )
        profile = Profile("constbranch")
        Machine(program, profile=profile).run()
        records = collect_branch_records(program, profile)
        constants = [r for r in records if r.is_constant]
        assert constants
        assert all(not r.scored for r in constants)
        assert all(r.winner == "constant" for r in constants)

    def test_record_dict_round_trip(self, loopy):
        program, profile = loopy
        for record in collect_branch_records(program, profile):
            clone = BranchRecord.from_dict(
                json.loads(json.dumps(record.to_dict()))
            )
            assert clone == record


class TestSensitivity:
    def test_mispredicted_branch_attributes_error(self, loopy):
        from repro.analysis.session import AnalysisSession
        from repro.estimators.intra.markov import solve_flow_system

        program, profile = loopy
        session = AnalysisSession.of(program)
        records = [
            r
            for r in collect_branch_records(program, profile)
            if r.function == "main"
        ]
        cfg = program.cfg("main")
        transitions = session.transitions("main")
        estimates = solve_flow_system(cfg, transitions)
        assert attribute_function_errors(
            cfg, transitions, estimates, records
        )
        # The while loop runs 8 times but the loop heuristic predicts
        # 0.8 — the error is real and must be attributed.
        loop = next(r for r in records if r.winner == "loop")
        assert loop.local_error > 0.0
        assert loop.error_flow
        # error_flow is sorted worst-first by magnitude.
        magnitudes = [abs(delta) for _, delta in loop.error_flow]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_perfectly_predicted_branch_attributes_nothing(
        self, compile_program
    ):
        from repro.analysis.session import AnalysisSession
        from repro.estimators.intra.markov import solve_flow_system

        # A loop that runs exactly 4 times: predicted 0.8, actual 4/5.
        program = compile_program(
            """
            int main(void) {
                int i;
                int n = 0;
                for (i = 0; i < 4; i = i + 1) { n = n + 1; }
                return n;
            }
            """,
            "exact",
        )
        profile = Profile("exact")
        Machine(program, profile=profile).run()
        session = AnalysisSession.of(program)
        records = collect_branch_records(program, profile)
        cfg = program.cfg("main")
        transitions = session.transitions("main")
        estimates = solve_flow_system(cfg, transitions)
        assert attribute_function_errors(
            cfg, transitions, estimates, records
        )
        loop = next(r for r in records if r.winner == "loop")
        assert loop.local_error == pytest.approx(0.0, abs=1e-9)


class TestAccuracy:
    def test_rows_grouped_by_winner_in_known_order(self, loopy):
        program, profile = loopy
        records = collect_branch_records(program, profile)
        rows = accuracy_by_heuristic(records)
        assert rows
        ranks = [KNOWN_REASONS.index(reason) for reason in rows]
        assert ranks == sorted(ranks)
        for row in rows.values():
            assert row.branches > 0
            assert 0.0 <= row.miss_rate <= 1.0

    def test_score_rows_shape(self, loopy):
        program, profile = loopy
        records = collect_branch_records(program, profile)
        rows = accuracy_score_rows("loopy", records)
        assert rows["loopy.branches"] == float(len(records))
        assert "loopy.missrate" in rows
        assert "loopy.attributed_error" in rows
        for reason in accuracy_by_heuristic(records):
            assert f"loopy.{reason}.missrate" in rows
            assert f"loopy.{reason}.branches" in rows
            assert f"loopy.{reason}.executions" in rows

    def test_publish_metrics(self, loopy):
        from repro.attribution import publish_accuracy_metrics

        program, profile = loopy
        records = collect_branch_records(program, profile)
        publish_accuracy_metrics("loopy", records)
        assert obs.counter_value("attribution.programs") == 1
        assert obs.counter_value("attribution.branches") == len(records)
        snapshot = obs.metrics_snapshot()
        assert any(
            name.startswith("attribution.heuristic.") for name in snapshot
        )
        assert snapshot["attribution.branch_error"]["count"] == sum(
            1 for r in records if r.scored
        )


class TestHeatmap:
    def test_cfg_to_dot_block_styles(self, loopy):
        program, _ = loopy
        cfg = program.cfg("main")
        block_id = cfg.entry_id
        styled = cfg_to_dot(
            cfg, block_styles={block_id: 'style=filled, fillcolor="#ff9999"'}
        )
        assert 'fillcolor="#ff9999"' in styled
        # Without styles the rendering is unchanged.
        assert "fillcolor" not in cfg_to_dot(cfg)

    def test_heatmap_annotations_and_shading(self, loopy):
        from repro.analysis.session import AnalysisSession
        from repro.estimators.base import profile_block_estimates
        from repro.estimators.intra.markov import solve_flow_system

        program, profile = loopy
        session = AnalysisSession.of(program)
        cfg = program.cfg("main")
        estimates = solve_flow_system(cfg, session.transitions("main"))
        actuals = profile_block_estimates(program, profile)["main"]
        records = [
            r
            for r in collect_branch_records(program, profile)
            if r.function == "main"
        ]
        dot = heatmap_dot(cfg, estimates, actuals, records, profile)
        assert "est=" in dot and "act=" in dot and "err=" in dot
        # The loop misprediction shades at least one block.
        assert "fillcolor" in dot
        # Conditional edges carry predicted vs actual probabilities.
        assert "T p=" in dot and "q=" in dot
        # Deterministic: same inputs, same text.
        assert dot == heatmap_dot(
            cfg, estimates, actuals, records, profile
        )


class TestCache:
    def test_key_varies_with_inputs(self, compress_profiles):
        key = attribution_cache.attribution_cache_key(
            "int main(void){}", compress_profiles, "markov"
        )
        assert key != attribution_cache.attribution_cache_key(
            "int main(void){return 1;}", compress_profiles, "markov"
        )
        assert key != attribution_cache.attribution_cache_key(
            "int main(void){}", compress_profiles, "smart"
        )
        assert key != attribution_cache.attribution_cache_key(
            "int main(void){}", compress_profiles[:1], "markov"
        )
        # Stable across calls.
        assert key == attribution_cache.attribution_cache_key(
            "int main(void){}", compress_profiles, "markov"
        )

    def test_store_load_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        payload = {"program": "x", "records": [1, 2, 3]}
        key = "k" * 64
        assert (
            attribution_cache.load_cached_explanation(key, dict) is None
        )
        attribution_cache.store_explanation(key, payload)
        assert (
            attribution_cache.load_cached_explanation(key, dict)
            == payload
        )
        assert (tmp_path / "attribution" / f"{key}.json").exists()

    def test_disabled_by_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "0")
        explain_program("compress")
        assert not (tmp_path / "attribution").exists()


class TestExplain:
    def test_explanation_round_trips_through_cache(self):
        first = explain_program("compress")
        second = explain_program("compress")  # cache hit
        assert second.to_dict() == first.to_dict()
        uncached = explain_program("compress", use_cache=False)
        assert uncached.to_dict() == first.to_dict()

    def test_from_dict_round_trip(self):
        explanation = explain_program("compress")
        clone = ProgramExplanation.from_dict(
            json.loads(json.dumps(explanation.to_dict()))
        )
        assert clone.to_dict() == explanation.to_dict()
        assert clone.records == explanation.records

    def test_ranked_branches_worst_first(self):
        explanation = explain_program("compress")
        ranked = explanation.ranked_branches()
        assert ranked
        errors = [record.global_error for record in ranked]
        assert errors == sorted(errors, reverse=True)
        assert all(record.scored for record in ranked)

    def test_miss_rate_matches_paper_protocol(self):
        from repro.analysis.session import session_for_suite
        from repro.prediction.missrate import measure_miss_rate
        from repro.suite import collect_profiles

        explanation = explain_program("compress")
        session = session_for_suite("compress")
        aggregate = aggregate_profiles(collect_profiles("compress"))
        expected = measure_miss_rate(
            session.program, session.predictor(), aggregate
        )
        assert explanation.miss_rate == pytest.approx(
            expected.miss_rate
        )

    def test_render_is_deterministic(self):
        explanations = explain_programs(["compress"], jobs=1)
        text = render_explanations(explanations, top=5)
        assert "explain: compress" in text
        assert "per-heuristic accuracy:" in text
        assert "worst branches (top 5):" in text
        assert text == render_explanations(
            explain_programs(["compress"], jobs=1), top=5
        )

    def test_function_filter_and_drilldown(self):
        explanations = explain_programs(["compress"], jobs=1)
        function = explanations[0].records[0].function
        text = render_explanations(
            explanations, top=3, function=function
        )
        assert f"block-frequency error in compress:{function}" in text
        missing = render_explanations(
            explanations, top=3, function="no_such_function"
        )
        assert "no function" in missing

    def test_export_features(self, tmp_path):
        explanations = explain_programs(["compress"], jobs=1)
        path = str(tmp_path / "features.jsonl")
        count = export_features(explanations, path)
        assert count == len(explanations[0].records)
        rows = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert len(rows) == count
        for row in rows:
            assert row["program"] == "compress"
            assert "fired" in row and "winner" in row
            assert "actual_probability" in row
            assert "executions" in row

    def test_write_heatmaps(self, tmp_path):
        explanation = explain_program("compress")
        paths = write_heatmaps(explanation, str(tmp_path / "heat"))
        from repro.suite import load_program

        program = load_program("compress")
        assert len(paths) == len(program.function_names)
        for path in paths:
            assert os.path.exists(path)
            assert open(path, encoding="utf-8").read().startswith(
                "digraph"
            )


class TestExplainCli:
    def test_stdout_identical_across_jobs_and_backends(self, capsys):
        assert main(
            ["explain", "compress", "--top", "5", "--jobs", "1",
             "--backend", "interp", "--quiet"]
        ) == 0
        serial = capsys.readouterr().out
        assert main(
            ["explain", "compress", "--top", "5", "--jobs", "2",
             "--backend", "compiled", "--quiet"]
        ) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "worst branches (top 5):" in serial

    def test_json_payload(self, capsys):
        assert main(["explain", "compress", "--json", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "markov"
        assert "compress" in payload["programs"]
        records = payload["programs"]["compress"]["records"]
        assert records and all("winner" in r for r in records)

    def test_unknown_target_fails_cleanly(self, capsys):
        assert main(["explain", "not_a_program"]) == 2
        assert "unknown program or tier" in capsys.readouterr().err

    def test_unknown_estimator_fails_cleanly(self, capsys):
        assert main(
            ["explain", "compress", "--estimator", "nope", "--quiet"]
        ) == 2

    def test_alias_expansion(self):
        from repro.cli import _resolve_explain_targets
        from repro.suite import known_program_names

        base = known_program_names("base")
        assert _resolve_explain_targets(["base"]) == base
        assert _resolve_explain_targets(["branch_prediction"]) == base
        assert _resolve_explain_targets([]) == base
        assert _resolve_explain_targets(["compress", "compress"]) == [
            "compress"
        ]
        xl = _resolve_explain_targets(["xl"])
        assert xl and all(name.startswith("xl") for name in xl)
        assert _resolve_explain_targets(["all"]) == base + xl

    def test_record_and_compare_gate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        assert main(["explain", "compress", "--record", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["history", "show", "latest", "--json"]) == 0
        detail = json.loads(capsys.readouterr().out)
        scores = detail["scores"]["attribution"]
        assert "compress.missrate" in scores
        assert any(key.endswith(".missrate") for key in scores)
        baseline = tmp_path / "attribution-baseline.json"
        baseline.write_text(json.dumps(detail))
        assert main(
            ["compare", "latest", "--baseline", str(baseline),
             "--fail-on-regression"]
        ) == 0
        capsys.readouterr()
        # A drifted miss rate must fail the gate.
        drifted = dict(detail["scores"]["attribution"])
        drifted["compress.missrate"] += 0.05
        baseline.write_text(
            json.dumps({"scores": {"attribution": drifted}})
        )
        assert main(
            ["compare", "latest", "--baseline", str(baseline),
             "--fail-on-regression"]
        ) == 1

    def test_dot_and_export_artifacts(self, tmp_path, capsys):
        dot_dir = tmp_path / "heat"
        features = tmp_path / "features.jsonl"
        assert main(
            ["explain", "compress", "--dot", str(dot_dir),
             "--export-features", str(features), "--quiet"]
        ) == 0
        assert list(dot_dir.glob("compress.*.dot"))
        assert features.exists()

    def test_committed_baseline_matches_layout(self):
        with open(
            os.path.join("baselines", "attribution.json"),
            encoding="utf-8",
        ) as handle:
            baseline = json.load(handle)
        scores = baseline["scores"]["attribution"]
        from repro.suite import known_program_names

        for program in known_program_names("base"):
            assert f"{program}.missrate" in scores
            assert f"{program}.branches" in scores
