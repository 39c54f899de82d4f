"""Tests for the persistent run ledger: recording, run references,
compare/drift semantics, the CLI surface, and the HTML report.

Most tests write to an explicit throwaway db ``path`` so they are
independent of the session cache dir; the pipeline-integration tests
(``run_one``/``run_all``/``fuzz_run`` with ``record=True``) point
``REPRO_LEDGER_DIR`` at a tmp dir instead, exercising the default
path resolution the CLI uses.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import ledger


@pytest.fixture
def db(tmp_path):
    """Path for a throwaway ledger database."""
    return str(tmp_path / "ledger.db")


@pytest.fixture
def ledger_dir(tmp_path, monkeypatch):
    """Point the *default* ledger location at a tmp dir."""
    directory = tmp_path / "ledger-home"
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(directory))
    return str(directory)


# ----------------------------------------------------------------------
# flatten_scalars


class TestFlattenScalars:
    def test_numbers_and_nesting(self):
        @dataclasses.dataclass
        class Inner:
            rate: float

        @dataclasses.dataclass
        class Result:
            score: float
            by_bucket: dict
            pair: tuple
            inner: Inner

        flat = ledger.flatten_scalars(
            Result(
                score=0.5,
                by_bucket={"b": 2, "a": 1},
                pair=(7, 8.5),
                inner=Inner(rate=0.25),
            )
        )
        assert flat == {
            "score": 0.5,
            "by_bucket/a": 1.0,
            "by_bucket/b": 2.0,
            "pair/0": 7.0,
            "pair/1": 8.5,
            "inner/rate": 0.25,
        }

    def test_skips_bools_and_strings(self):
        assert ledger.flatten_scalars(
            {"flag": True, "name": "x", "n": 3}
        ) == {"n": 3.0}

    def test_deterministic_key_order(self):
        a = ledger.flatten_scalars({"z": 1, "a": {"q": 2, "b": 3}})
        b = ledger.flatten_scalars({"a": {"b": 3, "q": 2}, "z": 1})
        assert list(a.items()) == sorted(a.items())
        assert a == b

    def test_non_numeric_leaf_yields_nothing(self):
        assert ledger.flatten_scalars(["only", "strings"]) == {}


# ----------------------------------------------------------------------
# Recording & reading


class TestRecordAndRead:
    def test_round_trip(self, db):
        run_id = ledger.record_run(
            "run",
            label="table2",
            started_at="2026-01-01T00:00:00+00:00",
            jobs=2,
            scores={"table2": {"score_60": 0.875, "score_20": 1.0}},
            stages={"experiment:table2": 0.25},
            counters={"profile_cache.hits": 3.0},
            path=db,
        )
        assert isinstance(run_id, int)
        runs = ledger.list_runs(path=db)
        assert [r.id for r in runs] == [run_id]
        row = runs[0]
        assert (row.kind, row.label, row.jobs) == ("run", "table2", 2)
        assert row.started_at == "2026-01-01T00:00:00+00:00"
        assert row.experiments == 1
        detail = ledger.run_detail(row, path=db)
        assert detail.scores == {
            "table2": {"score_60": 0.875, "score_20": 1.0}
        }
        assert detail.stages == {"experiment:table2": 0.25}
        assert detail.counters == {"profile_cache.hits": 3.0}

    def test_list_filters_by_experiment(self, db):
        ledger.record_run(
            "run", scores={"table1": {"m": 1.0}}, path=db
        )
        ledger.record_run(
            "run", scores={"table2": {"m": 2.0}}, path=db
        )
        only = ledger.list_runs(experiment="table2", path=db)
        assert len(only) == 1
        assert ledger.run_detail(only[0], path=db).scores == {
            "table2": {"m": 2.0}
        }

    def test_to_dict_is_json_able_and_baseline_usable(self, db, tmp_path):
        ledger.record_run(
            "run", scores={"table1": {"m": 1.5}}, path=db
        )
        detail = ledger.run_detail(
            ledger.resolve_run("latest", path=db), path=db
        )
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(detail.to_dict()))
        assert ledger.load_baseline(str(baseline_file)) == {
            "table1": {"m": 1.5}
        }

    def test_disabled_via_env(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert not ledger.ledger_enabled()
        assert ledger.record_run("run", path=db) is None
        assert not os.path.exists(db)

    def test_clear(self, db):
        ledger.record_run("run", scores={"x": {"m": 1.0}}, path=db)
        assert os.path.exists(db)
        assert ledger.clear_ledger(path=db) == 1
        assert not os.path.exists(db)
        assert ledger.clear_ledger(path=db) == 0

    def test_info(self, db):
        info = ledger.ledger_info(path=db)
        assert info["runs"] == 0 and info["bytes"] == 0
        ledger.record_run(
            "run",
            started_at="2026-01-01T00:00:00+00:00",
            scores={"x": {"m": 1.0, "n": 2.0}},
            path=db,
        )
        info = ledger.ledger_info(path=db)
        assert info["runs"] == 1
        assert info["score_rows"] == 2
        assert info["bytes"] > 0
        assert info["oldest_run"] == info["newest_run"]

    def test_concurrent_writers_never_tear(self, db):
        """Two processes appending simultaneously produce complete,
        interleaved runs (BEGIN IMMEDIATE + busy timeout)."""
        script = (
            "import sys\n"
            "from repro.obs import ledger\n"
            "tag, db = sys.argv[1], sys.argv[2]\n"
            "for i in range(20):\n"
            "    ledger.record_run('run', label=f'{tag}-{i}',\n"
            "        scores={'x': {'a': float(i), 'b': float(i)}},\n"
            "        path=db)\n"
        )
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag, db],
                env=env,
                stderr=subprocess.PIPE,
            )
            for tag in ("p", "q")
        ]
        for worker in workers:
            _, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr.decode()
        runs = ledger.list_runs(path=db)
        assert len(runs) == 40
        for run in runs:
            detail = ledger.run_detail(run, path=db)
            assert detail.scores == {
                "x": {
                    "a": float(run.label.split("-")[1]),
                    "b": float(run.label.split("-")[1]),
                }
            }


# ----------------------------------------------------------------------
# Run references


class TestResolveRun:
    def test_refs(self, db):
        first = ledger.record_run("run", path=db)
        second = ledger.record_run("run", path=db)
        assert ledger.resolve_run("latest", path=db).id == second
        assert ledger.resolve_run("latest~0", path=db).id == second
        assert ledger.resolve_run("latest~1", path=db).id == first
        assert ledger.resolve_run(str(first), path=db).id == first

    @pytest.mark.parametrize(
        "ref", ["latest~5", "99", "nope", "latest~x"]
    )
    def test_bad_refs(self, db, ref):
        ledger.record_run("run", path=db)
        with pytest.raises(KeyError):
            ledger.resolve_run(ref, path=db)

    def test_empty_ledger(self, db):
        with pytest.raises(KeyError, match="empty"):
            ledger.resolve_run("latest", path=db)


# ----------------------------------------------------------------------
# Compare semantics


class TestCompare:
    BASE = {"table2": {"score": 0.5}}

    def compare(self, candidate_value, tol=1e-6, **kwargs):
        return ledger.compare_scores(
            self.BASE,
            {"table2": {"score": candidate_value}},
            score_tol=tol,
            **kwargs,
        )

    def test_identical_is_ok(self):
        assert self.compare(0.5).ok

    def test_drift_exactly_at_tolerance_is_ok(self):
        # 0.75 - 0.5 == 0.25 exactly in binary floating point; the
        # gate is strict `>`, so drift *at* the tolerance passes.
        assert self.compare(0.75, tol=0.25).ok

    def test_drift_above_tolerance_regresses_upward(self):
        comparison = self.compare(0.502, tol=1e-3)
        assert not comparison.ok
        assert comparison.drifted[0].delta == pytest.approx(0.002)

    def test_drift_regresses_downward_too(self):
        # Direction-agnostic: a miss rate falling and a matching score
        # falling are both "the numbers moved" — only |delta| matters.
        assert not self.compare(0.498, tol=1e-3).ok

    def test_missing_experiment_is_regression(self):
        comparison = ledger.compare_scores(self.BASE, {})
        assert not comparison.ok
        assert comparison.missing == ["table2"]

    def test_missing_metric_is_regression(self):
        comparison = ledger.compare_scores(
            {"table2": {"score": 0.5, "other": 1.0}},
            {"table2": {"score": 0.5}},
        )
        assert not comparison.ok
        assert comparison.missing == ["table2/other"]

    def test_extra_candidate_experiment_is_not_regression(self):
        comparison = ledger.compare_scores(
            self.BASE,
            {"table2": {"score": 0.5}, "new": {"m": 1.0}},
        )
        assert comparison.ok
        assert comparison.extra_experiments == ["new"]

    def test_stage_slowdown_beyond_tolerance_regresses(self):
        comparison = self.compare(
            0.5,
            base_stages={"total": 1.0},
            candidate_stages={"total": 1.5},
            time_tol=0.25,
        )
        assert not comparison.ok
        assert comparison.slower_stages[0].stage == "total"

    def test_stage_slowdown_within_tolerance_is_ok(self):
        assert self.compare(
            0.5,
            base_stages={"total": 1.0},
            candidate_stages={"total": 1.2},
            time_tol=0.25,
        ).ok

    def test_tiny_absolute_slowdown_is_noise(self):
        # 3x slower but only 20ms — below TIME_NOISE_FLOOR.
        assert self.compare(
            0.5,
            base_stages={"total": 0.01},
            candidate_stages={"total": 0.03},
            time_tol=0.25,
        ).ok

    def test_speedup_is_ok(self):
        assert self.compare(
            0.5,
            base_stages={"total": 2.0},
            candidate_stages={"total": 0.5},
        ).ok

    def test_render_mentions_regressions(self):
        text = self.compare(0.7).render()
        assert "REGRESSION" in text
        assert "table2/score" in text


class TestLoadBaseline:
    def test_bare_mapping(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"table1": {"m": 1}}')
        assert ledger.load_baseline(str(path)) == {
            "table1": {"m": 1.0}
        }

    @pytest.mark.parametrize(
        "payload", ["[]", '{"scores": 3}', '{"table1": [1, 2]}']
    )
    def test_rejects_malformed(self, tmp_path, payload):
        path = tmp_path / "b.json"
        path.write_text(payload)
        with pytest.raises(ValueError):
            ledger.load_baseline(str(path))


# ----------------------------------------------------------------------
# Pipeline integration (default ledger path via REPRO_LEDGER_DIR)


class TestPipelineRecording:
    def test_run_one_records(self, ledger_dir):
        from repro.experiments import run_one

        run_one("table2", record=True)
        runs = ledger.list_runs()
        assert len(runs) == 1
        detail = ledger.run_detail(runs[0])
        assert "table2" in detail.scores
        assert detail.scores["table2"]  # accuracy numbers present
        assert set(detail.stages) == {"experiment:table2"}
        assert detail.stages["experiment:table2"] > 0
        assert detail.counters  # metric deltas captured

    def test_run_all_jobs_parity(self, ledger_dir):
        """Serial and parallel runs append identical score rows and the
        same stage set — the acceptance bar for worker-side capture."""
        from repro.experiments import run_all

        # Warm the profile/analysis caches first: a cold run records
        # analysis:* stages the warm rerun legitimately never enters,
        # which would make the stage sets differ for cache reasons,
        # not worker-capture reasons.
        run_all(jobs=1)
        run_all(jobs=1, record=True)
        run_all(jobs=2, record=True)
        runs = ledger.list_runs()
        assert len(runs) == 2
        parallel = ledger.run_detail(runs[0])
        serial = ledger.run_detail(runs[1])
        assert (serial.row.jobs, parallel.row.jobs) == (1, 2)
        assert serial.scores == parallel.scores
        assert set(serial.stages) == set(parallel.stages)
        # Every registered experiment produced score rows.
        from repro.experiments.runner import EXPERIMENTS

        assert set(serial.scores) == set(EXPERIMENTS)
        assert "total" in serial.stages
        assert "profiling" in serial.stages

    def test_record_false_records_nothing(self, ledger_dir):
        from repro.experiments import run_one

        run_one("table2")
        assert ledger.list_runs() == []

    def test_fuzz_run_records(self, ledger_dir):
        from repro.fuzz import fuzz_run

        report = fuzz_run(seed=7, count=2, jobs=1, record=True)
        assert not report.failures
        runs = ledger.list_runs()
        assert len(runs) == 1
        assert runs[0].kind == "fuzz"
        detail = ledger.run_detail(runs[0])
        assert detail.scores["fuzz"]["cases"] == 2.0
        assert detail.scores["fuzz"]["failures"] == 0.0
        assert set(detail.stages) == {"fuzz.run"}
        assert detail.stages["fuzz.run"] > 0

    def test_explain_records_total_stage(self, ledger_dir):
        assert main(["explain", "compress", "--record", "--quiet"]) == 0
        (run,) = ledger.list_runs()
        assert run.kind == "explain"
        stages = ledger.run_detail(run).stages
        assert set(stages) == {"explain.total"}
        assert stages["explain.total"] > 0

    def test_profile_suite_records_collect_stage(self, ledger_dir, capsys):
        assert main(["profile-suite", "compress", "--record"]) == 0
        capsys.readouterr()
        (run,) = ledger.list_runs()
        assert run.kind == "suite"
        stages = ledger.run_detail(run).stages
        assert set(stages) == {"suite.collect"}
        assert stages["suite.collect"] > 0


# ----------------------------------------------------------------------
# CLI surface


class TestLedgerCli:
    def _seed_runs(self):
        assert main(["run", "table2"]) == 0
        assert main(["run", "table2"]) == 0

    def test_history_empty(self, ledger_dir, capsys):
        assert main(["history"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_run_then_history(self, ledger_dir, capsys):
        self._seed_runs()
        capsys.readouterr()
        assert main(["history"]) == 0
        output = capsys.readouterr().out
        assert "table2" in output
        assert output.count("\n") >= 3  # header + two runs

    def test_history_show_json_round_trip(self, ledger_dir, capsys):
        self._seed_runs()
        capsys.readouterr()
        assert main(["history", "show", "latest", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"]["kind"] == "run"
        assert "table2" in payload["scores"]

    def test_history_show_bad_ref(self, ledger_dir, capsys):
        self._seed_runs()
        assert main(["history", "show", "latest~9"]) == 2

    def test_compare_identical_runs_exit_zero(self, ledger_dir, capsys):
        self._seed_runs()
        capsys.readouterr()
        status = main(
            ["compare", "latest~1", "latest", "--fail-on-regression"]
        )
        assert status == 0
        assert "result: OK" in capsys.readouterr().out

    def test_compare_perturbed_baseline_fails(
        self, ledger_dir, capsys, tmp_path
    ):
        self._seed_runs()
        capsys.readouterr()
        assert main(["history", "show", "latest", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        experiment = sorted(payload["scores"])[0]
        metric = sorted(payload["scores"][experiment])[0]
        payload["scores"][experiment][metric] += 0.5
        baseline = tmp_path / "perturbed.json"
        baseline.write_text(json.dumps(payload))
        status = main(
            [
                "compare",
                "latest",
                "--baseline",
                str(baseline),
                "--fail-on-regression",
            ]
        )
        assert status == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_clean_baseline_passes(
        self, ledger_dir, capsys, tmp_path
    ):
        self._seed_runs()
        capsys.readouterr()
        assert main(["history", "show", "latest", "--json"]) == 0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        status = main(
            [
                "compare",
                "latest",
                "--baseline",
                str(baseline),
                "--fail-on-regression",
                "--score-tol",
                "0",
            ]
        )
        assert status == 0

    def test_compare_without_gate_reports_but_passes(
        self, ledger_dir, capsys, tmp_path
    ):
        self._seed_runs()
        capsys.readouterr()
        assert main(["history", "show", "latest", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        experiment = sorted(payload["scores"])[0]
        metric = sorted(payload["scores"][experiment])[0]
        payload["scores"][experiment][metric] += 0.5
        baseline = tmp_path / "perturbed.json"
        baseline.write_text(json.dumps(payload))
        assert (
            main(["compare", "latest", "--baseline", str(baseline)])
            == 0
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_usage_errors(self, ledger_dir, capsys, tmp_path):
        self._seed_runs()
        baseline = tmp_path / "b.json"
        baseline.write_text("{}")
        assert (
            main(
                [
                    "compare",
                    "latest~1",
                    "latest",
                    "--baseline",
                    str(baseline),
                ]
            )
            == 2
        )
        assert main(["compare", "latest"]) == 2
        assert (
            main(
                ["compare", "latest", "--baseline", "/nonexistent.json"]
            )
            == 2
        )

    def test_report_html(self, ledger_dir, capsys, tmp_path):
        self._seed_runs()
        out = tmp_path / "report.html"
        assert main(["report", "--html", str(out)]) == 0
        html = out.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "table2" in html
        assert "<svg" in html  # sparklines rendered

    def test_report_empty_ledger(self, ledger_dir, capsys, tmp_path):
        out = tmp_path / "report.html"
        assert main(["report", "--html", str(out)]) == 2
        assert not out.exists()

    def test_report_attribution_per_program_sections(
        self, ledger_dir, capsys, tmp_path
    ):
        ledger.record_run(
            "explain",
            label="programs=2",
            scores={
                "attribution": {
                    "compress.missrate": 0.17,
                    "compress.attributed_error": 3.5,
                    "compress.branches": 48.0,
                    "compress.loop.missrate": 0.09,
                    "ear.missrate": 0.21,
                    "ear.attributed_error": 1.2,
                    "ear.scored_branches": 30.0,
                }
            },
        )
        out = tmp_path / "report.html"
        assert main(["report", "--html", str(out)]) == 0
        html = out.read_text()
        # One <h4> sub-section per program, accuracy rows shown, and
        # the coverage rows summarised rather than tabulated.
        assert "<h4>compress</h4>" in html
        assert "<h4>ear</h4>" in html
        assert "compress.missrate" in html
        assert "compress.loop.missrate" in html
        assert "ear.attributed_error" in html
        assert "compress.branches" not in html
        assert "coverage rows" in html

    def test_report_full_coverage_experiments_uncapped(
        self, ledger_dir, capsys, tmp_path
    ):
        from repro.obs.report import MAX_METRIC_ROWS

        rows = {
            f"xl{i:02d}.blocks": float(i)
            for i in range(MAX_METRIC_ROWS + 6)
        }
        ledger.record_run("profile", scores={"suite_xl": rows})
        out = tmp_path / "report.html"
        assert main(["report", "--html", str(out)]) == 0
        html = out.read_text()
        # Every XL row renders — coverage experiments are exempt from
        # the per-experiment metric cap.
        assert all(name in html for name in rows)
        assert "more metrics in the ledger" not in html

    def test_cache_info_covers_ledger(self, ledger_dir, capsys):
        self._seed_runs()
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        output = capsys.readouterr().out
        assert "run ledger:" in output
        assert "runs:      2" in output

    def test_cache_clear_covers_ledger(self, ledger_dir, capsys):
        self._seed_runs()
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert main(["history"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_stats_prom_exports_ledger_gauges(self, ledger_dir, capsys):
        self._seed_runs()
        capsys.readouterr()
        assert main(["stats", "--format", "prom"]) == 0
        output = capsys.readouterr().out
        assert "repro_ledger_runs 2" in output
        assert "repro_ledger_score_rows" in output
