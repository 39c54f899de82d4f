"""Tests for the experiment harnesses (tables and figures).

The full-suite experiments (figure2/4/5/9) are exercised per-program
here to keep runtimes sane; the benchmark harness regenerates them in
full.  The strchr/count_nodes experiments assert the paper's exact
numbers.
"""

import os
import shutil
import subprocess
import sys

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.examples import (
    run_figure3,
    run_figure8,
    run_markov_example,
)
from repro.experiments.figure2 import miss_rates_for_program
from repro.experiments.figure4 import scores_for_program as figure4_scores
from repro.experiments.figure5 import (
    markov_scores_for_program,
    simple_scores_for_program,
)
from repro.experiments.figure9 import scores_for_program as figure9_scores
from repro.experiments.figure10 import run_figure10
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2


class TestTable1:
    def test_fourteen_rows(self):
        result = run_table1()
        assert len(result.rows) == 14

    def test_render_mentions_every_program(self):
        text = run_table1().render()
        for name in ("compress", "xlisp", "gs", "water"):
            assert name in text

    def test_total_lines_substantial(self):
        assert run_table1().total_lines() > 3000


class TestTable2:
    def test_paper_scores(self):
        result = run_table2()
        assert result.score_20 == pytest.approx(1.0)
        assert result.score_60 == pytest.approx(7.0 / 8.0)

    def test_actual_counts_match_paper_trace(self):
        result = run_table2()
        by_name = {
            result.block_names[bid]: count
            for bid, count in result.actual.items()
        }
        assert by_name["while"] == 3
        assert by_name["if"] == 3
        assert by_name["return1"] == 2
        assert by_name["incr"] == 1
        assert by_name["return2"] == 0

    def test_render(self):
        text = run_table2().render()
        assert "100.0%" in text
        assert "87.5%" in text


class TestStrchrMarkovExample:
    def test_paper_solution(self):
        result = run_markov_example()
        assert result.frequency("while") == pytest.approx(2.7778, abs=1e-3)
        assert result.frequency("if") == pytest.approx(2.2222, abs=1e-3)
        assert result.frequency("incr") == pytest.approx(1.7778, abs=1e-3)

    def test_probabilities_annotated(self):
        result = run_markov_example()
        values = sorted(set(
            round(v, 6) for v in result.probabilities.values()
        ))
        assert values == [0.2, 0.8, 1.0]

    def test_equations_rendered(self):
        text = run_markov_example().render()
        assert "while = entry + incr" in text


class TestFigure3:
    def test_render_shows_frequencies(self):
        text = run_figure3().render()
        assert "While" in text
        assert "[test = 5]" in text
        assert "[0.8]" in text  # return str at 0.2 * 4


class TestFigure8:
    def test_impossible_weight_and_repair(self):
        result = run_figure8()
        assert result.raw_self_arc_weight == pytest.approx(1.6)
        assert result.unrepaired_solution is not None
        assert result.unrepaired_solution["count_nodes"] < 0
        assert result.repaired_invocations["count_nodes"] == pytest.approx(
            5.0
        )


class TestPerProgramScores:
    """Spot-check the full-suite experiments on one cheap program."""

    def test_figure2_columns(self):
        rates = miss_rates_for_program("eqntott")
        assert set(rates) == {"predictor", "profiling", "PSP"}
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())
        assert rates["PSP"] <= rates["predictor"] + 1e-9

    def test_figure4_scores(self):
        scores = figure4_scores("eqntott")
        assert set(scores) == {"loop", "smart", "markov", "profiling"}
        assert all(0.0 <= s <= 1.0 + 1e-9 for s in scores.values())

    def test_figure5_simple_scores(self):
        scores = simple_scores_for_program("eqntott")
        assert set(scores) == {
            "call_site",
            "direct",
            "all_rec",
            "all_rec2",
            "profiling",
        }

    def test_figure5_markov_beats_or_ties_direct_on_eqntott(self):
        scores = markov_scores_for_program("eqntott", 0.25)
        assert scores["markov"] >= scores["direct"] - 1e-9

    def test_figure9_scores(self):
        scores = figure9_scores("eqntott")
        assert 0.0 <= scores["markov"] <= 1.0 + 1e-9


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure10()

    def test_three_rankings(self, result):
        names = {sweep.ranking_name for sweep in result.sweeps}
        assert names == {"estimate", "profile", "aggregate"}

    def test_monotone_speedups(self, result):
        for sweep in result.sweeps:
            for earlier, later in zip(
                sweep.speedups, sweep.speedups[1:]
            ):
                assert later >= earlier - 1e-9

    def test_all_functions_reaches_full_speedup(self, result):
        for sweep in result.sweeps:
            assert sweep.speedups[-1] == pytest.approx(1 / 0.55, rel=1e-6)

    def test_render(self, result):
        text = result.render()
        assert "estimate" in text
        assert "k=16" in text


class TestRunner:
    def test_all_experiments_registered(self):
        expected = {
            "table1",
            "table2",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6_7",
            "figure8",
            "figure9",
            "figure10",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_run_cheap_experiments_render(self):
        for name in ("table1", "table2", "figure3", "figure6_7",
                     "figure8"):
            text = run_experiment(name)
            assert isinstance(text, str) and text


#: Every analysis stage a ``run all`` over an empty analysis store
#: enters: the ``--timings`` stage table must list each one.
_ANALYSIS_STAGES = {
    "parse",
    "transitions",
    "callsites",
    "intra:loop",
    "intra:smart",
    "intra:markov",
    "inter:markov",
    "inter:call_site",
    "inter:direct",
    "inter:all_rec",
    "inter:all_rec2",
}


def _timings_rows(report: str, header: str) -> set[str]:
    """Row names of one ``--timings`` table: the lines after its
    header, up to the next blank line."""
    lines = report.splitlines()
    start = next(
        index for index, line in enumerate(lines)
        if line.startswith(header)
    )
    rows: set[str] = set()
    for line in lines[start + 1:]:
        if not line.strip():
            break
        rows.add(line.split()[0])
    return rows


class TestRunAllTimings:
    def test_report_rows_match_across_job_counts(
        self, tmp_path, _hermetic_profile_cache
    ):
        """``run all --timings`` in fresh processes, profiles warm and
        the analysis store empty: every experiment and every analysis
        stage gets a row, at one worker and at two.  (In-process runs
        hit the program and session memos and enter almost no stage.)"""
        from repro.suite import collect_suite_profiles

        collect_suite_profiles()
        root = tmp_path / "store"
        shutil.copytree(
            _hermetic_profile_cache,
            root,
            ignore=shutil.ignore_patterns("analysis", "ledger", "obs"),
        )
        environment = {
            name: value
            for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        environment.update(
            REPRO_CACHE_DIR=str(root),
            PYTHONPATH=os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                "src",
            ),
        )
        outputs: dict[int, str] = {}
        for jobs in (1, 2):
            shutil.rmtree(root / "analysis", ignore_errors=True)
            done = subprocess.run(
                [sys.executable, "-m", "repro", "run", "all",
                 "--timings", "--jobs", str(jobs)],
                env=environment,
                cwd=str(tmp_path),
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            outputs[jobs] = done.stdout
            assert _timings_rows(done.stderr, "experiment ") == set(
                EXPERIMENTS
            )
            assert (
                _timings_rows(done.stderr, "analysis stage")
                == _ANALYSIS_STAGES
            ), done.stderr
        assert outputs[1] == outputs[2]

    def test_stage_seconds_fold_the_analysis_spans(self):
        """Each stage is the summed duration of its ``analysis.*``
        spans anywhere under the root; nested stages count in both."""
        from repro.experiments.runner import RunAllTimings
        from repro.obs import Span
        from repro.suite import SuiteTimings

        def node(name, seconds, children=(), **attrs):
            made = Span(name, attrs)
            made.seconds = seconds
            made.children = list(children)
            return made

        root = node("run_all", 10.0, [
            node("experiment:figure4", 4.0, [
                node("analysis.parse", 1.0),
                node("analysis.intra", 2.0, [
                    node("analysis.transitions", 0.5),
                    node("analysis.transitions", 0.25),
                ], estimator="markov"),
            ]),
            node("experiment:figure5", 3.0, [
                node("analysis.parse", 0.5),
                node("analysis.inter", 0.125, backend="markov",
                     estimator="smart"),
                node("analysis.inter", 0.0625, backend="direct",
                     estimator="smart"),
                node("analysis.callsites", 0.03125),
                node("serve.parse", 9.0),
            ]),
        ])
        report = RunAllTimings()
        report.populate_from_span(
            root, SuiteTimings(), ["figure4", "figure5"], 2
        )
        assert report.stage_seconds == {
            "callsites": 0.03125,
            "inter:direct": 0.0625,
            "inter:markov": 0.125,
            "intra:markov": 2.0,
            "parse": 1.5,
            "transitions": 0.75,
        }
        assert list(report.stage_seconds) == sorted(report.stage_seconds)
        assert report.experiment_seconds == {
            "figure4": 4.0, "figure5": 3.0,
        }
        assert report.total_seconds == 10.0
