"""The paper's claims, checked against this reproduction.

One test per claim: each reruns the table, figure, ablation or
extension behind it and asserts the shape that EXPERIMENTS.md reports.
Every docstring quotes its claim from EXPERIMENTS.md, which records the
paper's result next to the measured one.  The goldens pin today's
outputs at the paper's settings; these tests also sweep the knobs the
paper fixed (loop guess, branch probability, recursion repair), which
no golden sees.

Suite profiles come from the session's hermetic profile cache, so only
the first consumer in a pytest session pays for execution.
"""

from __future__ import annotations

import pytest

from repro.suite import collect_profiles, load_program

#: Programs used for the ablations: one symbolic, one indirect-heavy,
#: one numerical.
ABLATION_PROGRAMS = ("eqntott", "xlisp", "cholesky")

#: Programs used for the extensions.
EXTENSION_PROGRAMS = ("eqntott", "compress", "awk", "xlisp", "cc", "bison")


def _intra_score(name, settings):
    """The smart AST walk's 5% weight-matching score on one program."""
    from repro.estimators.intra.astwalk import estimate_block_frequencies
    from repro.metrics.protocol import intra_score_over_profiles

    program = load_program(name)
    estimates = {
        function: estimate_block_frequencies(
            program, function, use_branch_heuristics=True,
            settings=settings,
        )
        for function in program.function_names
    }
    return intra_score_over_profiles(
        program, estimates, collect_profiles(name), 0.05
    )


def _program_settings(name, **overrides):
    from repro.prediction.error_functions import settings_for_program

    return settings_for_program(load_program(name), **overrides)


def _ablation_mean(**overrides) -> float:
    """Mean intra score over the ablation programs at one setting."""
    return sum(
        _intra_score(name, _program_settings(name, **overrides))
        for name in ABLATION_PROGRAMS
    ) / len(ABLATION_PROGRAMS)


# ----------------------------------------------------------------------
# Tables and figures.


def test_table1_suite_roster():
    """Table 1: "14 analogue programs ... one per paper program,
    preserving its control-flow category (numerical / symbolic /
    indirect-call-heavy)"."""
    from repro.experiments.table1 import run_table1

    result = run_table1()
    assert len(result.rows) == 14
    categories = {row.category for row in result.rows}
    assert categories == {"numerical", "symbolic", "indirect"}


def test_table2_strchr_weight_matching():
    """Table 2: strchr weight matching at 20% is "100%" and at 60%
    "88% (= 7/8)" in the paper; "Exact reproduction"."""
    from repro.experiments.table2 import run_table2

    result = run_table2()
    assert result.score_20 == pytest.approx(1.0)
    assert result.score_60 == pytest.approx(7.0 / 8.0)


def test_figure2_heuristic_misses_about_twice_profiling():
    """Figure 2: "heuristic ≈ 1.7× profiling (paper: "about twice");
    PSP is the floor for every program individually"."""
    from repro.experiments.figure2 import run_figure2

    result = run_figure2()
    averages = result.averages()

    assert averages["PSP"] <= averages["profiling"] + 1e-9
    assert averages["profiling"] < averages["predictor"]
    # "about twice that for profiling": allow a generous band.
    ratio = averages["predictor"] / max(averages["profiling"], 1e-9)
    assert 1.2 <= ratio <= 3.5

    for name, rates in result.miss_rates.items():
        assert rates["PSP"] <= rates["predictor"] + 1e-9, name


def test_figure3_smart_ast_walk():
    """Figure 3: "The smart walk reproduces the paper's annotations
    exactly: entry 1, while test 5, body items 4"."""
    from repro.experiments.examples import run_figure3

    text = run_figure3().render()
    assert "[test = 5]" in text  # the while test count


def test_figures6_7_markov_solution():
    """Figures 6 and 7: the strchr Markov system solves to while 2.78,
    if 2.22, incr 1.78, return1 0.44, return2 0.56 — "Exact, including
    the equations"."""
    from repro.experiments.examples import run_markov_example

    result = run_markov_example()
    assert result.frequency("while") == pytest.approx(2.7778, abs=1e-3)
    assert result.frequency("if") == pytest.approx(2.2222, abs=1e-3)
    assert result.frequency("incr") == pytest.approx(1.7778, abs=1e-3)
    assert result.frequency("return1") == pytest.approx(0.4444, abs=1e-3)
    assert result.frequency("return2") == pytest.approx(0.5556, abs=1e-3)


def test_figure4_static_intra_competitive_with_profiling():
    """Figure 4: "essentially all the benefit comes from the loop
    model; branch heuristics add ~2.6 points, the Markov refinement ~3
    more; static is within 5–8 points of profiling"."""
    from repro.experiments.figure4 import run_figure4

    averages = run_figure4().averages()

    for column in ("loop", "smart", "markov"):
        assert 0.6 <= averages[column] <= 1.0, column
    assert averages["smart"] >= averages["loop"] - 1e-9
    assert averages["markov"] - averages["smart"] < 0.10
    assert averages["profiling"] - averages["smart"] < 0.15


def test_figure5_markov_beats_direct_invocations():
    """Figure 5: "the Markov model improves on direct by +14.0 / +10.3
    points at the two cutoffs (paper: "scoring 10% higher at both the
    10% and 25% cutoffs")"; the simple combiners "cluster within 3.4
    points"."""
    from repro.experiments.figure5 import run_figure5

    result = run_figure5()
    simple = result._averages(
        result.simple_scores,
        ("call_site", "direct", "all_rec", "all_rec2", "profiling"),
    )
    markov_10 = result._averages(
        result.markov_scores_10, ("direct", "markov", "profiling")
    )
    markov_25 = result._averages(
        result.markov_scores_25, ("direct", "markov", "profiling")
    )

    assert simple["direct"] >= simple["call_site"] - 0.02
    assert simple["profiling"] >= simple["direct"]
    assert markov_10["markov"] > markov_10["direct"]
    assert markov_25["markov"] > markov_25["direct"] + 0.03
    assert 0.65 <= markov_25["markov"] <= 1.0


def test_figure8_recursion_repair():
    """Figure 8: "the two recursive calls at 0.8 give the impossible
    1.6, and the §5.2.2 repair (clamp, SCC ceiling 5) recovers"; the
    unrepaired solve is "negative"."""
    from repro.experiments.examples import run_figure8

    result = run_figure8()
    assert result.raw_self_arc_weight == pytest.approx(1.6)
    assert result.unrepaired_solution is not None
    assert result.unrepaired_solution["count_nodes"] < 0
    assert result.repaired_invocations["count_nodes"] == pytest.approx(
        5.0
    )


def test_figure9_markov_call_sites_near_76_percent():
    """Figure 9: "The Markov combination's 75.7% matches the paper's
    76% headline almost exactly"; "in our suite `direct` statistically
    ties Markov on call sites"; "Both remain well below profiling"."""
    from repro.experiments.figure9 import run_figure9

    averages = run_figure9().averages()
    assert 0.65 <= averages["markov"] <= 0.90
    assert abs(averages["markov"] - averages["direct"]) < 0.10
    assert averages["profiling"] >= averages["markov"]
    assert averages["profiling"] >= averages["direct"]


def test_figure10_selective_optimization():
    """Figure 10: "monotone improvement for all three rankings; the
    static ranking tracks the profile rankings (within 0.14× at every
    step) with zero profiling runs"; all 16 functions optimized reach
    the cost model's 1.818."""
    from repro.experiments.figure10 import run_figure10

    result = run_figure10()
    for sweep in result.sweeps:
        for earlier, later in zip(sweep.speedups, sweep.speedups[1:]):
            assert later >= earlier - 1e-9
        assert sweep.speedups[-1] == pytest.approx(1 / 0.55, rel=1e-6)

    estimate = result.sweep("estimate")
    profile = result.sweep("profile")
    for k, (est, prof) in enumerate(
        zip(estimate.speedups, profile.speedups)
    ):
        assert est >= prof - 0.15, f"step {k}"


# ----------------------------------------------------------------------
# Ablations: the constants the paper fixed by fiat.


def test_ablation_loop_count():
    """Loop trip guess: "scores vary < 10 points across {2, 5, 10, 50}
    — consistent with the paper's finding that no structural property
    predicted iteration counts anyway".  Checked between the paper's 5
    and 10."""
    scores = {
        iterations: _ablation_mean(loop_iterations=iterations)
        for iterations in (2, 5, 10, 50)
    }
    assert abs(scores[5] - scores[10]) < 0.10


def test_ablation_branch_probability():
    """Predicted-arm probability: "(paper: 0.8, "exact value... not
    significant"): spread < 10 points across {0.6 … 0.99} —
    confirmed"."""
    scores = {
        probability: _ablation_mean(taken_probability=probability)
        for probability in (0.6, 0.7, 0.8, 0.9, 0.99)
    }
    spread = max(scores.values()) - min(scores.values())
    assert spread < 0.10  # insignificant, as the paper reports


def test_ablation_switch_weighting():
    """Switch arm weighting: "(paper fn 3: label-weighting "slightly
    better"): difference < 15 points on the switch-heaviest
    program"."""
    results = {
        weighted: _intra_score(
            "cc", _program_settings("cc", weight_switch_by_labels=weighted)
        )
        for weighted in (True, False)
    }
    assert abs(results[True] - results[False]) < 0.15


def test_ablation_recursion_parameters():
    """Recursion clamp/ceiling: "(paper: 0.8 / 5): the paper's choice
    is within 15 points of the best swept combination"."""
    from repro.estimators.inter.markov import markov_invocations
    from repro.metrics.protocol import invocation_score_over_profiles

    scores = {}
    for clamp, ceiling in ((0.5, 2.0), (0.8, 5.0), (0.9, 10.0), (0.95, 20.0)):
        total = 0.0
        for name in ABLATION_PROGRAMS:
            program = load_program(name)
            estimate = markov_invocations(
                program, clamp=clamp, ceiling=ceiling
            )
            total += invocation_score_over_profiles(
                program, estimate, collect_profiles(name), 0.25
            )
        scores[(clamp, ceiling)] = total / len(ABLATION_PROGRAMS)

    paper_choice = scores[(0.8, 5.0)]
    assert paper_choice >= max(scores.values()) - 0.15


def test_ablation_pointer_node_weighting():
    """Pointer-node weighting: "address-of-weighted vs uniform arcs
    coincide when every function is taken once (xlisp) and differ only
    under skew (gs) — the approximation is insensitive"."""
    from repro.callgraph.graph import POINTER_NODE
    from repro.estimators.base import intra_estimates
    from repro.estimators.inter.markov import (
        build_call_graph_system,
        solve_with_repair,
    )
    from repro.metrics.protocol import invocation_score_over_profiles

    for name in ("xlisp", "gs"):
        program = load_program(name)
        estimates = intra_estimates(program, "smart")
        for mode in ("address-of", "uniform"):
            system = build_call_graph_system(program, estimates)
            if mode == "uniform":
                targets = [
                    key for key in system.weights if key[0] == POINTER_NODE
                ]
                for key in targets:
                    system.weights[key] = 1.0 / len(targets)
            solution = solve_with_repair(system)
            solution.pop(POINTER_NODE, None)
            value = invocation_score_over_profiles(
                program, solution, collect_profiles(name), 0.25
            )
            assert 0.0 <= value <= 1.0 + 1e-9, (name, mode)


# ----------------------------------------------------------------------
# Extensions beyond the paper's published results.


def test_extension_calibrated_markov():
    """Calibrated probabilities inside the intra Markov model: "Answer
    on this suite: no — block rankings are driven by predicted
    directions and loop structure, not probability precision"."""
    from repro.estimators.intra.markov import markov_estimator
    from repro.metrics.protocol import intra_score_over_profiles
    from repro.prediction import (
        CalibratedPredictor,
        HeuristicPredictor,
        settings_for_program,
    )

    totals = {"flat-0.8": 0.0, "calibrated": 0.0, "combined": 0.0}
    for name in EXTENSION_PROGRAMS:
        program = load_program(name)
        settings = settings_for_program(program)
        predictors = {
            "flat-0.8": HeuristicPredictor(settings),
            "calibrated": CalibratedPredictor(
                settings, combine_evidence=False
            ),
            "combined": CalibratedPredictor(
                settings, combine_evidence=True
            ),
        }
        for label, predictor in predictors.items():
            estimates = {
                function: markov_estimator(program, function, predictor)
                for function in program.function_names
            }
            totals[label] += intra_score_over_profiles(
                program, estimates, collect_profiles(name), 0.05
            )
    scores = {k: v / len(EXTENSION_PROGRAMS) for k, v in totals.items()}

    spread = max(scores.values()) - min(scores.values())
    assert spread < 0.05


def test_extension_cfg_heuristics_missrate():
    """CFG-level Ball–Larus idioms under the AST idioms: "average miss
    rate on the subset drops from 21.2% to 18.3%"."""
    from repro.prediction import (
        HeuristicPredictor,
        ProgramExtendedPredictor,
        measure_miss_rate,
        settings_for_program,
    )

    totals = {"smart": 0.0, "extended": 0.0}
    for name in EXTENSION_PROGRAMS:
        program = load_program(name)
        profiles = collect_profiles(name)
        predictors = {
            "smart": HeuristicPredictor(settings_for_program(program)),
            "extended": ProgramExtendedPredictor(program),
        }
        for label, predictor in predictors.items():
            rates = [
                measure_miss_rate(program, predictor, profile).miss_rate
                for profile in profiles
            ]
            totals[label] += sum(rates) / len(rates)
    rates = {k: v / len(EXTENSION_PROGRAMS) for k, v in totals.items()}

    assert rates["extended"] <= rates["smart"] + 0.01


def test_extension_arc_frequencies():
    """Arc frequencies: "Markov blocks × predicted probabilities score
    84.5% arc-level weight matching at the 5% cutoff"."""
    from repro.estimators import arc_score_over_profiles

    score = sum(
        arc_score_over_profiles(
            load_program(name), collect_profiles(name), cutoff=0.05
        )
        for name in EXTENSION_PROGRAMS
    ) / len(EXTENSION_PROGRAMS)
    assert 0.5 <= score <= 1.0 + 1e-9


def test_extension_code_layout():
    """Code layout: "layouts driven by the static arc estimates reach a
    70.0% dynamic fall-through fraction vs 30.1% for source order and
    70.7% for profile-guided layout"."""
    from repro.optimize import evaluate_layout_strategies

    totals = {"original": 0.0, "estimate": 0.0, "profile": 0.0}
    for name in EXTENSION_PROGRAMS:
        profiles = collect_profiles(name)
        result = evaluate_layout_strategies(
            load_program(name), profiles[0], profiles[-1]
        )
        for key in totals:
            totals[key] += result[key]
    fractions = {k: v / len(EXTENSION_PROGRAMS) for k, v in totals.items()}

    assert fractions["estimate"] > fractions["original"] + 0.10
    assert fractions["estimate"] > fractions["profile"] - 0.10
