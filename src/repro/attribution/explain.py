"""The ``repro explain`` engine: collect, attribute, rank, render.

One :class:`ProgramExplanation` per program joins the attribution
pieces end to end:

1. the program's evaluation profiles are collected (persistent profile
   cache; byte-identical across backends and worker counts) and
   aggregated;
2. per-branch records are built (:mod:`repro.attribution.records`);
3. each function's branch errors are propagated through its Markov
   flow system (:mod:`repro.attribution.sensitivity`), and the
   resulting local attributions are weighted by the inter-procedural
   Markov invocation estimates so branches rank globally;
4. the result is cached (:mod:`repro.attribution.cache`), published as
   metrics (:mod:`repro.attribution.accuracy`), and rendered as text,
   JSON, JSONL features, or DOT heatmaps.

Everything on stdout is deterministic: no timings, no directories, no
job counts — ``repro explain`` output is byte-identical across
``--backend interp|compiled`` and ``--jobs 1|N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import store
from repro.estimators.base import (
    INTRA_ESTIMATORS,
    profile_block_estimates,
)
from repro.estimators.intra.markov import solve_flow_system
from repro.linalg.solve import SingularMatrixError
from repro.obs import incr, span
from repro.profiles.aggregate import aggregate_profiles
from repro.profiles.profile import Profile

from repro.attribution import cache as attribution_cache
from repro.attribution.accuracy import (
    accuracy_by_heuristic,
    publish_accuracy_metrics,
)
from repro.attribution.records import BranchRecord, collect_branch_records
from repro.attribution.sensitivity import attribute_function_errors

#: Default number of ranked branches shown by ``repro explain``.
DEFAULT_TOP = 10


@dataclass
class ProgramExplanation:
    """The full attribution result for one program."""

    program: str
    estimator: str
    records: list[BranchRecord] = field(default_factory=list)
    #: Signed per-block frequency error (estimate - profile), per
    #: function, normalized to one function entry.
    block_errors: dict[str, dict[int, float]] = field(
        default_factory=dict
    )
    #: Estimated invocations per function (the global ranking weight).
    invocations: dict[str, float] = field(default_factory=dict)
    #: How branches were weighted across functions: ``markov`` (the
    #: inter chain solved) or ``uniform`` (it did not).
    weighting: str = "markov"
    #: Functions whose flow system stayed singular even damped.
    singular_functions: list[str] = field(default_factory=list)

    @property
    def scored_records(self) -> list[BranchRecord]:
        return [record for record in self.records if record.scored]

    @property
    def miss_rate(self) -> float:
        scored = self.scored_records
        executions = sum(record.executions for record in scored)
        misses = sum(record.dynamic_misses for record in scored)
        return misses / executions if executions else 0.0

    def ranked_branches(self) -> list[BranchRecord]:
        """Scored branches, worst attributed error first (ties break
        by dynamic misses, then stable (function, block) order)."""
        return sorted(
            self.scored_records,
            key=lambda record: (
                -record.global_error,
                -record.dynamic_misses,
                record.function,
                record.block_id,
            ),
        )

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "estimator": self.estimator,
            "records": [record.to_dict() for record in self.records],
            "block_errors": {
                name: {str(b): e for b, e in errors.items()}
                for name, errors in self.block_errors.items()
            },
            "invocations": dict(self.invocations),
            "weighting": self.weighting,
            "singular_functions": list(self.singular_functions),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProgramExplanation":
        return cls(
            program=str(payload["program"]),
            estimator=str(payload["estimator"]),
            records=[
                BranchRecord.from_dict(entry)
                for entry in payload["records"]
            ],
            block_errors={
                name: {int(b): float(e) for b, e in errors.items()}
                for name, errors in payload["block_errors"].items()
            },
            invocations={
                name: float(value)
                for name, value in payload["invocations"].items()
            },
            weighting=str(payload["weighting"]),
            singular_functions=[
                str(name) for name in payload["singular_functions"]
            ],
        )


def _estimator_estimates(session, estimator: str):
    """Per-function block estimates for the error vector.  The Markov
    estimator is solved per function so one singular CFG skips that
    function instead of failing the program."""
    if estimator != "markov":
        return session.intra_estimates(estimator), set()
    estimates: dict[str, dict[int, float]] = {}
    singular: set[str] = set()
    program = session.program
    for name in program.function_names:
        try:
            estimates[name] = solve_flow_system(
                program.cfg(name), session.transitions(name)
            )
        except SingularMatrixError:
            singular.add(name)
            estimates[name] = {}
    return estimates, singular


def explain_program(
    name: str,
    estimator: str = "markov",
    use_cache: Optional[bool] = None,
) -> ProgramExplanation:
    """Attribute one suite program's estimation error to its branches.

    ``estimator`` picks the estimate the error vector is measured
    against (``markov``, ``smart``, or ``loop``); the sensitivity
    propagation always runs through the Markov flow system, which is
    the linear operator block frequencies actually flow through.
    """
    from repro.analysis.session import session_for_suite
    from repro.suite import collect_profiles

    if estimator not in INTRA_ESTIMATORS:
        raise KeyError(
            f"unknown intra estimator {estimator!r}; "
            f"choices: {sorted(INTRA_ESTIMATORS)}"
        )
    session = session_for_suite(name)
    program = session.program
    profiles = collect_profiles(name)
    cache_on = store.enabled() if use_cache is None else use_cache
    key = attribution_cache.attribution_cache_key(
        program.source or name, profiles, estimator
    )
    if cache_on:
        explanation = attribution_cache.load_cached_explanation(
            key, ProgramExplanation.from_dict
        )
        if (
            explanation is not None
            and explanation.program == name
            and explanation.estimator == estimator
        ):
            publish_accuracy_metrics(name, explanation.records)
            return explanation
    with span("attribution.explain", program=name, estimator=estimator):
        explanation = _compute_explanation(
            session, name, estimator, aggregate_profiles(profiles)
        )
    if cache_on:
        attribution_cache.store_explanation(key, explanation.to_dict())
    publish_accuracy_metrics(name, explanation.records)
    return explanation


def _compute_explanation(
    session, name: str, estimator: str, aggregate: Profile
) -> ProgramExplanation:
    program = session.program
    records = collect_branch_records(program, aggregate)
    estimates, singular = _estimator_estimates(session, estimator)
    actuals = profile_block_estimates(program, aggregate)
    by_function: dict[str, list[BranchRecord]] = {}
    for record in records:
        by_function.setdefault(record.function, []).append(record)

    block_errors: dict[str, dict[int, float]] = {}
    for function_name in program.function_names:
        cfg = program.cfg(function_name)
        function_estimates = estimates.get(function_name, {})
        function_actuals = actuals.get(function_name, {})
        block_errors[function_name] = {
            block_id: function_estimates.get(block_id, 0.0)
            - function_actuals.get(block_id, 0.0)
            for block_id in sorted(cfg.blocks)
        }
        if function_name in singular:
            continue
        ok = attribute_function_errors(
            cfg,
            session.transitions(function_name),
            function_estimates
            if estimator == "markov"
            else _markov_estimates_or_none(session, function_name)
            or function_estimates,
            by_function.get(function_name, []),
        )
        if not ok:
            singular.add(function_name)

    invocations, weighting = _invocation_weights(session, estimator)
    for record in records:
        record.global_error = record.local_error * invocations.get(
            record.function, 1.0
        )
    return ProgramExplanation(
        program=name,
        estimator=estimator,
        records=records,
        block_errors=block_errors,
        invocations=invocations,
        weighting=weighting,
        singular_functions=sorted(singular),
    )


def _markov_estimates_or_none(session, function_name: str):
    """The Markov solution for one function (the sensitivity operator's
    own fixed point), or None when singular."""
    try:
        return solve_flow_system(
            session.program.cfg(function_name),
            session.transitions(function_name),
        )
    except SingularMatrixError:
        return None


def _invocation_weights(session, estimator: str):
    """Inter-procedural weights so branch errors rank globally."""
    try:
        return session.invocations("markov", estimator), "markov"
    except (SingularMatrixError, KeyError):
        incr("attribution.uniform_weighting")
        return (
            {name: 1.0 for name in session.program.function_names},
            "uniform",
        )


def explain_programs(
    names: list[str],
    estimator: str = "markov",
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> list[ProgramExplanation]:
    """Explain several programs, profile collection fanned out over
    ``jobs`` workers.  The explanations themselves are computed
    serially in name order, so the result (and everything rendered
    from it) is independent of the worker count."""
    from repro.suite import collect_suite_profiles

    if jobs is None or jobs > 1:
        # Warm the profile cache in parallel; the per-program explain
        # path below then collects every profile from cache.
        collect_suite_profiles(names, jobs=jobs, use_cache=use_cache)
    return [
        explain_program(name, estimator=estimator, use_cache=use_cache)
        for name in names
    ]


# ----------------------------------------------------------------------
# Rendering.


def _branch_name(explanation: ProgramExplanation, record: BranchRecord):
    return f"{explanation.program}:{record.function}:B{record.block_id}"


def render_explanations(
    explanations: list[ProgramExplanation],
    top: int = DEFAULT_TOP,
    function: Optional[str] = None,
) -> str:
    """The deterministic ``repro explain`` stdout report."""
    lines: list[str] = []
    total_records = sum(len(e.records) for e in explanations)
    scored = [
        (explanation, record)
        for explanation in explanations
        for record in explanation.scored_records
    ]
    executions = sum(record.executions for _, record in scored)
    misses = sum(record.dynamic_misses for _, record in scored)
    names = ", ".join(e.program for e in explanations)
    lines.append(
        f"explain: {names} "
        f"(estimator={explanations[0].estimator if explanations else '-'})"
    )
    lines.append(
        f"branches: {total_records} static, {len(scored)} scored, "
        f"miss rate "
        f"{(misses / executions if executions else 0.0):.2%}"
    )
    singular = sorted(
        f"{e.program}:{name}"
        for e in explanations
        for name in e.singular_functions
    )
    if singular:
        lines.append(
            f"unattributed (singular flow systems): {', '.join(singular)}"
        )

    lines.append("")
    lines.append("per-heuristic accuracy:")
    lines.append(
        f"  {'heuristic':14} {'branches':>8} {'executions':>12} "
        f"{'misses':>12} {'missrate':>9} {'attributed':>12}"
    )
    merged = accuracy_by_heuristic(
        [record for _, record in scored]
    )
    for reason, row in merged.items():
        lines.append(
            f"  {reason:14} {row.branches:>8} {row.executions:>12.1f} "
            f"{row.misses:>12.1f} {row.miss_rate:>9.2%} "
            f"{row.attributed_error:>12.4g}"
        )

    ranked = sorted(
        scored,
        key=lambda item: (
            -item[1].global_error,
            -item[1].dynamic_misses,
            item[0].program,
            item[1].function,
            item[1].block_id,
        ),
    )
    if function is not None:
        ranked = [
            item for item in ranked if item[1].function == function
        ]
    lines.append("")
    lines.append(f"worst branches (top {top}):")
    lines.append(
        f"  {'rank':>4}  {'branch':36} {'line':>5} {'kind':8} "
        f"{'heuristic':13} {'pred':>5} {'actual':>6} {'execs':>10} "
        f"{'error':>10}"
    )
    for rank, (explanation, record) in enumerate(
        ranked[: max(top, 0)], start=1
    ):
        actual = record.actual_probability
        lines.append(
            f"  {rank:>4}  {_branch_name(explanation, record):36} "
            f"{record.line:>5} {record.kind:8} {record.winner:13} "
            f"{record.predicted_probability:>5.2f} "
            f"{actual if actual is None else format(actual, '.2f'):>6} "
            f"{record.executions:>10.1f} {record.global_error:>10.4g}"
        )
        if record.error_flow:
            flow = ", ".join(
                f"B{block_id} {delta:+.3g}"
                for block_id, delta in record.error_flow
            )
            lines.append(f"        error flow: {flow}")

    if function is not None:
        lines.extend(_function_drilldown(explanations, function))
    return "\n".join(lines)


def _function_drilldown(
    explanations: list[ProgramExplanation], function: str
) -> list[str]:
    """Block-level error table for one function (the drill-down view)."""
    lines: list[str] = []
    for explanation in explanations:
        errors = explanation.block_errors.get(function)
        if errors is None:
            continue
        lines.append("")
        lines.append(
            f"block-frequency error in "
            f"{explanation.program}:{function} "
            f"(weight={explanation.invocations.get(function, 1.0):.4g} "
            f"{explanation.weighting}):"
        )
        worst = sorted(
            errors.items(), key=lambda item: (-abs(item[1]), item[0])
        )
        for block_id, error in worst[:12]:
            lines.append(f"  B{block_id:<4} err={error:+.4g}")
    if not lines:
        lines.append("")
        lines.append(f"(no function {function!r} in the explained programs)")
    return lines


def write_heatmaps(
    explanation: ProgramExplanation,
    directory: str,
    function: Optional[str] = None,
) -> list[str]:
    """Write one heatmap DOT per function under ``directory``
    (``<program>.<function>.dot``); returns the paths written.

    Estimates and the aggregate profile are recomputed from the
    (cached) analysis session rather than stored in the explanation —
    the DOT output is deterministic either way.
    """
    import os

    from repro.analysis.session import session_for_suite
    from repro.suite import collect_profiles

    from repro.attribution.heatmap import heatmap_dot

    session = session_for_suite(explanation.program)
    program = session.program
    aggregate = aggregate_profiles(
        collect_profiles(explanation.program)
    )
    estimates, _ = _estimator_estimates(session, explanation.estimator)
    actuals = profile_block_estimates(program, aggregate)
    by_function: dict[str, list[BranchRecord]] = {}
    for record in explanation.records:
        by_function.setdefault(record.function, []).append(record)
    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for function_name in program.function_names:
        if function is not None and function_name != function:
            continue
        dot = heatmap_dot(
            program.cfg(function_name),
            estimates.get(function_name, {}),
            actuals.get(function_name, {}),
            by_function.get(function_name, []),
            aggregate,
        )
        path = os.path.join(
            directory, f"{explanation.program}.{function_name}.dot"
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dot + "\n")
        paths.append(path)
    return paths


def explanations_to_dict(
    explanations: list[ProgramExplanation],
) -> dict:
    """The ``repro explain --json`` payload."""
    return {
        "estimator": explanations[0].estimator if explanations else None,
        "programs": {
            explanation.program: explanation.to_dict()
            for explanation in explanations
        },
    }


def export_features(
    explanations: list[ProgramExplanation], path: str
) -> int:
    """Write the per-branch feature/label matrix as JSONL.

    One object per branch record across every explained program, each
    carrying the static features (heuristics fired with their
    probabilities, branch kind, winner) and the labels a learned
    estimator trains on (realized taken probability, dynamic
    executions, attributed error).  Returns the row count.
    """
    import json

    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for explanation in explanations:
            for record in explanation.records:
                row = record.to_dict()
                row["program"] = explanation.program
                row["estimator"] = explanation.estimator
                row["actual_probability"] = record.actual_probability
                row["executions"] = record.executions
                row["mispredicted"] = record.mispredicted
                handle.write(
                    json.dumps(row, sort_keys=True) + "\n"
                )
                count += 1
    return count
