"""Shared estimator plumbing: registries and local call-site frequencies.

An *intra estimator* maps ``(program, function)`` to per-block
frequencies normalized to one function entry.  Everything
inter-procedural is built from those plus the call graph: the local
frequency of a call site is the estimated frequency of the block that
contains it, "relative to the frequency with which the containing
function is called" (paper §5.2).
"""

from __future__ import annotations

from typing import Callable

from repro.callgraph.graph import CallSite
from repro.estimators.intra.astwalk import loop_estimator, smart_estimator
from repro.estimators.intra.markov import markov_estimator
from repro.program import Program

#: Signature of an intra-procedural estimator.
IntraEstimator = Callable[[Program, str], dict[int, float]]

#: The paper's three intra-procedural techniques by name.
INTRA_ESTIMATORS: dict[str, IntraEstimator] = {
    "loop": loop_estimator,
    "smart": smart_estimator,
    "markov": markov_estimator,
}


def resolve_intra_estimator(
    estimator: "str | IntraEstimator",
) -> IntraEstimator:
    """Accept either a registry name or a callable."""
    if callable(estimator):
        return estimator
    try:
        return INTRA_ESTIMATORS[estimator]
    except KeyError:
        raise KeyError(
            f"unknown intra estimator {estimator!r}; "
            f"choices: {sorted(INTRA_ESTIMATORS)}"
        ) from None


def intra_estimates(
    program: Program, estimator: "str | IntraEstimator" = "smart"
) -> dict[str, dict[int, float]]:
    """Per-function block-frequency estimates for the whole program.

    Registry-name estimators are served from (and memoized in) the
    program's :class:`~repro.analysis.session.AnalysisSession`, so
    every consumer of e.g. the smart estimates shares one AST walk;
    ad-hoc callables are computed directly.
    """
    if isinstance(estimator, str):
        resolve_intra_estimator(estimator)  # Validate the name early.
        from repro.analysis.session import AnalysisSession

        return AnalysisSession.of(program).intra_estimates(estimator)
    function = resolve_intra_estimator(estimator)
    return {name: function(program, name) for name in program.function_names}


def local_call_site_frequency(
    site: CallSite, estimates: dict[str, dict[int, float]]
) -> float:
    """Estimated executions of ``site`` per invocation of its caller."""
    return estimates.get(site.caller, {}).get(site.block_id, 0.0)


def profile_block_estimates(
    program: Program, profile
) -> dict[str, dict[int, float]]:
    """A profile reshaped to the intra-estimate format (the *profiling*
    baseline): block counts normalized per function entry."""
    result: dict[str, dict[int, float]] = {}
    for name in program.function_names:
        entries = profile.entry_count(name)
        blocks = profile.blocks_for(name)
        if entries > 0:
            result[name] = {
                block_id: count / entries
                for block_id, count in blocks.items()
            }
        else:
            result[name] = {block_id: 0.0 for block_id in blocks}
        for block_id in program.cfg(name).blocks:
            result[name].setdefault(block_id, 0.0)
    return result


def make_profile_intra_estimator(profile) -> IntraEstimator:
    """Wrap a profile as an intra estimator (for baselines)."""

    def estimator(program: Program, function_name: str) -> dict[int, float]:
        return profile_block_estimates(program, profile)[function_name]

    return estimator
