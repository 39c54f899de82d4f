"""The paper's evaluation protocol (§3, §4.2).

* Static estimates are scored against **each** profile separately and
  the scores averaged.
* The *profiling* baseline is leave-one-out: each profile is predicted
  by the normalized-and-summed aggregate of all the other profiles.
* Intra-procedural program scores average per-function weight-matching
  scores **weighted by the function's dynamic invocation count** in the
  evaluation profile.
* Function-invocation and call-site scores are single weight-matching
  computations over the whole program (functions compete program-wide;
  call sites compete program-wide).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.estimators.base import profile_block_estimates
from repro.estimators.callsites import (
    actual_call_site_frequencies,
    rankable_call_sites,
)
from repro.metrics.weight_matching import (
    average_scores,
    weight_matching_score,
    weighted_average_scores,
)
from repro.profiles.aggregate import leave_one_out_aggregates
from repro.profiles.profile import Profile
from repro.program import Program

#: The paper's headline cutoffs per experiment.
INTRA_CUTOFF = 0.05
INVOCATION_CUTOFFS = (0.10, 0.25)
CALL_SITE_CUTOFF = 0.25


def intra_program_score(
    program: Program,
    estimates: Mapping[str, Mapping[int, float]],
    profile: Profile,
    cutoff: float = INTRA_CUTOFF,
) -> float:
    """Invocation-weighted mean of per-function block scores."""
    scored: list[tuple[float, float]] = []
    for name in program.function_names:
        weight = profile.entry_count(name)
        if weight <= 0:
            continue
        actual = {
            block_id: profile.block_counts.get(name, {}).get(block_id, 0.0)
            for block_id in program.cfg(name).blocks
        }
        score = weight_matching_score(
            estimates.get(name, {}), actual, cutoff
        )
        scored.append((score, weight))
    return weighted_average_scores(scored)


def intra_score_over_profiles(
    program: Program,
    estimates: Mapping[str, Mapping[int, float]],
    profiles: Sequence[Profile],
    cutoff: float = INTRA_CUTOFF,
) -> float:
    """Score one static estimate against every profile, averaged."""
    return average_scores(
        [
            intra_program_score(program, estimates, profile, cutoff)
            for profile in profiles
        ]
    )


def intra_profiling_baseline(
    program: Program,
    profiles: Sequence[Profile],
    cutoff: float = INTRA_CUTOFF,
) -> float:
    """Leave-one-out profiling score for intra-procedural frequencies."""
    scores: list[float] = []
    for held_out, aggregate in leave_one_out_aggregates(profiles):
        estimates = profile_block_estimates(program, aggregate)
        scores.append(
            intra_program_score(program, estimates, held_out, cutoff)
        )
    return average_scores(scores)


# ----------------------------------------------------------------------
# Function invocations.


def invocation_score(
    program: Program,
    estimate: Mapping[str, float],
    profile: Profile,
    cutoff: float,
) -> float:
    """Weight-matching over whole functions (paper §4.3/§5.2)."""
    actual = {
        name: profile.entry_count(name) for name in program.function_names
    }
    return weight_matching_score(estimate, actual, cutoff)


def invocation_score_over_profiles(
    program: Program,
    estimate: Mapping[str, float],
    profiles: Sequence[Profile],
    cutoff: float,
) -> float:
    """Invocation score against every profile, averaged."""
    return average_scores(
        [
            invocation_score(program, estimate, profile, cutoff)
            for profile in profiles
        ]
    )


def invocation_profiling_baseline(
    program: Program,
    profiles: Sequence[Profile],
    cutoff: float,
) -> float:
    """Leave-one-out profiling baseline for function invocations."""
    scores: list[float] = []
    for held_out, aggregate in leave_one_out_aggregates(profiles):
        estimate = {
            name: aggregate.entry_count(name)
            for name in program.function_names
        }
        scores.append(
            invocation_score(program, estimate, held_out, cutoff)
        )
    return average_scores(scores)


# ----------------------------------------------------------------------
# Call sites.


def call_site_score(
    program: Program,
    estimate: Mapping[int, float],
    profile: Profile,
    cutoff: float = CALL_SITE_CUTOFF,
) -> float:
    """Weight-matching over direct call sites, program-wide."""
    actual = actual_call_site_frequencies(program, profile)
    if not actual:
        return 1.0
    return weight_matching_score(estimate, actual, cutoff)


def call_site_score_over_profiles(
    program: Program,
    estimate: Mapping[int, float],
    profiles: Sequence[Profile],
    cutoff: float = CALL_SITE_CUTOFF,
) -> float:
    """Call-site score against every profile, averaged."""
    return average_scores(
        [
            call_site_score(program, estimate, profile, cutoff)
            for profile in profiles
        ]
    )


def call_site_profiling_baseline(
    program: Program,
    profiles: Sequence[Profile],
    cutoff: float = CALL_SITE_CUTOFF,
) -> float:
    """Leave-one-out profiling baseline for call sites."""
    if not rankable_call_sites(program):
        return 1.0
    scores: list[float] = []
    for held_out, aggregate in leave_one_out_aggregates(profiles):
        estimate = actual_call_site_frequencies(program, aggregate)
        scores.append(
            call_site_score(program, estimate, held_out, cutoff)
        )
    return average_scores(scores)

