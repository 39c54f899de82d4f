"""Global call-site frequency estimation (paper §5.3).

The frequency of a call site is (estimated executions of its block per
caller invocation) × (estimated invocations of the caller).  Sites that
call through pointers are omitted — "it is difficult or impossible to
inline calls through pointers, so we omit them from these scores".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.callgraph.graph import CallSite
from repro.estimators.base import (
    IntraEstimator,
    intra_estimates,
    local_call_site_frequency,
)
from repro.estimators.inter.markov import markov_invocations
from repro.estimators.inter.simple import direct_invocations
from repro.profiles.profile import Profile
from repro.program import Program

#: Signature of an inter-procedural (invocation) estimator.
InterEstimator = Callable[[Program], dict[str, float]]


def rankable_call_sites(program: Program) -> list[CallSite]:
    """Direct user-to-user call sites (pointer calls omitted)."""
    return [
        site for site in program.call_sites() if site.callee is not None
    ]


def estimate_call_site_frequencies(
    program: Program,
    intra: "str | IntraEstimator" = "smart",
    invocations: Optional[dict[str, float]] = None,
) -> dict[int, float]:
    """Estimated global frequency per call site id.

    ``invocations`` defaults to the call-graph Markov estimate built on
    the same intra estimator.
    """
    estimates = intra_estimates(program, intra)
    if invocations is None:
        invocations = markov_invocations(program, intra)
    result: dict[int, float] = {}
    for site in rankable_call_sites(program):
        local = local_call_site_frequency(site, estimates)
        result[site.site_id] = local * invocations.get(site.caller, 0.0)
    return result


def markov_call_site_estimator(program: Program) -> dict[int, float]:
    """Figure 9's *Markov* column: smart intra × Markov invocations."""
    return estimate_call_site_frequencies(program, "smart")


def direct_call_site_estimator(program: Program) -> dict[int, float]:
    """Figure 9's *direct* column: smart intra × direct invocations."""
    return estimate_call_site_frequencies(
        program, "smart", invocations=direct_invocations(program, "smart")
    )


def actual_call_site_frequencies(
    program: Program, profile: Profile
) -> dict[int, float]:
    """Measured call-site counts for the same rankable sites."""
    return {
        site.site_id: profile.call_site_count(site.site_id)
        for site in rankable_call_sites(program)
    }
