"""The shared static-analysis engine.

Every consumer of static estimates — the experiment harness, the CLI,
the daemon — talks to a per-program :class:`AnalysisSession`
(:mod:`repro.analysis.session`), which computes each analysis artifact
(branch predictions, per-block transition probabilities, intra
estimates, call-graph invocation estimates, call-site frequencies)
exactly once per (program, estimator) pair and hands the cached result
to every caller.  An on-disk layer (:mod:`repro.analysis.cache`)
persists the computed estimates in the shared store
(:mod:`repro.store`), keyed by a content hash of the source, so
separate processes (parallel experiment workers, repeated CLI runs)
share the analysis work too.
"""

from repro.analysis.cache import (
    ANALYSIS_VERSION,
    analysis_cache_key,
    load_cached_analysis,
    store_analysis,
)
from repro.analysis.session import (
    AnalysisSession,
    MemoizedPredictor,
    SessionStats,
    clear_sessions,
    session_for_source,
    session_for_suite,
)

__all__ = [
    "ANALYSIS_VERSION",
    "AnalysisSession",
    "MemoizedPredictor",
    "SessionStats",
    "analysis_cache_key",
    "clear_sessions",
    "load_cached_analysis",
    "session_for_source",
    "session_for_suite",
    "store_analysis",
]
