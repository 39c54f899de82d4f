"""Memoized per-program analysis sessions.

An :class:`AnalysisSession` wraps one :class:`~repro.program.Program`
and owns every static-analysis artifact derived from it:

* the branch predictor (heuristic settings + per-branch prediction
  memo),
* per-function CFG transition probabilities,
* intra-procedural block-frequency estimates, per estimator,
* call-graph invocation estimates, per (backend, intra estimator),
* global call-site frequency estimates, per backend.

Each artifact is computed exactly once per session and handed (as a
defensive copy) to every consumer, so ten experiments asking for the
smart estimates of ``compress`` cost one AST walk, not ten.  Sessions
attach to the program object itself (:meth:`AnalysisSession.of`), which
makes the memo available to *every* code path holding the program —
including the estimator registry functions — without threading a
session argument through each call chain.

Sessions also consult the optional on-disk layer
(:mod:`repro.analysis.cache`): computed intra estimates and Markov
invocations are persisted keyed by a content hash of the source, so a
second process (a parallel experiment worker, the next CLI run) loads
them instead of re-solving.

Every computation runs inside a span (``analysis.parse``,
``analysis.intra``, ``analysis.inter``, ``analysis.transitions``,
``analysis.callsites``); ``repro run all --timings`` and the run
ledger read their stage times off those spans.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro import store
from repro.analysis import cache as analysis_cache
from repro.cfg.block import BasicBlock, CondBranch, SwitchBranch
from repro.obs import incr, span
from repro.estimators.base import (
    IntraEstimator,
    local_call_site_frequency,
    resolve_intra_estimator,
)
from repro.estimators.inter.markov import invocations_from_estimates
from repro.estimators.inter.simple import SIMPLE_INTER_ESTIMATORS
from repro.estimators.intra.markov import (
    solve_flow_system,
    transition_probabilities,
)
from repro.prediction.error_functions import settings_for_program
from repro.prediction.heuristics import BranchPrediction
from repro.prediction.predictor import BranchPredictor, HeuristicPredictor
from repro.program import Program

# ----------------------------------------------------------------------
# Predictor memoization.


class MemoizedPredictor:
    """A :class:`BranchPredictor` caching per-branch predictions.

    Predictions depend only on the branch's terminator, which is fixed
    per block, so ``(function, block id)`` is a complete key.  Sharing
    one of these per program means the heuristic AST matching runs once
    per branch instead of once per (branch, profile, experiment).
    """

    def __init__(self, base: BranchPredictor):
        self.base = base
        self._branches: dict[tuple[str, int], BranchPrediction] = {}
        self._switches: dict[tuple[str, int], dict[int, float]] = {}

    def predict_branch(
        self, function: str, block: BasicBlock, branch: CondBranch
    ) -> BranchPrediction:
        key = (function, block.block_id)
        hit = self._branches.get(key)
        if hit is None:
            hit = self.base.predict_branch(function, block, branch)
            self._branches[key] = hit
        return hit

    def switch_weights(
        self, function: str, block: BasicBlock, switch: SwitchBranch
    ) -> dict[int, float]:
        key = (function, block.block_id)
        hit = self._switches.get(key)
        if hit is None:
            hit = self.base.switch_weights(function, block, switch)
            self._switches[key] = hit
        return dict(hit)


@dataclass
class SessionStats:
    """Memo and disk-cache traffic for one session."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_stores: int = 0


class AnalysisSession:
    """All memoized analysis artifacts for one program."""

    def __init__(self, program: Program):
        self.program = program
        self.stats = SessionStats()
        # Sessions are shared across threads by the serving pool; one
        # reentrant lock serializes memo fills (computations nest:
        # intra -> transitions -> predictor) while results, handed out
        # as defensive copies, stay safe to use lock-free.
        self._lock = threading.RLock()
        self._predictor: Optional[MemoizedPredictor] = None
        self._transitions: dict[str, dict[int, dict[int, float]]] = {}
        self._intra: dict[str, dict[str, dict[int, float]]] = {}
        self._invocations: dict[tuple[str, str], dict[str, float]] = {}
        self._call_sites: dict[tuple[str, str], dict[int, float]] = {}

    @classmethod
    def of(cls, program: Program) -> "AnalysisSession":
        """The session attached to ``program``, created on demand.

        Attaching to the program object (rather than a registry keyed
        by name) ties the session's lifetime to the program's: when the
        suite registry drops a memoized program, its session goes too.
        """
        session = getattr(program, "_analysis_session", None)
        if session is None:
            session = cls(program)
            program._analysis_session = session
        return session

    def detach(self) -> None:
        """Break the program ↔ session cycle :meth:`of` created.

        A holder that is done with this session (the serving pool on
        eviction) calls this so reference counting frees the program
        and every memo as soon as the last reference goes, instead of
        leaving them to a full cyclic collection.  Holders that still
        have the session keep a working one: the ``program`` edge
        stays.
        """
        if getattr(self.program, "_analysis_session", None) is self:
            del self.program._analysis_session

    # ------------------------------------------------------------------
    # Predictor and transitions.

    def predictor(self) -> MemoizedPredictor:
        """The program's smart heuristic predictor, prediction-memoized."""
        with self._lock:
            if self._predictor is None:
                self._predictor = MemoizedPredictor(
                    HeuristicPredictor(settings_for_program(self.program))
                )
            return self._predictor

    def transitions(self, function_name: str) -> dict[int, dict[int, float]]:
        """Per-block successor probabilities for one function."""
        with self._lock:
            cached = self._transitions.get(function_name)
            if cached is None:
                self.stats.misses += 1
                incr("analysis.memo_misses")
                with span(
                    "analysis.transitions",
                    program=self.program.name,
                    function=function_name,
                ):
                    cached = transition_probabilities(
                        self.program.cfg(function_name), self.predictor()
                    )
                self._transitions[function_name] = cached
            else:
                self.stats.hits += 1
                incr("analysis.memo_hits")
            return {block: dict(row) for block, row in cached.items()}

    # ------------------------------------------------------------------
    # Intra-procedural estimates.

    def intra_estimates(
        self, estimator: "str | IntraEstimator" = "smart"
    ) -> dict[str, dict[int, float]]:
        """Per-function block-frequency estimates, memoized per
        estimator name (callables are computed but not memoized)."""
        if not isinstance(estimator, str):
            return self._compute_intra(estimator)
        with self._lock:
            cached = self._intra.get(estimator)
            if cached is None:
                self.stats.misses += 1
                incr("analysis.memo_misses")
                cached = self._load_from_disk(
                    "intra", estimator, analysis_cache.decode_intra
                )
                if cached is None:
                    with span(
                        "analysis.intra",
                        program=self.program.name,
                        estimator=estimator,
                    ):
                        cached = self._compute_intra(estimator)
                    self._store_to_disk(
                        "intra", estimator, analysis_cache.encode_intra(cached)
                    )
                self._intra[estimator] = cached
            else:
                self.stats.hits += 1
                incr("analysis.memo_hits")
            return {
                name: dict(blocks) for name, blocks in cached.items()
            }

    def _compute_intra(
        self, estimator: "str | IntraEstimator"
    ) -> dict[str, dict[int, float]]:
        if estimator == "markov":
            # Route through the memoized predictor and transitions so
            # the heuristic pass is shared with every other consumer.
            return {
                name: solve_flow_system(
                    self.program.cfg(name), self.transitions(name)
                )
                for name in self.program.function_names
            }
        function = resolve_intra_estimator(estimator)
        return {
            name: function(self.program, name)
            for name in self.program.function_names
        }

    def _load_from_disk(self, kind: str, name: str, decode):
        """A stored artifact covering this program's functions, or
        None (caching off, no source text, a miss, or a stale entry)."""
        if not self.program.source or not store.enabled():
            return None
        value = analysis_cache.load_cached_analysis(
            analysis_cache.analysis_cache_key(self.program.source, kind, name),
            decode,
        )
        # A stale entry for a different function set must not survive.
        if value is None or set(value) != set(self.program.function_names):
            return None
        self.stats.disk_hits += 1
        return value

    def _store_to_disk(self, kind: str, name: str, payload: dict) -> None:
        if not self.program.source or not store.enabled():
            return
        analysis_cache.store_analysis(
            analysis_cache.analysis_cache_key(self.program.source, kind, name),
            payload,
        )
        self.stats.disk_stores += 1

    # ------------------------------------------------------------------
    # Inter-procedural (invocation) estimates.

    def invocations(
        self, backend: str = "markov", estimator: str = "smart"
    ) -> dict[str, float]:
        """Function-invocation estimates, memoized per (backend,
        intra estimator).  Backends: ``markov`` plus the four simple
        combiners (``call_site``, ``direct``, ``all_rec``,
        ``all_rec2``)."""
        key = (backend, estimator)
        # Only the Markov backend is worth persisting: the simple
        # combiners are a linear pass over already-memoized estimates.
        persisted = backend == "markov"
        with self._lock:
            cached = self._invocations.get(key)
            if cached is None:
                self.stats.misses += 1
                incr("analysis.memo_misses")
                if persisted:
                    cached = self._load_from_disk(
                        "inter",
                        f"{backend}:{estimator}",
                        analysis_cache.decode_invocations,
                    )
                if cached is None:
                    # Intra estimates are a separate (memoized and
                    # separately timed) stage; compute them first so
                    # the inter stage times only its own work.
                    estimates = self.intra_estimates(estimator)
                    with span(
                        "analysis.inter",
                        program=self.program.name,
                        backend=backend,
                        estimator=estimator,
                    ):
                        if backend == "markov":
                            cached = invocations_from_estimates(
                                self.program, estimates
                            )
                        elif backend in SIMPLE_INTER_ESTIMATORS:
                            cached = SIMPLE_INTER_ESTIMATORS[backend](
                                self.program, estimator
                            )
                        else:
                            raise KeyError(
                                f"unknown invocation backend "
                                f"{backend!r}; choices: "
                                f"{['markov', *sorted(SIMPLE_INTER_ESTIMATORS)]}"
                            )
                    if persisted:
                        self._store_to_disk(
                            "inter",
                            f"{backend}:{estimator}",
                            {"invocations": cached},
                        )
                self._invocations[key] = cached
            else:
                self.stats.hits += 1
                incr("analysis.memo_hits")
            return dict(cached)

    # ------------------------------------------------------------------
    # Global call-site frequencies.

    def call_site_frequencies(
        self, backend: str = "markov", estimator: str = "smart"
    ) -> dict[int, float]:
        """Estimated global frequency per call-site id (pointer calls
        omitted), memoized per (backend, intra estimator)."""
        key = (backend, estimator)
        with self._lock:
            cached = self._call_sites.get(key)
            if cached is None:
                self.stats.misses += 1
                incr("analysis.memo_misses")
                estimates = self.intra_estimates(estimator)
                invocations = self.invocations(backend, estimator)
                with span(
                    "analysis.callsites",
                    program=self.program.name,
                    backend=backend,
                    estimator=estimator,
                ):
                    cached = {}
                    for site in self.program.call_sites():
                        if site.callee is None:
                            continue
                        local = local_call_site_frequency(
                            site, estimates
                        )
                        cached[site.site_id] = local * invocations.get(
                            site.caller, 0.0
                        )
                self._call_sites[key] = cached
            else:
                self.stats.hits += 1
                incr("analysis.memo_hits")
            return dict(cached)


# ----------------------------------------------------------------------
# Session constructors.

#: Sessions for example sources, keyed by (name, source) so repeated
#: construction of the same example shares one parse.
_SOURCE_SESSIONS: dict[tuple[str, str], AnalysisSession] = {}


def session_for_source(source: str, name: str) -> AnalysisSession:
    """A session for arbitrary C source, parsed at most once per
    process per (name, source) pair."""
    key = (name, source)
    session = _SOURCE_SESSIONS.get(key)
    if session is None:
        with span("analysis.parse", program=name):
            program = Program.from_source(source, name)
        session = AnalysisSession.of(program)
        _SOURCE_SESSIONS[key] = session
    return session


def session_for_suite(name: str) -> AnalysisSession:
    """The session of one suite program (compiled at most once per
    process, via the suite registry's program memo)."""
    from repro.suite import registry

    already_loaded = name in registry._PROGRAM_CACHE
    if already_loaded:
        return AnalysisSession.of(registry.load_program(name))
    with span("analysis.parse", program=name):
        program = registry.load_program(name)
    return AnalysisSession.of(program)


def clear_sessions() -> None:
    """Drop example-source sessions (suite sessions live and die with
    the registry's program memo)."""
    _SOURCE_SESSIONS.clear()
