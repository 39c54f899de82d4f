"""Differential invariant oracles run against each fuzz case.

Each oracle checks one invariant the estimator pipeline must satisfy on
*every* program, not just the pinned suite:

* ``flow_conservation`` — the interpreter's profile is a flow: each
  block's in-flow (arc counts in, plus function entries at the CFG
  entry block) equals its execution count, each non-exit block's
  out-flow equals its count, and return-block counts sum to the entry
  count.  This is the probabilistic data-flow conservation property the
  Markov model assumes of ground truth.
* ``markov_vs_simulation`` — the production Markov intra estimates
  (through :class:`~repro.analysis.session.AnalysisSession`, i.e. the
  same memo/disk-cache path the experiments use) must solve the
  transition system: they satisfy ``(I - d·P^T) f = e`` for one of the
  solver's damping factors, and where plain power iteration on the
  undamped system converges they match it numerically.
* ``sparse_vs_dense`` — the sparse SCC solver and the dense oracle
  solver agree on every function's flow system.
* ``cache_round_trip`` — analysis results are byte-identical whether
  computed cold or loaded from the persistent analysis cache, and a
  profile stored in the profile cache loads back exactly.
* ``profile_round_trip`` — profile JSON serialization is exact,
  including iteration order.
* ``weight_matching_bounds`` — Wall's weight-matching score stays in
  ``[0, 1]`` for estimate-vs-actual and is exactly 1 for self-match.
* ``compiled_vs_interpreter`` — the case re-runs under the *other*
  execution backend (interpreter if the primary run was compiled, and
  vice versa) and must reproduce the exit status, the stdout bytes,
  and the profile **byte-for-byte** (JSON serialization, iteration
  order included).  This is the differential oracle pinning the
  compiled backend to interpreter semantics.

:func:`check_program` compiles, runs, and applies every oracle to one
source text, always through a **fresh** :class:`Program` (and therefore
a fresh analysis session), so memoized state from previous cases can
never mask a failure.  The primary run's backend resolves like every
other execution (explicit argument > ``REPRO_BACKEND`` > compiled).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.session import AnalysisSession
from repro.cfg.block import ReturnTerm
from repro.compile import resolve_backend, run_program_backend
from repro.estimators.intra.markov import DAMPING_FACTORS, solve_flow_system
from repro.frontend.errors import FrontendError
from repro.fuzz.generator import DEFAULT_MACHINE_FUEL
from repro.interp.errors import InterpreterError
from repro.interp.machine import ExecutionResult
from repro.metrics.weight_matching import weight_matching_score
from repro.obs import incr, span
from repro.profiles import cache as profile_cache
from repro.profiles.profile import Profile
from repro.profiles.serialize import (
    dumps_profile,
    loads_profile,
    profile_to_dict,
    profiles_equal,
)
from repro.program import Program

#: Exact-count comparisons (profile flow): counts are integral floats.
_EXACT_TOLERANCE = 1e-6

#: Relative tolerance for solver-vs-solver comparisons.
_SOLVER_TOLERANCE = 1e-8

#: Relative tolerance for solution-vs-power-iteration comparisons.
_SIMULATION_TOLERANCE = 1e-6

#: Power-iteration budget; non-converged functions fall back to the
#: residual check alone (never a spurious failure).
_SIMULATION_MAX_ROUNDS = 20_000
_SIMULATION_CONVERGENCE = 1e-12

#: Weight-matching cutoffs exercised per function.
_CUTOFFS = (0.25, 0.5, 1.0)


@dataclass
class OracleFailure:
    """One invariant violation found by one oracle."""

    oracle: str
    message: str

    def render(self) -> str:
        return f"{self.oracle}: {self.message}"


@dataclass
class CaseReport:
    """Everything one fuzz case produced: source, profile, verdicts."""

    name: str
    source: str
    failures: list[OracleFailure] = field(default_factory=list)
    oracles_run: list[str] = field(default_factory=list)
    profile: Optional[Profile] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failing_oracles(self) -> list[str]:
        """Distinct failing oracle names, first-failure order."""
        seen: list[str] = []
        for failure in self.failures:
            if failure.oracle not in seen:
                seen.append(failure.oracle)
        return seen


@dataclass
class OracleContext:
    """What every oracle gets to look at."""

    program: Program
    profile: Profile
    session: AnalysisSession
    #: The primary run's full result, execution budget, and backend —
    #: what ``compiled_vs_interpreter`` mirrors on the other backend.
    #: ``result`` may be None for callers (the shrinker's oracle
    #: subsets) that only replay analysis-side oracles.
    result: Optional[ExecutionResult] = None
    fuel: int = DEFAULT_MACHINE_FUEL
    backend: str = "interp"


#: One oracle: context -> violation messages (empty = invariant holds).
Oracle = Callable[[OracleContext], list[str]]


# ----------------------------------------------------------------------
# Oracle implementations.


def check_flow_conservation(ctx: OracleContext) -> list[str]:
    """Block in-flow = execution count = out-flow, per the CFG."""
    violations: list[str] = []
    profile = ctx.profile
    for name, counts in profile.block_counts.items():
        cfg = ctx.program.cfgs.get(name)
        if cfg is None:
            violations.append(f"profile names unknown function {name!r}")
            continue
        arcs = profile.arc_counts.get(name, {})
        entries = profile.function_entries.get(name, 0.0)
        inflow: dict[int, float] = {}
        outflow: dict[int, float] = {}
        for (source, target), count in arcs.items():
            inflow[target] = inflow.get(target, 0.0) + count
            outflow[source] = outflow.get(source, 0.0) + count
        returned = 0.0
        for block in cfg:
            block_id = block.block_id
            count = counts.get(block_id, 0.0)
            into = inflow.get(block_id, 0.0)
            if block_id == cfg.entry_id:
                into += entries
            if abs(into - count) > _EXACT_TOLERANCE:
                violations.append(
                    f"{name}:B{block_id} in-flow {into:g} != "
                    f"count {count:g}"
                )
            out = outflow.get(block_id, 0.0)
            if isinstance(block.terminator, ReturnTerm):
                returned += count
                if out > _EXACT_TOLERANCE:
                    violations.append(
                        f"{name}:B{block_id} return block has "
                        f"out-flow {out:g}"
                    )
            elif abs(out - count) > _EXACT_TOLERANCE:
                violations.append(
                    f"{name}:B{block_id} out-flow {out:g} != "
                    f"count {count:g}"
                )
        if abs(returned - entries) > _EXACT_TOLERANCE:
            violations.append(
                f"{name} returns {returned:g} times but was entered "
                f"{entries:g} times"
            )
    return violations


def _simulate_flow(
    entry_id: int,
    block_ids: list[int],
    transitions: dict[int, dict[int, float]],
) -> Optional[dict[int, float]]:
    """Power iteration on ``f = e + P^T f``; None if not converged."""
    frequencies = {block_id: 0.0 for block_id in block_ids}
    for _ in range(_SIMULATION_MAX_ROUNDS):
        updated = {block_id: 0.0 for block_id in block_ids}
        updated[entry_id] = 1.0
        for source, row in transitions.items():
            flow = frequencies[source]
            if flow == 0.0:
                continue
            for target, probability in row.items():
                updated[target] += probability * flow
        delta = max(
            abs(updated[block_id] - frequencies[block_id])
            for block_id in block_ids
        )
        frequencies = updated
        if delta < _SIMULATION_CONVERGENCE:
            return frequencies
    return None


def _flow_residual(
    entry_id: int,
    estimates: dict[int, float],
    transitions: dict[int, dict[int, float]],
    damping: float,
) -> float:
    """Max residual of ``f - e - d·P^T f`` over all blocks."""
    residual = {
        block_id: -value for block_id, value in estimates.items()
    }
    residual[entry_id] = residual.get(entry_id, 0.0) + 1.0
    for source, row in transitions.items():
        flow = estimates.get(source, 0.0)
        for target, probability in row.items():
            residual[target] += damping * probability * flow
    return max(abs(value) for value in residual.values())


def check_markov_vs_simulation(ctx: OracleContext) -> list[str]:
    """Production Markov estimates solve (and simulate) the chain."""
    violations: list[str] = []
    estimates = ctx.session.intra_estimates("markov")
    for name in ctx.program.function_names:
        cfg = ctx.program.cfg(name)
        transitions = ctx.session.transitions(name)
        function_estimates = estimates[name]
        scale = max(
            1.0, max(abs(v) for v in function_estimates.values())
        )
        residuals = {
            damping: _flow_residual(
                cfg.entry_id, function_estimates, transitions, damping
            )
            for damping in DAMPING_FACTORS
        }
        if min(residuals.values()) > _SIMULATION_TOLERANCE * scale:
            violations.append(
                f"{name}: estimates solve no damped flow system "
                f"(best residual {min(residuals.values()):.3e})"
            )
            continue
        # Where the solver used the undamped system and plain power
        # iteration converges, the two must agree numerically.
        if residuals[1.0] <= _SIMULATION_TOLERANCE * scale:
            block_ids = sorted(cfg.blocks)
            simulated = _simulate_flow(
                cfg.entry_id, block_ids, transitions
            )
            if simulated is None:
                continue
            for block_id in block_ids:
                expected = simulated[block_id]
                got = function_estimates.get(block_id, 0.0)
                bound = _SIMULATION_TOLERANCE * max(1.0, abs(expected))
                if abs(got - expected) > bound:
                    violations.append(
                        f"{name}:B{block_id} markov {got:.9g} != "
                        f"simulated {expected:.9g}"
                    )
    return violations


def check_sparse_vs_dense(ctx: OracleContext) -> list[str]:
    """The sparse SCC solver agrees with the dense oracle solver."""
    violations: list[str] = []
    for name in ctx.program.function_names:
        cfg = ctx.program.cfg(name)
        transitions = ctx.session.transitions(name)
        sparse = solve_flow_system(cfg, transitions, method="sparse")
        dense = solve_flow_system(cfg, transitions, method="dense")
        for block_id, dense_value in dense.items():
            bound = _SOLVER_TOLERANCE * max(1.0, abs(dense_value))
            if abs(sparse[block_id] - dense_value) > bound:
                violations.append(
                    f"{name}:B{block_id} sparse {sparse[block_id]:.12g}"
                    f" != dense {dense_value:.12g}"
                )
    return violations


def _canonical_analysis(session: AnalysisSession) -> str:
    """The analysis artifacts a session computes, as canonical JSON."""
    return json.dumps(
        {
            "intra": session.intra_estimates("markov"),
            "invocations": session.invocations("markov", "smart"),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def check_cache_round_trip(ctx: OracleContext) -> list[str]:
    """Cold vs. warm analysis byte-equality; profile cache exactness.

    Runs against a private temporary cache directory so the check is
    hermetic and actually exercises the store+load path even when the
    surrounding process disabled caching.
    """
    violations: list[str] = []
    scratch = tempfile.mkdtemp(prefix="repro-fuzz-cache-")
    saved = {
        key: os.environ.get(key) for key in ("REPRO_CACHE", "REPRO_CACHE_DIR")
    }
    try:
        os.environ["REPRO_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = scratch
        source = ctx.program.source
        name = ctx.program.name
        cold_session = AnalysisSession(
            Program.from_source(source, name)
        )
        cold = _canonical_analysis(cold_session)
        if cold_session.stats.disk_stores == 0:
            violations.append("cold session stored nothing to disk")
        warm_session = AnalysisSession(
            Program.from_source(source, name)
        )
        warm = _canonical_analysis(warm_session)
        if warm_session.stats.disk_hits == 0:
            violations.append("warm session never hit the disk cache")
        if cold != warm:
            violations.append(
                "cold and warm analysis results differ "
                f"({len(cold)} vs {len(warm)} canonical bytes)"
            )
        # Profile cache: a stored profile must load back exactly.
        key = profile_cache.profile_cache_key(source, "<fuzz>")
        profile_cache.store_profile(key, ctx.profile)
        loaded = profile_cache.load_cached_profile(key)
        if loaded is None:
            violations.append("stored profile failed to load back")
        elif not profiles_equal(ctx.profile, loaded):
            violations.append("profile cache round trip is not exact")
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(scratch, ignore_errors=True)
    return violations


def check_profile_round_trip(ctx: OracleContext) -> list[str]:
    """JSON serialization of the profile is exact, order included."""
    restored = loads_profile(dumps_profile(ctx.profile))
    if profile_to_dict(restored) != profile_to_dict(ctx.profile):
        return ["profile JSON round trip changed the profile"]
    return []


def check_weight_matching_bounds(ctx: OracleContext) -> list[str]:
    """Scores stay in [0, 1]; self-match scores exactly 1."""
    violations: list[str] = []
    estimates = ctx.session.intra_estimates("markov")
    for name in ctx.program.function_names:
        actual = ctx.profile.blocks_for(name)
        estimated = estimates[name]
        for cutoff in _CUTOFFS:
            score = weight_matching_score(estimated, actual, cutoff)
            if not -_EXACT_TOLERANCE <= score <= 1.0 + _EXACT_TOLERANCE:
                violations.append(
                    f"{name}@{cutoff:g}: score {score:.9g} outside "
                    f"[0, 1]"
                )
            self_score = weight_matching_score(actual, actual, cutoff)
            if abs(self_score - 1.0) > _EXACT_TOLERANCE:
                violations.append(
                    f"{name}@{cutoff:g}: self-match score "
                    f"{self_score:.9g} != 1"
                )
    return violations


def check_compiled_vs_interpreter(ctx: OracleContext) -> list[str]:
    """The other execution backend reproduces the run byte-for-byte.

    If the primary run used the compiled backend, the case re-runs
    under the interpreter (and vice versa); exit status, stdout, and
    the profile's JSON serialization — counts, keys, *and* insertion
    order — must match exactly.
    """
    if ctx.result is None:
        return []
    mirror_backend = "interp" if ctx.backend == "compiled" else "compiled"
    try:
        mirror = run_program_backend(
            ctx.program,
            fuel=ctx.fuel,
            input_name="<fuzz>",
            backend=mirror_backend,
        )
    except InterpreterError as error:
        return [
            f"{mirror_backend} backend faulted where {ctx.backend} "
            f"succeeded: {error}"
        ]
    violations: list[str] = []
    if mirror.status != ctx.result.status:
        violations.append(
            f"exit status diverged: {ctx.backend}={ctx.result.status} "
            f"{mirror_backend}={mirror.status}"
        )
    if mirror.stdout != ctx.result.stdout:
        violations.append(
            f"stdout diverged between {ctx.backend} and "
            f"{mirror_backend} backends"
        )
    if dumps_profile(mirror.profile) != dumps_profile(ctx.profile):
        violations.append(
            f"profile serialization diverged between {ctx.backend} "
            f"and {mirror_backend} backends"
        )
    return violations


#: The oracle registry, in the order they run and report.
ORACLES: list[tuple[str, Oracle]] = [
    ("flow_conservation", check_flow_conservation),
    ("markov_vs_simulation", check_markov_vs_simulation),
    ("sparse_vs_dense", check_sparse_vs_dense),
    ("cache_round_trip", check_cache_round_trip),
    ("profile_round_trip", check_profile_round_trip),
    ("weight_matching_bounds", check_weight_matching_bounds),
    ("compiled_vs_interpreter", check_compiled_vs_interpreter),
]


def oracle_names() -> list[str]:
    return [name for name, _ in ORACLES]


# ----------------------------------------------------------------------
# The per-case driver.


def check_program(
    source: str,
    name: str = "<fuzz>",
    fuel: int = DEFAULT_MACHINE_FUEL,
    raise_frontend: bool = False,
    backend: Optional[str] = None,
) -> CaseReport:
    """Compile, run, and apply every oracle to one source text.

    Frontend and interpreter errors are reported as failures of the
    synthetic ``frontend``/``interp`` oracles (a generated program must
    always compile and terminate), unless ``raise_frontend`` is set —
    the CLI replay path propagates :class:`FrontendError` so the user
    gets a one-line ``file:line:col`` diagnostic.

    ``backend`` picks the primary run's execution backend (default:
    ``REPRO_BACKEND``, else compiled); ``compiled_vs_interpreter``
    always mirrors the run on the other backend regardless.
    """
    report = CaseReport(name=name, source=source)
    resolved_backend = resolve_backend(backend)
    with span("fuzz.check", case=name):
        try:
            program = Program.from_source(source, name)
        except FrontendError as error:
            if raise_frontend:
                raise
            report.failures.append(
                OracleFailure("frontend", str(error))
            )
            incr("fuzz.oracle.frontend.violations")
            return report
        try:
            result = run_program_backend(
                program,
                fuel=fuel,
                input_name="<fuzz>",
                backend=resolved_backend,
            )
        except (InterpreterError, KeyError) as error:
            # KeyError: a unit with no ``main`` (possible for shrink
            # candidates) fails before interpretation even starts.
            report.failures.append(OracleFailure("interp", str(error)))
            incr("fuzz.oracle.interp.violations")
            return report
        report.profile = result.profile
        # A fresh session per case: nothing memoized from earlier cases
        # can leak in, exactly as the shrinker re-verifies reductions.
        context = OracleContext(
            program=program,
            profile=result.profile,
            session=AnalysisSession.of(program),
            result=result,
            fuel=fuel,
            backend=resolved_backend,
        )
        for oracle_name, oracle in ORACLES:
            report.oracles_run.append(oracle_name)
            try:
                messages = oracle(context)
            except Exception as error:  # noqa: BLE001 - oracle crash is a finding
                messages = [
                    f"oracle crashed: {type(error).__name__}: {error}"
                ]
            if messages:
                incr(f"fuzz.oracle.{oracle_name}.violations")
            for message in messages:
                report.failures.append(
                    OracleFailure(oracle_name, message)
                )
    return report
