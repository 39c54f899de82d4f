"""Parallel suite-profiling pipeline with persistent caching.

This is the profile *acquisition* layer the experiments sit on.  It
collects the profiles of every requested (program × input) pair:

1. pairs already in the persistent on-disk cache are loaded without
   interpreting anything;
2. the remaining pairs fan out over a ``ProcessPoolExecutor`` (worker
   count from the ``jobs`` argument, the ``REPRO_JOBS`` environment
   variable, or ``os.cpu_count()``);
3. results are merged in deterministic (suite order, input index)
   order, so parallel collection renders byte-for-byte identically to
   serial collection.

Workers return *serialized* profiles (plain JSON-compatible data — the
live ``Profile`` holds lambda-defaulted defaultdicts, which do not
pickle) and also write them straight into the shared cache, so a
crashed run still keeps its finished work.

Observability: the whole collection runs inside a ``suite.collect``
span, with one ``suite.program`` child per program (cache probing,
hit/miss counts as attributes) and one ``suite.profile_pair`` child per
interpreted pair — worker pairs are captured in the worker process and
re-parented under ``suite.collect`` in deterministic task order (see
:mod:`repro.obs.aggregate`).  The :class:`SuiteTimings` report is a
*view over that span tree*: ``--timings`` forces an in-memory trace for
the duration of the call and reads the report off the finished spans.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro import store
from repro.obs import (
    WorkerCapture,
    absorb,
    forced_tracing,
    span,
    tracing_enabled,
)
from repro.profiles import cache as profile_cache
from repro.profiles.profile import Profile
from repro.profiles.serialize import profile_from_dict, profile_to_dict
from repro.suite import registry


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` env > cpu count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, jobs)


@dataclass
class ProgramTiming:
    """Wall time and cache traffic for one suite program."""

    name: str
    seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class SuiteTimings:
    """Timing report for one pipeline run (``--timings``).

    Populated from the pipeline's span tree after the run finishes —
    per-program seconds are the program's cache-probe span plus its
    interpreted pairs' actual durations (measured inside the worker
    that ran them), and the total is the ``suite.collect`` wall time.
    """

    jobs: int = 1
    cache_used: bool = True
    total_seconds: float = 0.0
    programs: list[ProgramTiming] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(p.cache_hits for p in self.programs)

    @property
    def cache_misses(self) -> int:
        return sum(p.cache_misses for p in self.programs)

    def render(self) -> str:
        lines = [
            f"{'program':10} {'seconds':>8} {'hits':>5} {'misses':>7}",
        ]
        for timing in self.programs:
            lines.append(
                f"{timing.name:10} {timing.seconds:8.2f} "
                f"{timing.cache_hits:5d} {timing.cache_misses:7d}"
            )
        lines.append(
            f"{'TOTAL':10} {self.total_seconds:8.2f} "
            f"{self.cache_hits:5d} {self.cache_misses:7d}"
        )
        lines.append(
            f"(jobs={self.jobs}, cache="
            f"{'on' if self.cache_used else 'off'})"
        )
        return "\n".join(lines)

    def populate_from_span(
        self,
        collect_span,
        ordered: Sequence[str],
        jobs: int,
        use_cache: bool,
    ) -> None:
        """Fill the report from a finished ``suite.collect`` span."""
        per_program = {
            name: ProgramTiming(name) for name in ordered
        }
        for child in collect_span.children:
            timing = per_program.get(str(child.attrs.get("program")))
            if timing is None:
                continue
            if child.name == "suite.program":
                timing.seconds += child.seconds
                timing.cache_hits += int(child.attrs.get("hits", 0))
                timing.cache_misses += int(child.attrs.get("misses", 0))
            elif child.name == "suite.profile_pair":
                timing.seconds += child.seconds
        self.jobs = jobs
        self.cache_used = use_cache
        self.programs = [per_program[name] for name in ordered]
        self.total_seconds = collect_span.seconds


def _profile_pair(name: str, index: int, use_cache: bool) -> Profile:
    """Interpret one (program, input index) pair; with caching on, the
    profile is also stored in the shared on-disk cache."""
    stdin = registry.program_inputs(name)[index - 1]
    with span("suite.profile_pair", program=name, input=index):
        result = registry.run_on_input(name, stdin, f"input{index}")
    if use_cache:
        profile_cache.store_profile(
            registry.profile_key(name, stdin), result.profile
        )
    return result.profile


def _profile_pair_worker(
    task: tuple[str, int, bool, bool]
) -> tuple[str, int, dict, dict]:
    """Run one (program, input index) pair in a worker process.

    Returns the serialized profile plus the observability snapshot
    (spans and metric deltas) the pair produced, for the parent to
    merge.
    """
    name, index, use_cache, trace = task
    capture = WorkerCapture(trace)
    with capture:
        profile = _profile_pair(name, index, use_cache)
    return name, index, profile_to_dict(profile), capture.snapshot


def collect_suite_profiles(
    names: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    timings: Optional[SuiteTimings] = None,
) -> dict[str, list[Profile]]:
    """Collect profiles for the given programs (default: whole suite).

    Returns ``{program name: [profile per input, in index order]}`` in
    suite order regardless of worker scheduling, and seeds the
    registry's in-process memo so later ``collect_profiles`` calls are
    free.
    """
    ordered = list(names) if names is not None else registry.program_names()
    for name in ordered:
        if not registry.is_known_program(name):
            raise KeyError(f"unknown suite program {name!r}")
    jobs = resolve_jobs(jobs)
    if use_cache is None:
        use_cache = store.enabled()

    inputs: dict[str, list[str]] = {
        name: registry.program_inputs(name) for name in ordered
    }
    collected: dict[tuple[str, int], Profile] = {}
    pending: list[tuple[str, int]] = []

    # ``--timings`` is a view over the trace: force span recording for
    # the duration of the call when a report was requested.
    with forced_tracing(timings is not None):
        with span(
            "suite.collect", jobs=jobs, cache=use_cache
        ) as collect_span:
            # Resolve cache hits up front; what remains fans out.
            for name in ordered:
                with span("suite.program", program=name) as program_span:
                    hits = misses = 0
                    for index, stdin in enumerate(inputs[name], start=1):
                        cached = None
                        if use_cache:
                            cached = profile_cache.load_cached_profile(
                                registry.profile_key(name, stdin)
                            )
                        if cached is not None:
                            collected[(name, index)] = cached
                            hits += 1
                        else:
                            pending.append((name, index))
                            misses += 1
                    program_span.set(hits=hits, misses=misses)

            if pending:
                if jobs > 1 and len(pending) > 1:
                    tasks = [
                        (name, index, use_cache, tracing_enabled())
                        for name, index in pending
                    ]
                    with ProcessPoolExecutor(max_workers=jobs) as pool:
                        for name, index, payload, snapshot in pool.map(
                            _profile_pair_worker, tasks
                        ):
                            collected[(name, index)] = profile_from_dict(
                                payload
                            )
                            absorb(snapshot)
                else:
                    for name, index in pending:
                        collected[(name, index)] = _profile_pair(
                            name, index, use_cache
                        )

        if timings is not None:
            timings.populate_from_span(
                collect_span, ordered, jobs, use_cache
            )

    # Deterministic merge: suite order, then input index.
    merged: dict[str, list[Profile]] = {}
    for name in ordered:
        merged[name] = [
            collected[(name, index)]
            for index in range(1, len(inputs[name]) + 1)
        ]
        registry.seed_profile_memo(name, merged[name])
    return merged


def warm_suite_cache(
    names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> SuiteTimings:
    """Populate the persistent cache for the whole suite; returns the
    timing report."""
    timings = SuiteTimings()
    collect_suite_profiles(names, jobs=jobs, timings=timings)
    return timings
