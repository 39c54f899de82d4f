"""The fuzz run orchestrator: generate, check, fan out, merge.

One run checks ``count`` cases whose per-case seeds derive purely from
``(base seed, index)``, so the set of generated programs is a function
of the base seed alone — independent of worker count and scheduling.
Cases fan out over a ``ProcessPoolExecutor`` (the same worker-count
resolution as suite profiling), each worker wrapping its task in a
:class:`~repro.obs.aggregate.WorkerCapture` so spans and metric deltas
travel home and merge in deterministic submission order.

The report therefore renders **byte-identically** for ``--jobs 1`` and
``--jobs 4``: outcomes are merged by case index, failing cases print in
index order, and the summary line carries a digest over every generated
source so "same programs, same verdicts" is checkable at a glance.

Failing cases are saved to the persistent corpus by the worker that
found them (atomic writes — a crashed run keeps its finished work),
ready for ``repro fuzz replay`` and ``repro fuzz shrink``.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.fuzz import corpus
from repro.fuzz.generator import (
    DEFAULT_MACHINE_FUEL,
    GENERATOR_VERSION,
    derive_case_seed,
    generate_program,
)
from repro.fuzz.oracles import check_program
from repro.obs import (
    WorkerCapture,
    absorb,
    forced_tracing,
    incr,
    span,
    tracing_enabled,
)
from repro.suite import resolve_jobs


@dataclass
class CaseOutcome:
    """One fuzz case's verdict, as plain data (crosses processes)."""

    index: int
    seed: int
    key: str
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failing_oracles(self) -> list[str]:
        seen: list[str] = []
        for oracle, _ in self.failures:
            if oracle not in seen:
                seen.append(oracle)
        return seen


@dataclass
class FuzzRunReport:
    """The deterministic result of one fuzz run."""

    base_seed: int
    count: int
    jobs: int = 1
    outcomes: list[CaseOutcome] = field(default_factory=list)

    @property
    def failures(self) -> list[CaseOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> str:
        """Hash over every case's (seed, source key, verdict): two runs
        that generated and judged the same programs identically share
        this digest, whatever their job counts."""
        hasher = hashlib.sha256()
        for outcome in self.outcomes:
            verdict = ",".join(outcome.failing_oracles) or "ok"
            hasher.update(
                f"{outcome.index}:{outcome.seed}:{outcome.key}:"
                f"{verdict}\n".encode("ascii")
            )
        return hasher.hexdigest()[:16]

    def render(self) -> str:
        """The run summary printed to stdout — deterministic across
        worker counts (no timings, no directories, no job counts)."""
        lines = [f"fuzz: seed={self.base_seed} count={self.count}"]
        for outcome in self.failures:
            oracles = ",".join(outcome.failing_oracles)
            first = outcome.failures[0][1]
            lines.append(
                f"FAIL case {outcome.index} seed={outcome.seed} "
                f"key={outcome.key[:16]} oracles={oracles}: {first}"
            )
        lines.append(
            f"fuzz: {len(self.outcomes)} cases, "
            f"{len(self.failures)} failing, digest={self.digest()}"
        )
        return "\n".join(lines)


def _check_case(
    base_seed: int,
    index: int,
    fuel: int,
    backend: Optional[str] = None,
) -> CaseOutcome:
    """Generate and check case ``index``; save failures to the corpus."""
    seed = derive_case_seed(base_seed, index)
    generated = generate_program(seed)
    key = corpus.case_key(generated.source)
    with span("fuzz.case", index=index, seed=seed):
        report = check_program(
            generated.source, generated.name, fuel, backend=backend
        )
    incr("fuzz.cases")
    outcome = CaseOutcome(
        index=index,
        seed=seed,
        key=key,
        failures=[
            (failure.oracle, failure.message)
            for failure in report.failures
        ],
    )
    if not outcome.ok:
        incr("fuzz.failures")
        corpus.save_case(
            generated.source,
            {
                "seed": seed,
                "base_seed": base_seed,
                "index": index,
                "generator_version": GENERATOR_VERSION,
                "oracles": outcome.failing_oracles,
                "failures": [
                    f"{oracle}: {message}"
                    for oracle, message in outcome.failures[:10]
                ],
                "origin": "fuzz run",
            },
        )
    return outcome


def _case_worker(
    task: tuple[int, int, int, bool, Optional[str]]
) -> tuple[dict, dict]:
    """One case in a worker process, observability captured."""
    base_seed, index, fuel, trace, backend = task
    capture = WorkerCapture(trace)
    with capture:
        outcome = _check_case(base_seed, index, fuel, backend)
    return (
        {
            "index": outcome.index,
            "seed": outcome.seed,
            "key": outcome.key,
            "failures": outcome.failures,
        },
        capture.snapshot,
    )


def fuzz_run(
    seed: int,
    count: int,
    jobs: Optional[int] = None,
    fuel: int = DEFAULT_MACHINE_FUEL,
    record: bool = False,
    started_at: Optional[str] = None,
    backend: Optional[str] = None,
) -> FuzzRunReport:
    """Run ``count`` fuzz cases derived from ``seed``.

    ``jobs`` resolves like everywhere else (explicit > ``REPRO_JOBS`` >
    CPU count); results merge in case-index order so the report is
    identical whatever the worker count.  ``backend`` resolves once
    here (explicit > ``REPRO_BACKEND`` > compiled) and pins every
    case's primary run — the ``compiled_vs_interpreter`` oracle always
    cross-checks the other backend, so the report is backend-invariant
    for any program both backends agree on.

    With ``record=True`` (and the ledger enabled) the run is appended
    to the persistent run ledger: case/failure totals as score rows,
    the duration of its ``fuzz.run`` span as that stage, and the metric
    deltas it produced (oracle violations, corpus saves, interpreter
    totals).
    """
    from repro.obs import ledger
    from repro.obs.metrics import metrics_delta, metrics_snapshot

    from repro.compile import resolve_backend

    if count < 1:
        raise ValueError("count must be at least 1")
    jobs = resolve_jobs(jobs)
    backend = resolve_backend(backend)
    recording = record and ledger.ledger_enabled()
    metrics_before = metrics_snapshot() if recording else {}
    report = FuzzRunReport(base_seed=seed, count=count, jobs=jobs)
    with forced_tracing(recording), span(
        "fuzz.run", seed=seed, count=count, jobs=jobs, backend=backend
    ) as run_span:
        if jobs > 1 and count > 1:
            tasks = [
                (seed, index, fuel, tracing_enabled(), backend)
                for index in range(count)
            ]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for payload, snapshot in pool.map(_case_worker, tasks):
                    report.outcomes.append(
                        CaseOutcome(
                            index=payload["index"],
                            seed=payload["seed"],
                            key=payload["key"],
                            failures=[
                                (oracle, message)
                                for oracle, message in payload["failures"]
                            ],
                        )
                    )
                    absorb(snapshot)
        else:
            for index in range(count):
                report.outcomes.append(
                    _check_case(seed, index, fuel, backend)
                )
    if recording:
        ledger.record_run(
            "fuzz",
            label=f"seed={seed}",
            started_at=started_at,
            jobs=jobs,
            scores={
                "fuzz": {
                    "cases": float(len(report.outcomes)),
                    "failures": float(len(report.failures)),
                }
            },
            stages={"fuzz.run": run_span.seconds},
            counters=ledger.counter_values(
                metrics_delta(metrics_before)
            ),
        )
    return report
