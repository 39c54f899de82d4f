"""Registry mapping experiment names to runnable entry points.

Every table and figure in the paper's evaluation has an entry here;
the CLI and the golden-output tests both dispatch through this table.

``run_all`` first warms every suite profile through the parallel cached
pipeline, then runs the experiments themselves — serially with
``jobs=1``, or fanned out over a ``ProcessPoolExecutor`` otherwise.
Workers inherit the warm profile memo (and fall back to the persistent
caches), return their rendered sections plus an observability snapshot
(spans and metric deltas), and the parent merges the sections in
registry order, so parallel output is byte-for-byte identical to serial
output.

Each experiment runs inside an ``experiment:<name>`` span under one
``run_all`` root; worker spans are re-parented under the same root in
registry order, so serial and parallel runs produce the same span-name
set.  The ``--timings`` report (:class:`RunAllTimings`) is a view over
that span tree, analysis stages included.

With ``record=True`` (the CLI default), a finished run is appended to
the persistent run ledger (:mod:`repro.obs.ledger`): every experiment's
flattened accuracy numbers become score rows, the span-derived stage
times become stage rows, and the run's metric deltas (cache traffic,
solver dispatches, interpreter totals) become counter rows — whatever
the worker count, since workers ship their metrics home through the
same :class:`~repro.obs.aggregate.WorkerCapture` path that keeps the
trace coherent.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.obs import (
    WorkerCapture,
    absorb,
    forced_tracing,
    span,
    tracing_enabled,
    walk_spans,
)
from repro.suite.pipeline import SuiteTimings, resolve_jobs

from repro.experiments.examples import (
    run_figure3,
    run_figure8,
    run_markov_example,
)
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2


@dataclass(frozen=True)
class Experiment:
    """One reproducible table or figure."""

    name: str
    description: str
    run: Callable[[], object]  # Result object with a .render() method.


EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment(
            "table1",
            "The benchmark suite roster with line counts",
            run_table1,
        ),
        Experiment(
            "table2",
            "Weight matching on the strchr example (20%/60% cutoffs)",
            run_table2,
        ),
        Experiment(
            "figure2",
            "Branch-prediction miss rates: heuristic vs profiling vs PSP",
            run_figure2,
        ),
        Experiment(
            "figure3",
            "strchr AST annotated with smart-heuristic frequencies",
            run_figure3,
        ),
        Experiment(
            "figure4",
            "Intra-procedural weight matching at the 5% cutoff",
            run_figure4,
        ),
        Experiment(
            "figure5",
            "Function-invocation estimators at 10%/25% cutoffs",
            run_figure5,
        ),
        Experiment(
            "figure6_7",
            "strchr CFG probabilities, linear system, and solution",
            run_markov_example,
        ),
        Experiment(
            "figure8",
            "count_nodes recursion pathology and its repair",
            run_figure8,
        ),
        Experiment(
            "figure9",
            "Call-site weight matching at the 25% cutoff",
            run_figure9,
        ),
        Experiment(
            "figure10",
            "Selective optimization of compress",
            run_figure10,
        ),
    )
}


def _run_scored(name: str) -> tuple[str, dict[str, float], object]:
    """Run one experiment; return its rendered text, its flattened
    numeric results (the ledger's score rows for this experiment), and
    its finished ``experiment:<name>`` span (a no-op stand-in while
    tracing is off)."""
    from repro.obs.ledger import flatten_scalars

    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choices: {sorted(EXPERIMENTS)}"
        ) from None
    with span(f"experiment:{name}") as experiment_span:
        result = experiment.run()
    rendered = result.render()  # type: ignore[attr-defined]
    scores = flatten_scalars(result)
    if not scores:
        # Text-only results (e.g. an annotated AST) carry no scalar
        # fields; a digest of the rendered output still lets the
        # ledger flag any change in what the experiment produced.
        scores = {
            "render/chars": float(len(rendered)),
            "render/crc32": float(zlib.crc32(rendered.encode("utf-8"))),
        }
    return rendered, scores, experiment_span


def run_experiment(name: str) -> str:
    """Run one experiment by name and return its rendered text.

    The run happens inside an ``experiment:<name>`` span, so every
    experiment is visible in a trace whether it ran standalone, under
    ``run all``, or in a worker process.
    """
    return _run_scored(name)[0]


def run_one(
    name: str,
    record: bool = False,
    started_at: Optional[str] = None,
) -> str:
    """Run one experiment, optionally appending it to the run ledger.

    The ledger row carries the experiment's accuracy numbers, the
    duration of its ``experiment:<name>`` span as that stage, and the
    metric deltas the run produced.
    """
    from repro.obs import ledger
    from repro.obs.metrics import metrics_delta, metrics_snapshot

    if not (record and ledger.ledger_enabled()):
        return run_experiment(name)
    metrics_before = metrics_snapshot()
    with forced_tracing():
        rendered, metrics, experiment_span = _run_scored(name)
    ledger.record_run(
        "run",
        label=name,
        started_at=started_at,
        jobs=1,
        scores={name: metrics},
        stages={f"experiment:{name}": experiment_span.seconds},
        counters=ledger.counter_values(metrics_delta(metrics_before)),
    )
    return rendered


def prefetch_profiles(
    jobs: int | None = None, timings: Optional[SuiteTimings] = None
) -> None:
    """Warm every suite profile through the parallel cached pipeline.

    All experiments share the same profiles; collecting them up front
    (fanned out over ``jobs`` workers, served from the persistent cache
    when warm) means the per-experiment code never pays for profiling.
    """
    from repro.suite import collect_suite_profiles

    collect_suite_profiles(jobs=jobs, timings=timings)


def _analysis_stage(node) -> Optional[str]:
    """The ``--timings`` stage an ``analysis.*`` span times: ``parse``,
    ``transitions``, ``callsites``, ``intra:<estimator>`` or
    ``inter:<backend>`` (None for any other span)."""
    if node.name == "analysis.intra":
        return f"intra:{node.attrs['estimator']}"
    if node.name == "analysis.inter":
        return f"inter:{node.attrs['backend']}"
    if node.name in (
        "analysis.parse", "analysis.transitions", "analysis.callsites"
    ):
        return node.name[len("analysis."):]
    return None


@dataclass
class RunAllTimings:
    """Instrumentation for one ``run_all`` (``repro run all --timings``).

    A view over the run's trace: the profiling pipeline report comes
    from the ``suite.collect`` span tree, per-experiment wall times from
    the ``experiment:<name>`` spans, and the analysis stage totals from
    the ``analysis.*`` spans, each measured in whichever process ran it
    (worker spans are adopted under the ``run_all`` root).  Nested
    stages count in both: ``intra:markov`` includes the
    ``transitions`` it computes.
    """

    jobs: int = 1
    total_seconds: float = 0.0
    profiling: SuiteTimings = field(default_factory=SuiteTimings)
    #: experiment name -> wall seconds, in registry order.
    experiment_seconds: dict[str, float] = field(default_factory=dict)
    #: analysis stage -> seconds, summed over all workers.
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def populate_from_span(
        self,
        root,
        profiling: SuiteTimings,
        names: Sequence[str],
        jobs: int,
    ) -> None:
        """Fill the report from a finished ``run_all`` span."""
        by_name: dict[str, float] = {}
        for child in root.children:
            if child.name.startswith("experiment:"):
                experiment = child.name[len("experiment:"):]
                by_name[experiment] = (
                    by_name.get(experiment, 0.0) + child.seconds
                )
        stages: dict[str, float] = {}
        for node, _ in walk_spans([root]):
            stage = _analysis_stage(node)
            if stage is not None:
                stages[stage] = stages.get(stage, 0.0) + node.seconds
        self.jobs = jobs
        self.profiling = profiling
        self.experiment_seconds = {
            name: by_name.get(name, 0.0) for name in names
        }
        self.stage_seconds = dict(sorted(stages.items()))
        self.total_seconds = root.seconds

    def render(self) -> str:
        lines = ["profiling pipeline:"]
        lines.extend(
            "  " + line for line in self.profiling.render().splitlines()
        )
        lines.append("")
        lines.append(f"{'experiment':12} {'seconds':>8}")
        for name, seconds in self.experiment_seconds.items():
            lines.append(f"{name:12} {seconds:8.2f}")
        lines.append("")
        lines.append(f"{'analysis stage':16} {'seconds':>8}")
        for stage in sorted(self.stage_seconds):
            lines.append(
                f"{stage:16} {self.stage_seconds[stage]:8.2f}"
            )
        lines.append("")
        lines.append(
            f"TOTAL {self.total_seconds:8.2f}  (jobs={self.jobs})"
        )
        return "\n".join(lines)


def _experiment_worker(
    task: tuple[str, bool]
) -> tuple[str, str, dict, dict]:
    """Run one experiment in a worker process.

    Returns the rendered section, the experiment's flattened scores
    (for the run ledger), and the observability snapshot (the
    experiment's span tree, analysis stages included, and its metric
    deltas) for the parent to merge.
    """
    name, trace = task
    capture = WorkerCapture(trace)
    with capture:
        rendered, metrics, _ = _run_scored(name)
    return name, rendered, metrics, capture.snapshot


def _ledger_stages(report: RunAllTimings) -> dict[str, float]:
    """Flatten a :class:`RunAllTimings` into the ledger's stage rows."""
    stages = {
        "total": report.total_seconds,
        "profiling": report.profiling.total_seconds,
    }
    for name, seconds in report.experiment_seconds.items():
        stages[f"experiment:{name}"] = seconds
    for stage, seconds in report.stage_seconds.items():
        stages[f"analysis:{stage}"] = seconds
    return stages


def run_all(
    jobs: int | None = None,
    timings: Optional[RunAllTimings] = None,
    record: bool = False,
    started_at: Optional[str] = None,
) -> str:
    """Run every experiment, concatenating the rendered sections.

    With ``jobs > 1`` the experiments fan out over worker processes;
    the merged output is byte-identical to a serial run, and the merged
    trace has the same shape (worker spans are adopted by the parent's
    ``run_all`` span in registry order).

    With ``record=True`` (and the ledger enabled), the run is appended
    to the persistent ledger: per-experiment accuracy numbers, stage
    wall-times derived from the span tree, and the run's metric deltas.
    Workers return their flattened scores with their rendered sections,
    so jobs=1 and jobs=N produce the same score rows.
    """
    from repro.obs import ledger
    from repro.obs.metrics import metrics_delta, metrics_snapshot

    jobs = resolve_jobs(jobs)
    names = list(EXPERIMENTS)
    rendered: dict[str, str] = {}
    scores: dict[str, dict[str, float]] = {}
    recording = record and ledger.ledger_enabled()
    # Stage times are a view over the span tree, so recording (like
    # --timings) forces tracing on for the duration of the run.
    report = timings
    if report is None and recording:
        report = RunAllTimings()
    metrics_before = metrics_snapshot() if recording else {}

    with forced_tracing(report is not None):
        with span("run_all", jobs=jobs) as root:
            profiling = SuiteTimings()
            prefetch_profiles(
                jobs=jobs,
                timings=profiling if report is not None else None,
            )
            if jobs > 1:
                tasks = [(name, tracing_enabled()) for name in names]
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    for name, text, metrics, snapshot in pool.map(
                        _experiment_worker, tasks
                    ):
                        rendered[name] = text
                        scores[name] = metrics
                        absorb(snapshot)
            else:
                for name in names:
                    rendered[name], scores[name], _ = _run_scored(name)
        if report is not None:
            report.populate_from_span(root, profiling, names, jobs)
    if recording:
        ledger.record_run(
            "run-all",
            started_at=started_at,
            jobs=jobs,
            scores=scores,
            stages=_ledger_stages(report),
            counters=ledger.counter_values(
                metrics_delta(metrics_before)
            ),
        )
    return "\n\n\n".join(
        f"=== {name} ===\n\n{rendered[name]}" for name in names
    )
