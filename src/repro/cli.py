"""Command-line interface.

Usage (after installing the package)::

    python -m repro list                    # available experiments
    python -m repro run table2              # one table/figure
    python -m repro run all --jobs 4        # everything, parallel profiling
    python -m repro suite                   # run every suite program
    python -m repro exec compress --input 1 # run one program, show stdout
    python -m repro cfg compress table_lookup --dot  # dump a CFG
    python -m repro predict compress        # per-branch predictions
    python -m repro explain compress --top 5  # worst-branch attribution
    python -m repro explain base --record --dot heatmaps/  # full study
    python -m repro profile-suite --timings # collect/warm all profiles
    python -m repro profile-suite --tier xl --record  # suite XL, ledgered
    python -m repro run all --backend interp   # reference interpreter
    python -m repro cache info              # caches + fuzz corpus
    python -m repro cache clear
    python -m repro fuzz run --seed 0 --count 100 --jobs 4
    python -m repro fuzz replay <case>      # re-check one saved case
    python -m repro fuzz shrink <case>      # delta-debug a failing case
    python -m repro run all --trace         # record a span trace
    python -m repro trace                   # render the recorded trace
    python -m repro stats --format prom     # metrics from the last run
    python -m repro profile -- run all      # flamegraph of a command
    python -m repro run all --profile       # same, as a rider flag
    python -m repro serve --port 8787       # HTTP analysis daemon
    python -m repro serve --access-log logs/  # + JSON access log
    python -m repro traces --slow           # daemon flight recorder
    python -m repro history --limit 10      # past runs from the ledger
    python -m repro history show latest     # one run in full detail
    python -m repro compare latest~1 latest # score/stage drift check
    python -m repro compare latest --baseline baselines/scores.json \\
        --fail-on-regression                # the CI regression gate
    python -m repro report --html out.html  # self-contained dashboard

Profiles, analysis estimates, generated code and explanations persist
in one content-addressed store (:mod:`repro.store`) under
``REPRO_CACHE_DIR``; ``REPRO_CACHE=0`` turns it off (the fuzz corpus
under the same root stays on), and ``repro cache info|clear`` cover
every namespace.  Profiling can fan out over worker processes;
``--jobs``/``REPRO_JOBS`` control the worker count.

Execution defaults to the compiled backend (:mod:`repro.compile`);
``--backend interp`` / ``REPRO_BACKEND=interp`` select the reference
interpreter, and the two produce byte-identical profiles (enforced by
the ``compiled_vs_interpreter`` fuzz oracle).

Observability (see :mod:`repro.obs`): ``--trace``/``REPRO_TRACE``
record a span trace and write it as JSONL (``REPRO_TRACE_FILE``,
default ``repro-trace.jsonl``); metrics are always on and persisted at
the end of each command for ``repro stats``; ``--quiet``/``REPRO_QUIET``
silence diagnostic stderr chatter without touching stdout.  ``repro
profile -- <command>`` (or ``--profile`` on ``run``/``serve``/
``profile-suite``) samples the process with the zero-dependency
wall-clock profiler (:mod:`repro.obs.profiler`) and writes a
flamegraph SVG plus collapsed stacks (``REPRO_PROFILE_FILE``, default
``repro-profile.svg``).

Every ``run``/``run all``/``fuzz run`` invocation (and the benchmark
harness) appends one run to the persistent ledger
(:mod:`repro.obs.ledger`; ``REPRO_LEDGER=0`` disables,
``REPRO_LEDGER_DIR`` relocates); ``repro history``, ``repro compare``,
and ``repro report`` read it back.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time

from repro import obs, store
from repro.analysis import cache as analysis_cache
from repro.attribution import cache as attribution_cache
from repro.analysis.session import session_for_suite
from repro.cfg import cfg_to_dot
from repro.compile import BACKENDS
from repro.compile import cache as codegen_cache
from repro.frontend.errors import FrontendError
from repro.fuzz import corpus as fuzz_corpus
from repro.experiments import (
    EXPERIMENTS,
    RunAllTimings,
    run_all,
    run_one,
)
from repro.obs import ledger
from repro.profiles import cache as profile_cache
from repro.suite import (
    SUITE,
    SUITE_BY_NAME,
    SuiteTimings,
    collect_suite_profiles,
    is_known_program,
    known_program_names,
    load_program,
    program_inputs,
    program_names,
    resolve_jobs,
    run_on_input,
)


def _error(message: str) -> None:
    """Print one error line to stderr (never silenced by --quiet)."""
    print(message, file=sys.stderr)


def _command_list(_: argparse.Namespace) -> int:
    for name, experiment in EXPERIMENTS.items():
        print(f"{name:12} {experiment.description}")
    return 0


def _resolve_jobs_or_fail(jobs: int | None) -> int:
    """Resolve the worker count, turning a bad REPRO_JOBS value into a
    clean CLI error instead of a traceback."""
    try:
        return resolve_jobs(jobs)
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from None


def _apply_backend(args: argparse.Namespace) -> None:
    """Publish ``--backend`` through ``REPRO_BACKEND`` so every
    execution in this command — including pipeline worker processes,
    which inherit the environment — uses the selected backend.  A bad
    ambient ``REPRO_BACKEND`` becomes a clean CLI error here, before
    any work starts, instead of a traceback mid-run."""
    from repro.compile import resolve_backend

    choice = getattr(args, "backend", None)
    try:
        resolved = resolve_backend(choice)
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from None
    if choice or "REPRO_BACKEND" in os.environ:
        os.environ["REPRO_BACKEND"] = resolved


def _command_run(args: argparse.Namespace) -> int:
    _apply_backend(args)
    started_at = ledger.now_iso()
    if args.experiment == "all":
        timings = RunAllTimings() if args.timings else None
        print(
            run_all(
                jobs=_resolve_jobs_or_fail(args.jobs),
                timings=timings,
                record=True,
                started_at=started_at,
            )
        )
        if timings is not None:
            # stderr (via diag), so stdout stays byte-identical with and
            # without the flag (and across serial vs parallel runs).
            obs.diag(timings.render())
        return 0
    if args.timings:
        _error("repro: --timings only applies to 'run all'")
        return 2
    try:
        print(
            run_one(args.experiment, record=True, started_at=started_at)
        )
    except KeyError as error:
        _error(str(error))
        return 2
    return 0


def _command_suite(args: argparse.Namespace) -> int:
    _apply_backend(args)
    for entry in SUITE:
        for index, stdin in enumerate(program_inputs(entry.name), start=1):
            result = run_on_input(entry.name, stdin, f"input{index}")
            status = "ok" if result.status == 0 else f"exit {result.status}"
            print(
                f"{entry.name}.{index}: {status}, "
                f"{result.blocks_executed} blocks"
            )
    return 0


def _command_exec(args: argparse.Namespace) -> int:
    _apply_backend(args)
    if not is_known_program(args.program):
        _error(f"repro: unknown suite program {args.program!r}")
        return 2
    inputs = program_inputs(args.program)
    index = args.input
    if not 1 <= index <= len(inputs):
        _error(f"{args.program} has inputs 1..{len(inputs)}")
        return 2
    result = run_on_input(args.program, inputs[index - 1], f"input{index}")
    sys.stdout.write(result.stdout)
    return result.status


def _command_cfg(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    if args.function not in program.cfgs:
        _error(
            f"no function {args.function!r}; choices: "
            f"{program.function_names}"
        )
        return 2
    cfg = program.cfg(args.function)
    if args.dot:
        print(cfg_to_dot(cfg))
        return 0
    for block in sorted(cfg, key=lambda b: b.block_id):
        successors = ", ".join(str(s) for s in block.successor_ids())
        print(
            f"B{block.block_id} [{block.label}] "
            f"{len(block.statements)} stmts -> {successors or 'exit'}"
        )
    return 0


def _command_layout(args: argparse.Namespace) -> int:
    from repro.optimize import layout_from_estimates

    program = load_program(args.program)
    if args.function not in program.cfgs:
        _error(
            f"no function {args.function!r}; choices: "
            f"{program.function_names}"
        )
        return 2
    cfg = program.cfg(args.function)
    layout = layout_from_estimates(program, args.function)
    labels = {block.block_id: block.label for block in cfg}
    print(f"estimate-driven layout of {args.function}:")
    for position, block_id in enumerate(layout):
        print(f"  {position:3}  B{block_id:<3} {labels[block_id]}")
    return 0


def _command_predict(args: argparse.Namespace) -> int:
    # The serving report module owns the prediction line format, so
    # `repro predict` and the daemon's /v1/analyze predictions.lines
    # are byte-identical by construction.
    from repro.serve.report import prediction_lines

    session = session_for_suite(args.program)
    for line in prediction_lines(session):
        print(line)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        request_timeout_s=args.timeout,
        record=args.record,
        access_log_dir=args.access_log,
    )
    return serve_forever(config)


def _render_trace_record(record: dict) -> str:
    """One summary line per flight-recorder record."""

    def col(value: object, default: str = "-") -> str:
        return default if value is None else str(value)

    queue = record.get("queue_wait_ms")
    queue_text = "-" if queue is None else f"{queue:.3f}ms"
    return (
        f"{col(record.get('trace_id'))[:16]:16} "
        f"{col(record.get('status')):>4} "
        f"{float(record.get('elapsed_ms') or 0.0):9.3f}ms "
        f"cache={col(record.get('cache')):4} "
        f"queue={queue_text:>9} "
        f"shard={col(record.get('pool_shard')):>2} "
        f"{col(record.get('tenant'), 'anon')} "
        f"{col(record.get('name') or record.get('path'))}"
        + (" [coalesced]" if record.get("coalesced") else "")
        + (" [timeout]" if record.get("timeout") else "")
    )


def _command_traces(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.host, args.port, timeout=30)
    try:
        if args.slow:
            response = client.slow(limit=args.limit)
        else:
            response = client.traces(
                limit=args.limit,
                kind="errors" if args.errors else None,
            )
    except OSError as error:
        _error(
            f"repro: cannot reach daemon at {args.host}:{args.port}: "
            f"{error}"
        )
        return 2
    if response.status != 200 or response.payload is None:
        _error(f"repro: daemon answered {response.status}")
        return 2
    if args.json:
        print(json.dumps(response.payload, indent=2, sort_keys=True))
        return 0
    records = response.payload.get("traces", [])
    stats = response.payload.get("stats", {})
    if not records:
        print("(no traces retained)")
    for record in records:
        print(_render_trace_record(record))
        if args.full and record.get("spans"):
            roots = [
                obs.Span.from_dict(span_dict)
                for span_dict in record["spans"]
            ]
            tree = obs.render_span_tree(roots, full=True)
            for line in tree.splitlines():
                print(f"    {line}")
    print(
        f"flight recorder: {stats.get('recorded', 0)} recorded, "
        f"{stats.get('errors', 0)} errors retained, "
        f"slowest {stats.get('slowest_ms', 0)}ms"
    )
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    from repro.obs.profiler import SamplingProfiler, write_profile

    rest = list(args.argv)
    while rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        _error(
            "repro: profile needs a command to run, e.g. "
            "'repro profile -- run figure2'"
        )
        return 2
    if rest[0] == "profile":
        _error("repro: cannot nest 'repro profile'")
        return 2
    profiler = SamplingProfiler(
        interval_ms=args.interval_ms,
        include_idle=args.include_idle,
    )
    profiler.start()
    try:
        status = main(rest)
    finally:
        profiler.stop()
        svg_path, collapsed_path = write_profile(
            profiler, args.out, title="repro " + " ".join(rest)
        )
        obs.diag(
            f"repro: profile captured {profiler.total_samples} "
            f"samples -> {svg_path} (collapsed: {collapsed_path})"
        )
    return status


def _command_profile_suite(args: argparse.Namespace) -> int:
    _apply_backend(args)
    started_at = ledger.now_iso()
    if args.programs:
        names = args.programs
    else:
        try:
            names = known_program_names(args.tier)
        except ValueError as error:
            _error(f"repro: {error}")
            return 2
    unknown = [n for n in names if not is_known_program(n)]
    if unknown:
        _error(f"unknown suite programs: {unknown}")
        return 2
    timings = SuiteTimings()
    profiles = collect_suite_profiles(
        names,
        jobs=_resolve_jobs_or_fail(args.jobs),
        use_cache=False if args.no_cache else None,
        timings=timings,
    )
    if args.record:
        # One metric per program — total block executions across its
        # inputs.  The totals are deterministic (and identical across
        # backends and worker counts), so a committed baseline plus
        # ``repro compare --fail-on-regression`` pins both tiers.
        scores: dict[str, dict[str, float]] = {}
        for name, program_profiles in profiles.items():
            experiment = (
                "suite" if name in SUITE_BY_NAME else "suite_xl"
            )
            scores.setdefault(experiment, {})[f"{name}.blocks"] = float(
                sum(
                    p.total_block_executions for p in program_profiles
                )
            )
        label = (
            f"programs={len(names)}"
            if args.programs
            else f"tier={args.tier}"
        )
        ledger.record_run(
            "suite",
            label=label,
            started_at=started_at,
            jobs=timings.jobs,
            scores=scores,
            stages={"suite.collect": timings.total_seconds},
        )
    if args.timings:
        print(timings.render())
    else:
        print(
            f"collected {sum(len(program_inputs(n)) for n in names)} "
            f"profiles for {len(names)} programs "
            f"({timings.cache_hits} cached, {timings.cache_misses} "
            f"interpreted) in {timings.total_seconds:.2f}s"
        )
    return 0


#: ``repro explain`` target aliases: tier names plus the study alias
#: (``branch_prediction`` = the 14-program base tier the paper's
#: branch-prediction tables run over).
_EXPLAIN_ALIASES = ("base", "xl", "all", "branch_prediction")


def _resolve_explain_targets(targets: list[str]) -> list[str]:
    """Expand ``repro explain`` targets (program names, tier aliases,
    or ``branch_prediction``) into a program list, preserving order
    and dropping duplicates."""
    names: list[str] = []
    for target in targets or ["base"]:
        if target in _EXPLAIN_ALIASES:
            tier = "base" if target == "branch_prediction" else target
            expanded = known_program_names(tier)
        elif is_known_program(target):
            expanded = [target]
        else:
            raise ValueError(
                f"unknown program or tier {target!r} "
                f"(programs: {', '.join(program_names())}; "
                f"aliases: {', '.join(_EXPLAIN_ALIASES)})"
            )
        for name in expanded:
            if name not in names:
                names.append(name)
    return names


def _command_explain(args: argparse.Namespace) -> int:
    from repro.attribution import (
        accuracy_score_rows,
        explain_programs,
        explanations_to_dict,
        export_features,
        render_explanations,
        write_heatmaps,
    )
    from repro.obs import metrics_delta, metrics_snapshot

    _apply_backend(args)
    started_at = ledger.now_iso()
    metrics_before = metrics_snapshot()
    clock = time.perf_counter()
    try:
        names = _resolve_explain_targets(args.targets)
    except ValueError as error:
        _error(f"repro: {error}")
        return 2
    try:
        explanations = explain_programs(
            names,
            estimator=args.estimator,
            jobs=_resolve_jobs_or_fail(args.jobs),
            use_cache=False if args.no_cache else None,
        )
    except KeyError as error:
        _error(f"repro: {error.args[0]}")
        return 2

    if args.dot:
        written: list[str] = []
        for explanation in explanations:
            written.extend(
                write_heatmaps(
                    explanation, args.dot, function=args.function
                )
            )
        obs.diag(
            f"repro: wrote {len(written)} heatmap DOT files to {args.dot}"
        )
    if args.export_features:
        rows = export_features(explanations, args.export_features)
        obs.diag(
            f"repro: exported {rows} branch feature rows "
            f"to {args.export_features}"
        )
    if args.record:
        scores: dict[str, float] = {}
        for explanation in explanations:
            scores.update(
                accuracy_score_rows(
                    explanation.program, explanation.records
                )
            )
        ledger.record_run(
            "explain",
            label=f"programs={len(names)}",
            started_at=started_at,
            jobs=_resolve_jobs_or_fail(args.jobs),
            scores={"attribution": scores},
            stages={"explain.total": time.perf_counter() - clock},
            counters=ledger.counter_values(
                metrics_delta(metrics_before)
            ),
        )
    if args.json:
        print(
            json.dumps(
                explanations_to_dict(explanations),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            render_explanations(
                explanations, top=args.top, function=args.function
            )
        )
    return 0


def _format_mtime(value: object) -> str:
    """Unix mtime -> local ``YYYY-MM-DD HH:MM:SS`` (or ``-`` if empty)."""
    if value is None:
        return "-"
    stamp = datetime.datetime.fromtimestamp(float(value))  # type: ignore[arg-type]
    return stamp.isoformat(sep=" ", timespec="seconds")


#: The store's namespaces, as ``repro cache info|clear`` lists them.
_NAMESPACES = (
    ("profile cache", profile_cache.NAMESPACE),
    ("analysis cache", analysis_cache.NAMESPACE),
    ("codegen cache", codegen_cache.NAMESPACE),
    ("attribution cache", attribution_cache.NAMESPACE),
    ("fuzz corpus", fuzz_corpus.NAMESPACE),
)


def _command_cache(args: argparse.Namespace) -> int:
    if args.action == "info":
        for title, namespace in _NAMESPACES:
            info = namespace.info()
            print(f"{title}:")
            print(f"  directory: {info['directory']}")
            print(f"  enabled:   {'yes' if info['enabled'] else 'no'}")
            print(f"  entries:   {info['entries']}")
            print(f"  size:      {info['bytes']} bytes")
            print(f"  oldest:    {_format_mtime(info['oldest_mtime'])}")
            print(f"  newest:    {_format_mtime(info['newest_mtime'])}")
        info = ledger.ledger_info()
        print("run ledger:")
        print(f"  directory: {info['directory']}")
        print(f"  enabled:   {'yes' if info['enabled'] else 'no'}")
        print(f"  runs:      {info['runs']}")
        print(f"  rows:      {info['score_rows']} score rows")
        print(f"  size:      {info['bytes']} bytes")
        print(f"  oldest:    {info['oldest_run'] or '-'}")
        print(f"  newest:    {info['newest_run'] or '-'}")
        from repro.obs.flight import access_log_info

        info = access_log_info()
        print("serve access log:")
        print(
            "  directory: "
            + (
                info["directory"]
                or "(unset: REPRO_ACCESS_LOG_DIR or "
                "'repro serve --access-log')"
            )
        )
        print(f"  enabled:   {'yes' if info['enabled'] else 'no'}")
        print(f"  files:     {info['files']}")
        print(f"  size:      {info['bytes']} bytes")
        return 0
    for title, namespace in _NAMESPACES:
        info = namespace.info()
        removed = namespace.clear()
        print(
            f"{title}: removed {removed} files "
            f"({info['bytes']} bytes) from {info['directory']}"
        )
    info = ledger.ledger_info()
    removed = ledger.clear_ledger()
    print(
        f"run ledger: removed {removed} runs "
        f"({info['bytes']} bytes) from {info['directory']}"
    )
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    path = args.file or obs.default_trace_path()
    try:
        roots = obs.read_trace_jsonl(path)
    except OSError as error:
        _error(f"repro: cannot read trace file: {error}")
        return 2
    except ValueError as error:
        _error(f"repro: malformed trace file {path}: {error}")
        return 2
    print(
        obs.render_span_tree(
            roots, full=args.full, min_seconds=args.min_ms / 1000.0
        )
    )
    return 0


def _ledger_stat_gauges() -> dict[str, dict]:
    """Ledger-derived counters for ``repro stats`` (size and row
    totals of the longitudinal store, not of one run)."""
    info = ledger.ledger_info()
    if not info["runs"] and not info["enabled"]:
        return {}
    return {
        "ledger.runs": {"type": "gauge", "value": info["runs"]},
        "ledger.score_rows": {
            "type": "gauge",
            "value": info["score_rows"],
        },
        "ledger.bytes": {"type": "gauge", "value": info["bytes"]},
    }


def _command_stats(args: argparse.Namespace) -> int:
    snapshot = obs.read_stats(args.file)
    if snapshot is None:
        _error(
            "repro: no recorded stats "
            "(run a command first, e.g. 'repro run all')"
        )
        return 2
    snapshot = dict(snapshot)
    snapshot.update(_ledger_stat_gauges())
    if args.format == "prom":
        sys.stdout.write(obs.render_prometheus(snapshot))
    else:
        print(obs.render_metrics(snapshot))
    return 0


#: The committed regression baseline (``repro compare --baseline``
#: default when present; also picked up by ``repro report``).
DEFAULT_BASELINE = os.path.join("baselines", "scores.json")


def _command_history(args: argparse.Namespace) -> int:
    if getattr(args, "history_command", None) == "show":
        return _history_show(args)
    runs = ledger.list_runs(limit=args.limit, experiment=args.experiment)
    if not runs:
        print("(no runs recorded)")
        return 0
    print(
        f"{'run':>4}  {'started':25}  {'kind':8} {'label':16} "
        f"{'jobs':>4}  {'git':10} {'exps':>4}"
    )
    for run in runs:
        print(
            f"{run.id:>4}  {run.started_at:25}  {run.kind:8} "
            f"{run.label:16} {run.jobs:>4}  {run.git_sha:10} "
            f"{run.experiments:>4}"
        )
    return 0


def _resolve_run_or_fail(reference: str) -> ledger.RunRow | None:
    """Resolve a run reference, or print the error and return None."""
    try:
        return ledger.resolve_run(reference)
    except KeyError as error:
        _error(f"repro: {error.args[0]}")
        return None


def _history_show(args: argparse.Namespace) -> int:
    run = _resolve_run_or_fail(args.run)
    if run is None:
        return 2
    detail = ledger.run_detail(run)
    if args.json:
        print(json.dumps(detail.to_dict(), indent=2, sort_keys=True))
        return 0
    row = detail.row
    print(f"run {row.id}: {row.kind} {row.label}".rstrip())
    print(f"  started:  {row.started_at}")
    print(f"  git:      {row.git_sha or '-'}")
    print(f"  version:  {row.version or '-'}")
    print(f"  python:   {row.python} on {row.platform}")
    print(
        f"  jobs:     {row.jobs}  "
        f"(cache {'on' if row.cache_enabled else 'off'})"
    )
    for experiment in sorted(detail.scores):
        print(f"  scores [{experiment}]:")
        for metric, value in sorted(detail.scores[experiment].items()):
            print(f"    {metric:40} {value:.6g}")
    if detail.stages:
        print("  stages:")
        for stage, seconds in sorted(detail.stages.items()):
            print(f"    {stage:40} {seconds:8.3f}s")
    if detail.counters:
        print("  counters:")
        for name, value in sorted(detail.counters.items()):
            print(f"    {name:40} {value:.6g}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    run_a = _resolve_run_or_fail(args.run_a)
    if run_a is None:
        return 2
    candidate = ledger.run_detail(run_a)
    if args.baseline is not None:
        if args.run_b is not None:
            _error(
                "repro: compare takes either a second run or "
                "--baseline, not both"
            )
            return 2
        try:
            base_scores = ledger.load_baseline(args.baseline)
        except (OSError, ValueError) as error:
            _error(f"repro: cannot read baseline: {error}")
            return 2
        base_label = args.baseline
        base_stages: dict[str, float] = {}
    else:
        if args.run_b is None:
            _error(
                "repro: compare needs two run references or "
                "--baseline FILE"
            )
            return 2
        # The candidate is the *second* reference; the first is the
        # base being compared against (usually the older run).
        base_detail = candidate
        run_b = _resolve_run_or_fail(args.run_b)
        if run_b is None:
            return 2
        candidate = ledger.run_detail(run_b)
        base_scores = base_detail.scores
        base_label = f"run {base_detail.row.id}"
        base_stages = base_detail.stages
    comparison = ledger.compare_scores(
        base_scores,
        candidate.scores,
        score_tol=args.score_tol,
        time_tol=args.time_tol,
        base_stages=base_stages or None,
        candidate_stages=candidate.stages or None,
        base_label=base_label,
        candidate_label=f"run {candidate.row.id}",
    )
    print(comparison.render())
    if args.fail_on_regression and not comparison.ok:
        return 1
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.obs import report as obs_report

    runs = ledger.list_runs(limit=args.limit)
    if not runs:
        _error(
            "repro: no runs recorded "
            "(run 'repro run all' first to populate the ledger)"
        )
        return 2
    details = [ledger.run_detail(run) for run in reversed(runs)]
    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    if baseline_path is not None:
        try:
            baseline = ledger.load_baseline(baseline_path)
        except (OSError, ValueError) as error:
            _error(f"repro: cannot read baseline: {error}")
            return 2
    html = obs_report.build_report(
        details, baseline=baseline, baseline_label=baseline_path or ""
    )
    with open(args.html, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(
        f"wrote report over {len(details)} runs "
        f"({len({e for d in details for e in d.scores})} experiments) "
        f"to {args.html}"
    )
    return 0


def _command_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz import fuzz_run

    if args.count < 1:
        _error("repro: --count must be at least 1")
        return 2
    _apply_backend(args)
    report = fuzz_run(
        seed=args.seed,
        count=args.count,
        jobs=_resolve_jobs_or_fail(args.jobs),
        record=True,
        started_at=ledger.now_iso(),
        backend=args.backend,
    )
    # Summary on stdout is identical whatever the worker count; the
    # environment-dependent bits (jobs, corpus location) go to stderr.
    print(report.render())
    obs.diag(
        f"repro: fuzz used {report.jobs} jobs; "
        f"corpus at {fuzz_corpus.NAMESPACE.directory}"
    )
    return 0 if report.ok else 1


def _resolve_case_or_fail(reference: str) -> tuple[str, str]:
    try:
        return fuzz_corpus.resolve_case(reference)
    except KeyError as error:
        raise SystemExit(f"repro: {error.args[0]}") from None
    except OSError as error:
        raise SystemExit(f"repro: cannot read case: {error}") from None


def _command_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz import check_program

    key, source = _resolve_case_or_fail(args.case)
    name = args.case if args.case.endswith(".c") else f"{key[:16]}.c"
    # raise_frontend: a corpus case that no longer compiles surfaces as
    # the standard one-line file:line:col diagnostic from main().
    report = check_program(source, name, raise_frontend=True)
    for oracle in report.oracles_run:
        verdict = "FAIL" if oracle in report.failing_oracles else "ok"
        print(f"{oracle:28} {verdict}")
    for failure in report.failures:
        print(f"FAIL {failure.oracle}: {failure.message}")
    print(
        f"replay {key[:16]}: "
        f"{len(report.failing_oracles)} failing oracles"
    )
    return 0 if report.ok else 1


def _command_fuzz_shrink(args: argparse.Namespace) -> int:
    from repro.fuzz import check_program, shrink_case
    from repro.fuzz.shrink import DEFAULT_MAX_CHECKS

    key, source = _resolve_case_or_fail(args.case)
    name = args.case if args.case.endswith(".c") else f"{key[:16]}.c"
    report = check_program(source, name, raise_frontend=True)
    if report.ok:
        _error(f"repro: case {key[:16]} passes all oracles; nothing to shrink")
        return 2
    obs.diag(
        f"repro: shrinking {key[:16]} anchored to "
        f"{', '.join(report.failing_oracles)}"
    )
    max_checks = (
        args.max_checks if args.max_checks is not None else DEFAULT_MAX_CHECKS
    )
    result = shrink_case(
        source, report.failing_oracles, max_checks=max_checks
    )
    path = fuzz_corpus.save_reduction(key, result.source)
    obs.diag(f"repro: reduction saved to {path}")
    print(
        f"shrunk {key[:16]}: {result.original_lines} -> "
        f"{result.reduced_lines} lines ({result.checks} checks)"
    )
    sys.stdout.write(result.source)
    return 0


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help=(
            "execution backend (default: REPRO_BACKEND or 'compiled'; "
            "'interp' is the reference interpreter)"
        ),
    )


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "sample this command with the wall-clock profiler and "
            "write a flamegraph SVG on exit (REPRO_PROFILE_FILE, "
            "default repro-profile.svg)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI parser (exposed for tests and docs)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Accurate Static Estimators for Program "
            "Optimization' (PLDI 1994)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list experiments"
    ).set_defaults(handler=_command_list)

    run_parser = subparsers.add_parser(
        "run", help="run one experiment (or 'all')"
    )
    run_parser.add_argument("experiment")
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for profiling and experiments "
            "(default: REPRO_JOBS or CPU count)"
        ),
    )
    run_parser.add_argument(
        "--timings",
        action="store_true",
        help=(
            "with 'all': print a per-stage timing report to stderr "
            "(profiling, per-experiment wall time, analysis stages)"
        ),
    )
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a span trace and write it as JSONL "
            "(REPRO_TRACE_FILE, default repro-trace.jsonl)"
        ),
    )
    run_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress diagnostic stderr output (stdout is unchanged)",
    )
    _add_profile_argument(run_parser)
    _add_backend_argument(run_parser)
    run_parser.set_defaults(handler=_command_run)

    suite_parser = subparsers.add_parser(
        "suite", help="run every suite program on every input"
    )
    _add_backend_argument(suite_parser)
    suite_parser.set_defaults(handler=_command_suite)

    exec_parser = subparsers.add_parser(
        "exec", help="run one suite program and print its stdout"
    )
    exec_parser.add_argument("program")
    exec_parser.add_argument("--input", type=int, default=1)
    _add_backend_argument(exec_parser)
    exec_parser.set_defaults(handler=_command_exec)

    cfg_parser = subparsers.add_parser(
        "cfg", help="show a function's control-flow graph"
    )
    cfg_parser.add_argument("program")
    cfg_parser.add_argument("function")
    cfg_parser.add_argument("--dot", action="store_true")
    cfg_parser.set_defaults(handler=_command_cfg)

    predict_parser = subparsers.add_parser(
        "predict", help="show per-branch static predictions"
    )
    predict_parser.add_argument("program")
    predict_parser.set_defaults(handler=_command_predict)

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the HTTP analysis daemon "
            "(POST /v1/analyze, GET /healthz, GET /metrics)"
        ),
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8787,
        help="bind port; 0 picks a free port (default: 8787)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="analysis worker threads (default: 4)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=128,
        help=(
            "admitted analyze requests beyond which new ones get "
            "429 + Retry-After (default: 128)"
        ),
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request analysis timeout in seconds (default: 30)",
    )
    serve_parser.add_argument(
        "--record",
        action="store_true",
        help="append one serving run to the ledger on shutdown",
    )
    serve_parser.add_argument(
        "--access-log",
        dest="access_log",
        default=None,
        metavar="DIR",
        help=(
            "directory for the rotated JSON access log (default: "
            "REPRO_ACCESS_LOG_DIR, else stderr only)"
        ),
    )
    serve_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress diagnostic stderr output (stdout is unchanged)",
    )
    _add_profile_argument(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    layout_parser = subparsers.add_parser(
        "layout",
        help="show an estimate-driven basic-block layout",
    )
    layout_parser.add_argument("program")
    layout_parser.add_argument("function")
    layout_parser.set_defaults(handler=_command_layout)

    explain_parser = subparsers.add_parser(
        "explain",
        help=(
            "attribute estimation error to branches: ranked worst "
            "branches, heuristic accuracy, CFG heatmaps"
        ),
    )
    explain_parser.add_argument(
        "targets",
        nargs="*",
        help=(
            "programs to explain, or an alias: base (default), xl, "
            "all, branch_prediction"
        ),
    )
    explain_parser.add_argument(
        "--function",
        default=None,
        help="restrict ranking (and heatmaps) to one function",
    )
    explain_parser.add_argument(
        "--estimator",
        default="markov",
        help=(
            "intra estimator whose error is attributed "
            "(markov, smart, loop; default: markov)"
        ),
    )
    explain_parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many worst branches to rank (default: 10)",
    )
    explain_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full explanation payload as JSON",
    )
    explain_parser.add_argument(
        "--dot",
        metavar="DIR",
        default=None,
        help=(
            "write one CFG heatmap DOT per function "
            "(<program>.<function>.dot) under this directory"
        ),
    )
    explain_parser.add_argument(
        "--export-features",
        metavar="OUT",
        default=None,
        help=(
            "write the per-branch feature/label matrix as JSONL "
            "(one object per branch, heuristics fired + ground truth)"
        ),
    )
    explain_parser.add_argument(
        "--record",
        action="store_true",
        help=(
            "append per-heuristic accuracy rows to the run ledger "
            "(the 'attribution' experiment, gated by "
            "baselines/attribution.json in CI)"
        ),
    )
    explain_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for profiling (default: REPRO_JOBS or CPU count)",
    )
    explain_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent attribution cache",
    )
    explain_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a span trace and write it as JSONL "
            "(REPRO_TRACE_FILE, default repro-trace.jsonl)"
        ),
    )
    explain_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress diagnostic stderr output (stdout is unchanged)",
    )
    _add_backend_argument(explain_parser)
    explain_parser.set_defaults(handler=_command_explain)

    profile_parser = subparsers.add_parser(
        "profile-suite",
        help="collect (and cache) profiles for suite programs",
    )
    profile_parser.add_argument(
        "programs",
        nargs="*",
        help="suite programs (default: the selected --tier)",
    )
    profile_parser.add_argument(
        "--tier",
        choices=("base", "xl", "all"),
        default="base",
        help=(
            "program set when none are named: the 14 paper programs "
            "(base), the generated suite-XL tier (xl), or both (all)"
        ),
    )
    profile_parser.add_argument(
        "--record",
        action="store_true",
        help=(
            "append per-program block totals to the run ledger "
            "(for 'repro compare --fail-on-regression' gating)"
        ),
    )
    profile_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or CPU count)",
    )
    profile_parser.add_argument(
        "--timings",
        action="store_true",
        help="print a per-program timing and cache-traffic table",
    )
    profile_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent profile cache",
    )
    profile_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a span trace and write it as JSONL "
            "(REPRO_TRACE_FILE, default repro-trace.jsonl)"
        ),
    )
    _add_profile_argument(profile_parser)
    _add_backend_argument(profile_parser)
    profile_parser.set_defaults(handler=_command_profile_suite)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing of the estimator pipeline",
    )
    fuzz_sub = fuzz_parser.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run_parser = fuzz_sub.add_parser(
        "run",
        help="generate seeded programs and check every oracle",
    )
    fuzz_run_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; per-case seeds derive from (seed, index)",
    )
    fuzz_run_parser.add_argument(
        "--count",
        type=int,
        default=100,
        help="number of cases to generate and check (default: 100)",
    )
    fuzz_run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or CPU count)",
    )
    fuzz_run_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a span trace and write it as JSONL "
            "(REPRO_TRACE_FILE, default repro-trace.jsonl)"
        ),
    )
    fuzz_run_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress diagnostic stderr output (stdout is unchanged)",
    )
    _add_backend_argument(fuzz_run_parser)
    fuzz_run_parser.set_defaults(handler=_command_fuzz_run)

    fuzz_replay_parser = fuzz_sub.add_parser(
        "replay",
        help="re-run every oracle on one saved (or external) case",
    )
    fuzz_replay_parser.add_argument(
        "case",
        help="corpus key, unique key prefix, or path to a .c file",
    )
    fuzz_replay_parser.set_defaults(handler=_command_fuzz_replay)

    fuzz_shrink_parser = fuzz_sub.add_parser(
        "shrink",
        help="delta-debug a failing case to a minimal reproducer",
    )
    fuzz_shrink_parser.add_argument(
        "case",
        help="corpus key, unique key prefix, or path to a .c file",
    )
    fuzz_shrink_parser.add_argument(
        "--max-checks",
        type=int,
        default=None,
        help="cap on oracle re-runs during reduction",
    )
    fuzz_shrink_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress diagnostic stderr output (stdout is unchanged)",
    )
    fuzz_shrink_parser.set_defaults(handler=_command_fuzz_shrink)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the persistent caches"
    )
    cache_parser.add_argument("action", choices=("info", "clear"))
    cache_parser.set_defaults(handler=_command_cache)

    trace_parser = subparsers.add_parser(
        "trace", help="render a recorded span trace as a tree"
    )
    trace_parser.add_argument(
        "file",
        nargs="?",
        default=None,
        help="JSONL trace file (default: REPRO_TRACE_FILE or repro-trace.jsonl)",
    )
    trace_parser.add_argument(
        "--full",
        action="store_true",
        help="list every span individually with its attributes",
    )
    trace_parser.add_argument(
        "--min-ms",
        type=float,
        default=0.0,
        help="hide aggregated rows cheaper than this many milliseconds",
    )
    trace_parser.set_defaults(handler=_command_trace)

    history_parser = subparsers.add_parser(
        "history", help="list past runs from the persistent ledger"
    )
    history_parser.add_argument(
        "--limit",
        type=int,
        default=20,
        help="how many runs to list, newest first (default: 20)",
    )
    history_parser.add_argument(
        "--experiment",
        default=None,
        help="only runs holding scores for this experiment",
    )
    history_sub = history_parser.add_subparsers(
        dest="history_command", required=False
    )
    history_show_parser = history_sub.add_parser(
        "show", help="print one run in full detail"
    )
    history_show_parser.add_argument(
        "run",
        help="run id, 'latest', or 'latest~N'",
    )
    history_show_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the run as JSON (usable as a "
            "'repro compare --baseline' file)"
        ),
    )
    history_parser.set_defaults(handler=_command_history)

    compare_parser = subparsers.add_parser(
        "compare",
        help="diff two ledger runs (or a run against a baseline file)",
    )
    compare_parser.add_argument(
        "run_a",
        help=(
            "base run reference (or, with --baseline, the candidate "
            "run to check against the baseline)"
        ),
    )
    compare_parser.add_argument(
        "run_b",
        nargs="?",
        default=None,
        help="candidate run reference",
    )
    compare_parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "compare run_a against a committed scores file "
            f"(e.g. {DEFAULT_BASELINE})"
        ),
    )
    compare_parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any score drifts or any stage slows beyond "
        "tolerance",
    )
    compare_parser.add_argument(
        "--score-tol",
        type=float,
        default=1e-6,
        help=(
            "absolute score drift tolerance, either direction "
            "(default: 1e-6)"
        ),
    )
    compare_parser.add_argument(
        "--time-tol",
        type=float,
        default=0.25,
        help=(
            "relative stage slowdown tolerance, e.g. 0.25 = 25%% "
            "(default: 0.25)"
        ),
    )
    compare_parser.set_defaults(handler=_command_compare)

    report_parser = subparsers.add_parser(
        "report",
        help="write a self-contained HTML dashboard over the ledger",
    )
    report_parser.add_argument(
        "--html",
        default="repro-report.html",
        metavar="OUT",
        help="output path (default: repro-report.html)",
    )
    report_parser.add_argument(
        "--limit",
        type=int,
        default=50,
        help="how many runs of history to chart (default: 50)",
    )
    report_parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "scores file for the delta column (default: "
            f"{DEFAULT_BASELINE} when present)"
        ),
    )
    report_parser.set_defaults(handler=_command_report)

    stats_parser = subparsers.add_parser(
        "stats", help="show metrics recorded by the last command"
    )
    stats_parser.add_argument(
        "--format",
        choices=("table", "prom"),
        default="table",
        help="output format (default: table)",
    )
    stats_parser.add_argument(
        "--file",
        default=None,
        help="stats snapshot file (default: REPRO_STATS_FILE or "
        "obs/stats.json under the cache root)",
    )
    stats_parser.set_defaults(handler=_command_stats)

    traces_parser = subparsers.add_parser(
        "traces",
        help=(
            "fetch request traces from a running daemon's flight "
            "recorder (GET /debug/traces | /debug/slow)"
        ),
    )
    traces_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="daemon address (default: 127.0.0.1)",
    )
    traces_parser.add_argument(
        "--port",
        type=int,
        default=8787,
        help="daemon port (default: 8787)",
    )
    traces_parser.add_argument(
        "--slow",
        action="store_true",
        help="slowest retained requests instead of most recent",
    )
    traces_parser.add_argument(
        "--errors",
        action="store_true",
        help="retained error/timeout traces instead of most recent",
    )
    traces_parser.add_argument(
        "--limit",
        type=int,
        default=10,
        help="traces to fetch (default: 10)",
    )
    traces_parser.add_argument(
        "--full",
        action="store_true",
        help="render each trace's full span tree",
    )
    traces_parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON payload",
    )
    traces_parser.set_defaults(handler=_command_traces)

    profiler_parser = subparsers.add_parser(
        "profile",
        help=(
            "run another repro command under the sampling profiler "
            "and write a flamegraph SVG"
        ),
    )
    profiler_parser.add_argument(
        "--out",
        default=None,
        metavar="SVG",
        help=(
            "flamegraph output path (default: REPRO_PROFILE_FILE or "
            "repro-profile.svg; collapsed stacks land next to it)"
        ),
    )
    profiler_parser.add_argument(
        "--interval-ms",
        dest="interval_ms",
        type=float,
        default=5.0,
        help="sampling interval in milliseconds (default: 5)",
    )
    profiler_parser.add_argument(
        "--include-idle",
        action="store_true",
        help=(
            "keep stacks parked in locks/selectors/executor queues "
            "(dropped by default)"
        ),
    )
    profiler_parser.add_argument(
        "argv",
        nargs=argparse.REMAINDER,
        metavar="-- command",
        help="the repro command to profile, e.g. '-- run all'",
    )
    profiler_parser.set_defaults(handler=_command_profile)

    return parser


def _finish_observability() -> None:
    """End-of-command export: flush the trace, persist the metrics.

    The trace is written only when tracing is on (``--trace`` or
    ``REPRO_TRACE``); the metrics snapshot is persisted whenever the
    command produced any, so a later ``repro stats`` can read it back.
    """
    if obs.tracing_enabled() and obs.trace_roots():
        path, count = obs.write_trace_jsonl()
        obs.diag(f"repro: wrote {count} spans to {path}")
    # Every process accrues the collector's gc.* metrics; alone they do
    # not make a command's snapshot worth keeping over the last one's.
    recorded = any(
        not name.startswith("gc.") for name in obs.metrics_snapshot()
    )
    if recorded and (
        store.enabled() or os.environ.get("REPRO_STATS_FILE")
    ):
        obs.write_stats()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    was_tracing = obs.tracing_enabled()
    was_quiet = obs.quiet_enabled()
    was_backend = os.environ.get("REPRO_BACKEND")
    if getattr(args, "quiet", False):
        obs.set_quiet(True)
    if getattr(args, "trace", False) is True:
        obs.enable_tracing()
    profiler = None
    if getattr(args, "profile", False) is True:
        from repro.obs.profiler import SamplingProfiler

        profiler = SamplingProfiler()
        profiler.start()
    try:
        status = args.handler(args)
        _finish_observability()
    except FrontendError as error:
        # Rejected source is a user-facing diagnostic, not a crash:
        # one `file:line:col: message` line on stderr, nonzero exit.
        _error(error.diagnostic())
        return 1
    except BrokenPipeError:  # e.g. `repro trace | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if profiler is not None:
            profiler.stop()
            from repro.obs.profiler import write_profile

            svg_path, collapsed_path = write_profile(
                profiler,
                title=f"repro {getattr(args, 'command', '')}".strip(),
            )
            obs.diag(
                f"profile: {profiler.total_samples} samples over "
                f"{profiler.wall_seconds:.2f}s -> {svg_path} "
                f"(+ {collapsed_path})"
            )
        # Restore process-global flags so in-process callers (tests,
        # embedding) see main() as reentrant.  --backend publishes
        # through the environment (worker processes inherit it), so it
        # is restored the same way.
        obs.set_quiet(was_quiet)
        if not was_tracing:
            obs.disable_tracing()
        if was_backend is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = was_backend
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
