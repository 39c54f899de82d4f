"""Tracing bootstrap: run ``repro``'s CLI with timing wrappers around
each layer's public entry points.

    python3 perfbench/tracer.py <span-dir> <repro CLI arguments...>

Each wrapper is installed at the module attribute where its callers
look the function up, so the daemon and the CLI run in their usual
processes with their usual code.  A span records its name, parent,
start, end (``time.perf_counter``, one monotonic clock for every
process on the host), whether it raised, and one layer-specific count.
The parent link is a context variable, so spans opened on the serve
worker threads (which run in a copy of the submitting request's
context) nest under that request's ``serve.handle`` span.

Spans stay in memory.  Each process writes ``spans-<pid>.json`` into
``<span-dir>`` when it exits; processes forked by the program's worker
pools inherit the wrappers and write their own file through
``multiprocessing``'s after-fork hook and exit finalizer.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import time
import types

_PARENT = contextvars.ContextVar("perfbench_parent", default=0)


class Recorder:
    """One process's spans: ``[id, parent, name, start, end, ok, count]``."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.main = True
        self.extra: dict = {}
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.ids = itertools.count(1)

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "pid": self.pid,
                    "main": self.main,
                    "spans": self.spans,
                    **self.extra,
                },
                handle,
            )


def _after_fork(recorder: Recorder) -> None:
    recorder.reset()
    recorder.main = False
    _PARENT.set(0)
    multiprocessing.util.Finalize(recorder, recorder.dump, exitpriority=10)


def timed(recorder: Recorder, function, name: str, count=None):
    """``function`` wrapped to record one span per call.

    ``count(result, args)`` gives the span's count (tokens, blocks, a
    cache hit as 1 ...); a call that raises records ``ok = False``.
    """

    def start():
        span_id = next(recorder.ids)
        return span_id, _PARENT.get(), _PARENT.set(span_id), time.perf_counter()

    def finish(opened, ok, result, args):
        span_id, parent, token, began = opened
        ended = time.perf_counter()
        _PARENT.reset(token)
        value = count(result, args) if ok and count is not None else 0
        recorder.spans.append([span_id, parent, name, began, ended, ok, value])

    if inspect.iscoroutinefunction(function):

        async def wrapper(*args, **kwargs):
            opened = start()
            try:
                result = await function(*args, **kwargs)
            except BaseException:
                finish(opened, False, None, args)
                raise
            finish(opened, True, result, args)
            return result

    else:

        def wrapper(*args, **kwargs):
            opened = start()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                finish(opened, False, None, args)
                raise
            finish(opened, True, result, args)
            return result

    return functools.wraps(function)(wrapper)


def _blocks(result, args):
    return sum(len(cfg) for cfg in result.values())


def _sites(result, args):
    return len(result.call_sites(True))


def _hit(result, args):
    return 0 if result is None else 1


def _pool_miss(result, args):
    return 0 if result[1] else 1


def _length(result, args):
    return len(result)


#: (module, attribute path, span name, count) for every command.
ANALYSIS_TARGETS = [
    ("repro.frontend", "preprocess", "frontend.preprocess", None),
    ("repro.frontend.parser", "tokenize", "frontend.lex", _length),
    ("repro.frontend", "parse", "frontend.parse", None),
    ("repro.program", "build_all_cfgs", "cfg.build", _blocks),
    ("repro.program", "build_call_graph", "callgraph.build", _sites),
    ("repro.analysis.session", "settings_for_program", "prediction.settings", None),
    ("repro.prediction.predictor", "HeuristicPredictor.predict_branch", "prediction.predict", None),
    ("repro.analysis.session", "transition_probabilities", "prediction.transitions", None),
    ("repro.analysis.session", "AnalysisSession.intra_estimates", "estimators.intra", None),
    ("repro.analysis.session", "AnalysisSession.invocations", "estimators.inter", None),
    ("repro.analysis.session", "AnalysisSession.call_site_frequencies", "estimators.callsites", None),
    ("repro.estimators.intra.markov", "solve_flow_rows", "linalg.solve", None),
    ("repro.estimators.inter.markov", "solve_flow_rows", "linalg.solve", None),
    ("repro.analysis.cache", "load_cached_analysis", "analysis.disk_load", _hit),
    ("repro.analysis.cache", "store_analysis", "analysis.disk_store", None),
    ("repro.obs", "write_stats", "obs.stats", None),
]

#: Targets on the ``repro serve`` path.
SERVE_TARGETS = [
    ("repro.serve.app", "ServeApp.handle", "serve.handle", None),
    ("repro.serve.pool", "SessionPool.get", "serve.pool", _pool_miss),
    ("repro.serve.app", "build_report", "serve.report", None),
    ("repro.serve.app", "json.dumps", "serve.encode", _length),
    ("repro.serve.app", "build_record", "obs.request_record", None),
    ("repro.obs.flight", "FlightRecorder.record", "obs.flight", None),
    ("repro.obs.flight", "AccessLog.log", "obs.access_log", None),
    ("repro.serve.app", "diag", "obs.diag", None),
]

#: Targets on the ``repro run`` path.
RUN_TARGETS = [
    ("repro.compile.backend", "compile_program", "compile.codegen", None),
    ("repro.compile.backend", "load_cached_code", "compile.cache_load", _hit),
    ("repro.suite.registry", "run_on_input", "interp.run", None),
    ("repro.profiles.cache", "load_cached_profile", "profiles.load", _hit),
    ("repro.profiles.cache", "store_profile", "profiles.store", None),
    ("repro.suite", "collect_suite_profiles", "suite.collect", None),
    ("repro.cli", "run_all", "experiments.run_all", None),
    ("repro.obs.ledger", "record_run", "obs.ledger", None),
]


def install(recorder: Recorder, targets) -> None:
    for module_name, path, name, count in targets:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            child = getattr(owner, parent)
            if isinstance(child, types.ModuleType):
                # A module attribute (``json`` in the app): give the
                # caller a private namespace so the wrapper stays local.
                child = types.SimpleNamespace(**vars(child))
                setattr(owner, parent, child)
            owner = child
        setattr(owner, attribute, timed(recorder, getattr(owner, attribute), name, count))


def install_experiments(recorder: Recorder) -> None:
    from repro.experiments import runner

    for name, experiment in list(runner.EXPERIMENTS.items()):
        runner.EXPERIMENTS[name] = dataclasses.replace(
            experiment,
            run=timed(recorder, experiment.run, f"experiments.{name}"),
        )


def main() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder(out_dir)
    targets = list(ANALYSIS_TARGETS)
    if argv[:1] == ["serve"]:
        targets += SERVE_TARGETS
    elif argv[:1] == ["run"]:
        targets += RUN_TARGETS
    install(recorder, targets)
    if argv[:1] == ["run"]:
        install_experiments(recorder)
    multiprocessing.util.register_after_fork(recorder, _after_fork)
    from repro.cli import main as repro_main

    spawned = float(os.environ.get("PERFBENCH_SPAWN_TIME", time.time()))
    recorder.extra["startup_s"] = time.time() - spawned
    try:
        return repro_main(argv)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
