"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload serve_edit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is the
checkout's ``src/repro``.  Workloads (see ``perfbench/README.md``):

* ``serve_edit`` — one developer's editor: a closed loop over one
  keep-alive connection to ``repro serve``, salted saves of 15 TUs plus
  one truncated TU per cycle (every request pays the full analysis
  path);
* ``cli_reproduce`` — the researcher: a cold ``repro run all`` in a
  fresh cache dir, then warm reruns, one CLI process at a time.

``--seconds`` fixes the amount of work, not a deadline: each workload
does a fixed number of cycles or reruns per second asked,
calibrated to last about that long on a 2-core host, so work that
accumulates state (pool growth on ``serve_edit``) is identical in every
run.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same work twice — plain, then under the tracing
bootstrap (``tracer.py``) — and reports the per-layer metrics, the
conservation table and the tracing overhead.  Metric names and units
are the ones ``BENCHMARK.json`` declares.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import mix
import oracle
from daemon import Daemon, run_cli

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")

#: Fixed work per second of ``--seconds``.
EDIT_CYCLES_PER_S = 0.65
RERUNS_PER_S = 0.6
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: ``cli.startup_ms`` probes per traced run.
STARTUP_PROBES = 5

#: End-to-end metric names, in ``BENCHMARK.json`` order.
END_TO_END = (
    "setup_s", "latency_p50_ms", "latency_p95_ms", "throughput_rps",
    "cpu_ms_per_request", "peak_rss_mb", "ok_share", "rerun_s",
)

_ELAPSED = re.compile(rb'"elapsed_ms": ([0-9.eE+-]+)')


# ----------------------------------------------------------------------
# Statistics and the environment stamp.


def percentile(samples: list[float], labels: list[str], p: float) -> dict:
    """Nearest-rank percentile with its audit: the sample count, how
    many samples lie beyond it, and the label (TU) of the sample that
    sits at it."""
    if not samples:
        return {"value": 0.0, "samples": 0, "beyond": 0, "at": None}
    order = sorted(range(len(samples)), key=lambda i: samples[i])
    rank = max(1, math.ceil(p * len(samples)))
    at = order[rank - 1]
    return {
        "value": samples[at],
        "samples": len(samples),
        "beyond": len(samples) - rank,
        "at": labels[at],
    }


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a CPU-speed stamp that
    tells drift of a shared host apart from a program change."""
    times = []
    for _ in range(5):
        clock = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - clock) * 1000.0)
    return statistics.median(times)


def git_sha(checkout: str) -> str | None:
    """HEAD's commit, or None where the checkout has no ``.git`` of its
    own (git would otherwise name an enclosing repository's commit)."""
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(checkout: str) -> str:
    """SHA-256 over the program's sources: identifies the code measured
    even where the checkout is not a git repository."""
    hasher = hashlib.sha256()
    root = os.path.join(checkout, "src", "repro")
    for directory, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c", ".txt")):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def environment(checkout: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(checkout),
        "source_sha256": source_digest(checkout),
        "cpu_probe_ms": round(cpu_probe_ms(), 3),
    }


def parse_prometheus(text: str) -> dict[str, float]:
    """Unlabelled series of a Prometheus exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


# ----------------------------------------------------------------------
# Run context.


class Context:
    """A run's private work dir under ``<checkout>/.perfbench/``,
    deleted when the run ends."""

    def __init__(self, checkout: str) -> None:
        self.checkout = checkout
        self.base = os.path.join(checkout, ".perfbench")
        os.makedirs(self.base, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=self.base, prefix="run-")
        self.expected = oracle.load_expected()
        self.sources = mix.load_sources()
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        """A new, empty private cache dir (``REPRO_CACHE_DIR``)."""
        self._dirs += 1
        path = os.path.join(self.work, f"{self._dirs:02d}-{label}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(self.base)
        except OSError:  # another run still uses it
            pass


def repro_argv(traced: bool, cache_dir: str) -> list[str]:
    """Interpreter arguments that run the ``repro`` CLI: plain, or under
    the tracing bootstrap writing its spans into ``cache_dir``."""
    return [TRACER, cache_dir] if traced else ["-m", "repro"]


class Outcome:
    """Samples of one workload run."""

    def __init__(self) -> None:
        self.latency_ms: list[float] = []
        self.labels: list[str] = []
        self.transport_ms: list[float] = []
        self.body_bytes = 0
        self.statuses: dict[int, int] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.begin = self.end = 0.0
        #: Wall and CPU seconds of the timed operations.
        self.timed_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.setup_s: list[float] = []
        self.pass_s: list[float] = []
        #: Serve: the daemon's exported metrics around the timed phase
        #: and its pool bytes at the end.
        self.exported: tuple[dict, dict] = ({}, {})
        self.pool_bytes = 0
        #: CLI: wall time of every ``run all`` process, and the cache
        #: dir the reruns used.
        self.process_s: list[float] = []
        self.cache_dir = ""

    def record(self, request: mix.Request, status: int, body: bytes, began: float, ended: float) -> None:
        latency = (ended - began) * 1000.0
        self.latency_ms.append(latency)
        self.labels.append(request.tu if request.kind == "analyze" else f"{request.tu}/truncated")
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.body_bytes += len(body)
        if status == 200:
            match = _ELAPSED.search(body, max(0, len(body) - 200))
            if match:
                self.transport_ms.append(latency - float(match.group(1)))

    def check(self, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)

    @property
    def requests(self) -> int:
        return len(self.latency_ms)


# ----------------------------------------------------------------------
# Serve workload.


def start_daemon(ctx: Context, traced: bool, label: str) -> Daemon:
    """Spawn a daemon with a fresh cache dir; returns once it answers
    ``GET /healthz``."""
    cache_dir = ctx.fresh_dir(label)
    daemon = Daemon(ctx.checkout, cache_dir, repro_argv(traced, cache_dir))
    status, _ = daemon.get("/healthz")
    if status != 200:
        daemon.stop()
        raise RuntimeError(f"/healthz answered {status}")
    return daemon


def spawn_set(ctx: Context, traced: bool, label: str, setups: int):
    """``setups`` daemons, each timed from spawn until it answers; the
    last one is kept for the timed phase."""
    times = []
    for index in range(setups):
        clock = time.perf_counter()
        daemon = start_daemon(ctx, traced, label)
        times.append(time.perf_counter() - clock)
        if index < setups - 1:
            daemon.stop()
    return daemon, times


def exported_metrics(daemon: Daemon) -> dict[str, float]:
    status, body = daemon.get("/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_prometheus(body.decode("utf-8"))


def measure(daemon: Daemon, out: Outcome, phase) -> None:
    """Run ``phase()`` as the timed phase with the daemon's CPU, peak
    RSS and exported metrics around it; stops the daemon.  A daemon
    that did not survive the timed phase is one failed operation."""
    try:
        before = exported_metrics(daemon)
        cpu_before = daemon.cpu_seconds()
        out.begin = time.perf_counter()
        phase()
        out.end = time.perf_counter()
        out.timed_s = out.end - out.begin
        code = daemon.proc.poll()
        if code is not None:
            out.check(f"daemon exited with code {code} during the timed phase")
            return
        out.cpu_s = daemon.cpu_seconds() - cpu_before
        out.peak_rss_mb = daemon.peak_rss_mb()
        out.exported = (before, exported_metrics(daemon))
        out.pool_bytes = daemon.get_json("/healthz")["pool"]["bytes"]
    finally:
        daemon.stop()


def send_cycles(connect, plan: list[list[mix.Request]], out: Outcome) -> list:
    """Send every request of ``plan`` in order over one keep-alive
    connection, each after the previous one's answer; returns the
    ``(request, status, body)`` answers.

    A request that gets no answer (the connection drops, the read
    times out, the daemon is gone) is a failed operation; the next
    request reconnects.
    """
    answers = []
    connection = connect()
    for cycle in plan:
        cycle_start = time.perf_counter()
        for request in cycle:
            began = time.perf_counter()
            try:
                if connection is None:
                    connection = connect()
                status, body = connection.request(request.raw)
            except OSError as error:  # ConnectionError and timeouts included
                out.check(f"{request.tu}/{request.kind}: no answer ({type(error).__name__})")
                if connection is not None:
                    connection.close()
                    connection = None
                continue
            out.record(request, status, body, began, time.perf_counter())
            answers.append((request, status, body))
        out.pass_s.append(time.perf_counter() - cycle_start)
    if connection is not None:
        connection.close()
    return answers


def serve_edit(ctx: Context, seed: int, seconds: float, traced: bool, setups: int) -> Outcome:
    plan = mix.edit_cycles(ctx.sources, seed, max(1, round(seconds * EDIT_CYCLES_PER_S)))
    out = Outcome()
    daemon, out.setup_s = spawn_set(ctx, traced, "serve_edit", setups)
    answers = []

    def phase() -> None:
        answers.extend(send_cycles(daemon.connect, plan, out))

    measure(daemon, out, phase)
    # Checked after the timed phase: a full JSON parse and digest per
    # answer would otherwise add client think time between saves.
    for request, status, body in answers:
        out.check(oracle.check_analyze(request, status, body, ctx.expected))
    return out


# ----------------------------------------------------------------------
# CLI workload.


def cli_reproduce(ctx: Context, seed: int, seconds: float, traced: bool, setups: int) -> Outcome:
    """Each set-up is a cold ``run all`` in a fresh cache dir, followed
    by its share of the warm reruns in that dir; interleaving spreads
    both kinds of sample over the whole run.  The seed has no work to
    vary here: the command is fixed, and its output must equal the
    goldens on every run."""
    goldens = oracle.load_goldens(ctx.checkout)
    reruns = max(1, round(seconds * RERUNS_PER_S))
    out = Outcome()

    def run_all(cache_dir: str, tag: str) -> tuple[float, float]:
        stdout_path = os.path.join(cache_dir, f"{tag}.out")
        argv = [*repro_argv(traced, cache_dir), "run", "all"]
        code, wall, cpu, rss = run_cli(ctx.checkout, cache_dir, argv, stdout_path)
        with open(stdout_path, encoding="utf-8", errors="replace") as handle:
            out.check(oracle.check_golden_run_all(handle.read(), goldens) if code == 0 else f"run all exited {code}")
        out.peak_rss_mb = max(out.peak_rss_mb, rss)
        out.process_s.append(wall)
        return wall, cpu

    for index in range(setups):
        out.cache_dir = ctx.fresh_dir("cli_reproduce")
        out.setup_s.append(run_all(out.cache_dir, "cold")[0])
        for rerun in range(index * reruns // setups, (index + 1) * reruns // setups):
            wall, cpu = run_all(out.cache_dir, f"rerun{rerun}")
            out.latency_ms.append(wall * 1000.0)
            out.labels.append(f"rerun{rerun}")
            out.pass_s.append(wall)
            out.cpu_s += cpu
    out.timed_s = sum(out.pass_s)
    return out


WORKLOADS = {
    "serve_edit": serve_edit,
    "cli_reproduce": cli_reproduce,
}


# ----------------------------------------------------------------------
# End-to-end metrics.


def end_to_end(out: Outcome) -> tuple[dict, dict]:
    """The end-to-end metrics and the percentile audit."""
    audit = {name: percentile(out.latency_ms, out.labels, p) for name, p in (("p50", 0.50), ("p95", 0.95))}
    metrics = {
        "setup_s": statistics.median(out.setup_s),
        "latency_p50_ms": audit["p50"]["value"],
        "latency_p95_ms": audit["p95"]["value"],
        "throughput_rps": out.requests / out.timed_s,
        "cpu_ms_per_request": out.cpu_s * 1000.0 / max(1, out.requests),
        "peak_rss_mb": out.peak_rss_mb,
        "ok_share": (out.attempted - len(out.failures)) / out.attempted,
        "rerun_s": statistics.median(out.pass_s),
    }
    return metrics, audit


# ----------------------------------------------------------------------
# Traced run: per-layer metrics.


def serve_layer_metrics(out: Outcome, processes: list) -> dict[str, float]:
    totals = layers.serve_window(processes, out.begin, out.end)
    before, after = out.exported

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    memo_hits = delta("repro_analysis_memo_hits_total")
    gets = totals.calls["serve.pool"]
    misses = totals.counts["serve.pool"]
    metrics = layers.common_metrics(totals)
    metrics.update(
        {
            "analysis.memo_hit_ratio": ratio(memo_hits, memo_hits + delta("repro_analysis_memo_misses_total")),
            "serve.handle_ms": totals.self_ms["serve.handle"],
            "serve.transport_ms": statistics.median(out.transport_ms) if out.transport_ms else 0.0,
            "serve.queue_wait_ms": ratio(
                delta("repro_serve_batch_queue_wait_ms_sum"), delta("repro_serve_batch_queue_wait_ms_count")
            ),
            "serve.batch_requests": ratio(
                delta("repro_serve_batch_requests_sum"), delta("repro_serve_batch_requests_count")
            ),
            "serve.coalesced_share": ratio(delta("repro_serve_batch_coalesced_total"), out.requests),
            # A rejected source raises inside the pool: neither hit nor miss.
            "serve.pool_hit_ratio": ratio(gets - misses - totals.errors["serve.pool"], gets),
            "serve.pool_miss_ms": ratio(totals.counted_wall_ms["serve.pool"], misses),
            "serve.pool_bytes": float(out.pool_bytes),
            "serve.report_ms": totals.self_ms["serve.report"],
            "serve.encode_ms": totals.self_ms["serve.encode"],
            "serve.response_kb": ratio(out.body_bytes / 1024.0, out.requests),
            "serve.status_4xx": float(sum(n for s, n in out.statuses.items() if 400 <= s < 500)),
            "serve.status_5xx": float(sum(n for s, n in out.statuses.items() if s >= 500)),
            "obs.request_record_ms": ratio(
                sum(totals.self_ms[name] for name in ("obs.request_record", "obs.flight", "obs.access_log", "obs.diag")),
                out.requests,
            ),
        }
    )
    metrics.update(layers.conservation(totals.layer_self_ms(), sum(out.latency_ms)))
    return metrics


def cli_layer_metrics(ctx: Context, out: Outcome, processes: list) -> dict[str, float]:
    main, every, startup_s = layers.cli_totals(processes)
    metrics = layers.common_metrics(every)
    code_hits = every.counts["compile.cache_load"]
    profile_hits = every.counts["profiles.load"]
    metrics.update(
        {
            "analysis.memo_hit_ratio": memo_hit_ratio(ctx, out.cache_dir),
            "obs.ledger_ms": every.wall_ms["obs.ledger"] / max(1, every.calls["obs.ledger"]),
            "compile.codegen_ms": every.self_ms["compile.codegen"],
            "compile.cache_hits": code_hits,
            "compile.cache_misses": every.calls["compile.cache_load"] - code_hits,
            "interp.exec_ms": every.self_ms["interp.run"],
            "profiles.cache_hits": profile_hits,
            "profiles.cache_misses": every.calls["profiles.load"] - profile_hits,
            "profiles.store_ms": every.self_ms["profiles.store"],
            "profiles.load_ms": every.self_ms["profiles.load"],
            "suite.collect_ms": every.wall_ms["suite.collect"],
            "suite.worker_busy_share": layers.worker_busy_share(processes, os.cpu_count() or 1),
        }
    )
    for name in oracle.load_goldens(ctx.checkout):
        metrics[f"experiments.{name}_ms"] = every.wall_ms[f"experiments.{name}"]
    rows = main.layer_self_ms()
    rows["cli"] += startup_s * 1000.0
    metrics.update(layers.conservation(rows, sum(out.process_s) * 1000.0))
    return metrics


def memo_hit_ratio(ctx: Context, cache_dir: str) -> float:
    """Analysis memo hit ratio of the last CLI command, from the
    metrics snapshot ``repro stats`` exports."""
    path = os.path.join(cache_dir, "stats.prom")
    code, _, _, _ = run_cli(ctx.checkout, cache_dir, ["-m", "repro", "stats", "--format", "prom"], path)
    if code != 0:
        raise RuntimeError("repro stats failed")
    with open(path, encoding="utf-8") as handle:
        values = parse_prometheus(handle.read())
    hits = values.get("repro_analysis_memo_hits_total", 0.0)
    misses = values.get("repro_analysis_memo_misses_total", 0.0)
    return hits / (hits + misses) if hits + misses else 0.0


def startup_ms(ctx: Context) -> float:
    """Median wall time of ``python -m repro --version``."""
    cache_dir = ctx.fresh_dir("startup")
    walls = []
    for index in range(STARTUP_PROBES):
        code, wall, _, _ = run_cli(ctx.checkout, cache_dir, ["-m", "repro", "--version"], os.path.join(cache_dir, f"v{index}"))
        if code != 0:
            raise RuntimeError("repro --version failed")
        walls.append(wall * 1000.0)
    return statistics.median(walls)


def traced_run(ctx: Context, workload: str, seed: int, seconds: float) -> tuple[list[Outcome], dict]:
    """The same work twice, plain then traced; returns both outcomes
    and the per-layer metrics."""
    run = WORKLOADS[workload]
    plain = run(ctx, seed, seconds, False, 1)
    traced = run(ctx, seed, seconds, True, 1)
    processes = layers.load(ctx.work)
    if workload == "cli_reproduce":
        metrics = cli_layer_metrics(ctx, traced, processes)
        untraced_ms = sum(plain.process_s) * 1000.0
    else:
        metrics = serve_layer_metrics(traced, processes)
        untraced_ms = sum(plain.latency_ms)
    traced_ms = metrics["trace.e2e_ms"]
    metrics["trace.untraced_e2e_ms"] = untraced_ms
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    metrics["trace.overhead_share"] = (traced_ms - untraced_ms) / untraced_ms
    metrics["cli.startup_ms"] = startup_ms(ctx)
    outcomes = [plain, traced]
    failures = sum(len(o.failures) for o in outcomes)
    metrics["failed_share"] = failures / sum(o.attempted for o in outcomes)
    return outcomes, metrics


# ----------------------------------------------------------------------
# Entry point.


def declared(checkout: str, kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    checkout = os.getcwd()
    for required in (
        "BENCHMARK.json",
        os.path.join("src", "repro", "__init__.py"),
        os.path.join("tests", "golden_outputs.json"),
    ):
        if not os.path.isfile(os.path.join(checkout, required)):
            print(f"perfbench: {required} not found; run from the root of a repro checkout", file=sys.stderr)
            return 2
    units = declared(checkout, "per_layer" if args.trace else "end_to_end")
    ctx = Context(checkout)
    try:
        env = environment(checkout)
        if args.trace:
            outcomes, computed = traced_run(ctx, args.workload, args.seed, args.seconds)
            # A layer that does no work on this workload reports 0.
            metrics = {name: computed.pop(name, 0.0) for name in units}
        else:
            outcome = WORKLOADS[args.workload](ctx, args.seed, args.seconds, False, SETUPS)
            outcomes = [outcome]
            computed, env["audit"] = end_to_end(outcome)
            env["setup_s"] = outcome.setup_s
            metrics = {name: computed.pop(name) for name in units}
        if computed:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(computed)}")
        env["cpu_probe_end_ms"] = round(cpu_probe_ms(), 3)
    finally:
        ctx.close()
    attempted = sum(o.attempted for o in outcomes)
    failures = [failure for o in outcomes for failure in o.failures]
    env["failed_share"] = len(failures) / attempted
    env["failures"] = sorted(set(failures))[:20]
    print("perfbench.env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
