"""Longitudinal run ledger: persistent accuracy & performance history.

The rest of :mod:`repro.obs` observes a *single* invocation — spans and
metrics evaporate when the process exits (apart from the last stats
snapshot).  The ledger is the cross-run layer: an append-only SQLite
database that records one row per ``repro run``/``run all``, ``fuzz
run``, or ``--record``ed command, plus the run's *actual accuracy
numbers* (weight-matching scores per estimator and cutoff, branch-miss
rates, selective-optimization payoffs), its stage wall-times (derived
from the span tree), and its metric counters (cache traffic, solver
dispatches, interpreter totals).  ``repro history``, ``repro compare``,
and ``repro report`` are views over this store; a committed baseline
plus ``repro compare --baseline … --fail-on-regression`` turns
estimator drift into a red build.

Layout::

    <ledger dir>/ledger.db        # SQLite, schema below

    runs(id, started_at, kind, label, git_sha, python, platform,
         jobs, cache_enabled, schema_version, version)
    scores(run_id, experiment, metric, value)    -- accuracy numbers
    stages(run_id, stage, seconds)               -- span-derived times
    counters(run_id, name, value)                -- metric deltas

Environment knobs:

* ``REPRO_LEDGER=0`` — disable recording (reads still work against an
  explicit path).
* ``REPRO_LEDGER_DIR`` — ledger directory (default: a ``ledger/``
  subdirectory of the profile cache, so tests inherit hermeticity from
  ``REPRO_CACHE_DIR``).

Concurrency: every append runs inside one ``BEGIN IMMEDIATE``
transaction with a generous busy timeout, so parallel processes (two
CI shards, a fuzz run racing a ``run all``) interleave whole runs rather
than corrupting each other.

Comparison semantics are *drift detection*, not "higher is better":
some ledger metrics improve upward (weight-matching scores), others
downward (miss rates), so :func:`compare_scores` flags any score whose
absolute delta exceeds the tolerance, in either direction, plus any
experiment or metric that disappeared.  Stage times regress only
upward, gated by a relative tolerance and an absolute noise floor.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import platform as platform_module
import sqlite3
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Mapping, Optional

SCHEMA_VERSION = 1

#: Absolute stage-time change (seconds) below which a relative
#: slowdown is treated as noise, not a regression.
TIME_NOISE_FLOOR = 0.05

_FALSEY = {"0", "no", "off", "false", ""}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    started_at TEXT NOT NULL,
    kind TEXT NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    git_sha TEXT NOT NULL DEFAULT '',
    python TEXT NOT NULL DEFAULT '',
    platform TEXT NOT NULL DEFAULT '',
    jobs INTEGER NOT NULL DEFAULT 1,
    cache_enabled INTEGER NOT NULL DEFAULT 1,
    schema_version INTEGER NOT NULL DEFAULT 1,
    version TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS scores (
    run_id INTEGER NOT NULL,
    experiment TEXT NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS stages (
    run_id INTEGER NOT NULL,
    stage TEXT NOT NULL,
    seconds REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    run_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    value REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_scores_run ON scores(run_id);
CREATE INDEX IF NOT EXISTS idx_scores_experiment ON scores(experiment);
CREATE INDEX IF NOT EXISTS idx_stages_run ON stages(run_id);
CREATE INDEX IF NOT EXISTS idx_counters_run ON counters(run_id);
"""


def ledger_enabled() -> bool:
    """Whether run recording is on (``REPRO_LEDGER`` knob)."""
    return (
        os.environ.get("REPRO_LEDGER", "1").strip().lower() not in _FALSEY
    )


def ledger_dir() -> str:
    """The ledger directory (not necessarily created yet)."""
    explicit = os.environ.get("REPRO_LEDGER_DIR")
    if explicit:
        return explicit
    from repro import store

    return os.path.join(store.root(), "ledger")


def ledger_path() -> str:
    """Path of the SQLite database file."""
    return os.path.join(ledger_dir(), "ledger.db")


def _connect(path: Optional[str] = None) -> sqlite3.Connection:
    path = path or ledger_path()
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    connection = sqlite3.connect(path, timeout=30.0)
    connection.execute("PRAGMA busy_timeout = 30000")
    connection.executescript(_SCHEMA)
    # Databases created before the ``version`` column existed migrate
    # in place (CREATE TABLE IF NOT EXISTS leaves them untouched).
    columns = {
        row[1]
        for row in connection.execute("PRAGMA table_info(runs)")
    }
    if "version" not in columns:
        connection.execute(
            "ALTER TABLE runs ADD COLUMN version TEXT NOT NULL"
            " DEFAULT ''"
        )
        connection.commit()
    return connection


# ----------------------------------------------------------------------
# Environment fingerprint.


def now_iso() -> str:
    """The local wall-clock time as an ISO-8601 second-resolution
    string — the ``started_at`` stamp callers pass into a run row."""
    return datetime.datetime.now().astimezone().isoformat(
        timespec="seconds"
    )


def git_sha() -> str:
    """Short git revision of the working tree, or '' outside a repo."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return completed.stdout.strip() if completed.returncode == 0 else ""


def environment_fingerprint() -> dict[str, str]:
    """The per-run provenance columns: git sha, python, platform, and
    the installed ``repro`` package version."""
    import repro

    return {
        "git_sha": git_sha(),
        "python": platform_module.python_version(),
        "platform": f"{sys.platform}-{platform_module.machine()}",
        "version": repro.__version__,
    }


# ----------------------------------------------------------------------
# Scalar flattening (experiment results -> score rows).

#: Guard rails for :func:`flatten_scalars` on adversarial inputs.
_FLATTEN_MAX_DEPTH = 8
_FLATTEN_MAX_ENTRIES = 4000


def flatten_scalars(value: object, prefix: str = "") -> dict[str, float]:
    """Flatten a result object into deterministic ``{path: number}``.

    Numbers become leaves keyed by their ``/``-joined path; dicts,
    lists/tuples, and dataclasses recurse (dict keys sorted by their
    string form, so int-keyed block tables are stable); strings, bools,
    and everything else are skipped.  This is how every experiment's
    *actual* accuracy numbers — whatever their shape — become ledger
    score rows without per-experiment plumbing.
    """
    out: dict[str, float] = {}
    _flatten(value, prefix, out, 0)
    return out


def _flatten(
    value: object, prefix: str, out: dict[str, float], depth: int
) -> None:
    if len(out) >= _FLATTEN_MAX_ENTRIES or depth > _FLATTEN_MAX_DEPTH:
        return
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix or "value"] = float(value)
        return
    if isinstance(value, Mapping):
        for key in sorted(value, key=str):
            _flatten(
                value[key],
                f"{prefix}/{key}" if prefix else str(key),
                out,
                depth + 1,
            )
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(
                item,
                f"{prefix}/{index}" if prefix else str(index),
                out,
                depth + 1,
            )
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field_ in dataclasses.fields(value):
            if field_.name.startswith("_"):
                continue
            _flatten(
                getattr(value, field_.name),
                f"{prefix}/{field_.name}" if prefix else field_.name,
                out,
                depth + 1,
            )


def counter_values(
    snapshot: Optional[dict[str, dict]] = None
) -> dict[str, float]:
    """Flatten a metrics snapshot (or delta) into ``{name: value}``.

    Counters and gauges contribute their value; histograms contribute
    ``<name>.count`` and ``<name>.sum``.  With no argument, flattens
    the live process-global registry.
    """
    if snapshot is None:
        from repro.obs.metrics import metrics_snapshot

        snapshot = metrics_snapshot()
    out: dict[str, float] = {}
    for name in sorted(snapshot):
        state = snapshot[name]
        kind = state.get("type")
        if kind in ("counter", "gauge"):
            out[name] = float(state["value"])
        elif kind == "histogram":
            out[f"{name}.count"] = float(state["count"])
            out[f"{name}.sum"] = float(state["sum"])
    return out


# ----------------------------------------------------------------------
# Recording.


def record_run(
    kind: str,
    *,
    label: str = "",
    started_at: Optional[str] = None,
    jobs: int = 1,
    scores: Optional[Mapping[str, Mapping[str, float]]] = None,
    stages: Optional[Mapping[str, float]] = None,
    counters: Optional[Mapping[str, float]] = None,
    path: Optional[str] = None,
) -> Optional[int]:
    """Append one run (plus its score/stage/counter rows) atomically.

    Returns the new run id, or None when recording is disabled.  The
    whole append is a single ``BEGIN IMMEDIATE`` transaction, so two
    processes writing concurrently produce interleaved-but-complete
    runs, never a torn one.
    """
    if not ledger_enabled():
        return None
    fingerprint = environment_fingerprint()
    from repro import store

    connection = _connect(path)
    try:
        connection.execute("BEGIN IMMEDIATE")
        cursor = connection.execute(
            "INSERT INTO runs (started_at, kind, label, git_sha, python,"
            " platform, jobs, cache_enabled, schema_version, version)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                started_at or now_iso(),
                kind,
                label,
                fingerprint["git_sha"],
                fingerprint["python"],
                fingerprint["platform"],
                int(jobs),
                1 if store.enabled() else 0,
                SCHEMA_VERSION,
                fingerprint["version"],
            ),
        )
        run_id = int(cursor.lastrowid)
        if scores:
            connection.executemany(
                "INSERT INTO scores (run_id, experiment, metric, value)"
                " VALUES (?, ?, ?, ?)",
                [
                    (run_id, experiment, metric, float(value))
                    for experiment in sorted(scores)
                    for metric, value in sorted(
                        scores[experiment].items()
                    )
                ],
            )
        if stages:
            connection.executemany(
                "INSERT INTO stages (run_id, stage, seconds)"
                " VALUES (?, ?, ?)",
                [
                    (run_id, stage, float(seconds))
                    for stage, seconds in sorted(stages.items())
                ],
            )
        if counters:
            connection.executemany(
                "INSERT INTO counters (run_id, name, value)"
                " VALUES (?, ?, ?)",
                [
                    (run_id, name, float(value))
                    for name, value in sorted(counters.items())
                ],
            )
        connection.commit()
    except BaseException:
        connection.rollback()
        raise
    finally:
        connection.close()
    return run_id


# ----------------------------------------------------------------------
# Reading.


@dataclass(frozen=True)
class RunRow:
    """One ``runs`` table row."""

    id: int
    started_at: str
    kind: str
    label: str
    git_sha: str
    python: str
    platform: str
    jobs: int
    cache_enabled: bool
    #: ``repro.__version__`` of the process that recorded the run.
    version: str = ""
    #: Distinct experiments with score rows in this run.
    experiments: int = 0


@dataclass
class RunDetail:
    """One run with every associated row set."""

    row: RunRow
    scores: dict[str, dict[str, float]] = field(default_factory=dict)
    stages: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-able form (``repro history show --json``); usable as a
        ``repro compare --baseline`` file."""
        return {
            "format": SCHEMA_VERSION,
            "run": dataclasses.asdict(self.row),
            "scores": {
                experiment: dict(sorted(metrics.items()))
                for experiment, metrics in sorted(self.scores.items())
            },
            "stages": dict(sorted(self.stages.items())),
            "counters": dict(sorted(self.counters.items())),
        }


def _row_to_run(row: tuple) -> RunRow:
    return RunRow(
        id=int(row[0]),
        started_at=str(row[1]),
        kind=str(row[2]),
        label=str(row[3]),
        git_sha=str(row[4]),
        python=str(row[5]),
        platform=str(row[6]),
        jobs=int(row[7]),
        cache_enabled=bool(row[8]),
        version=str(row[9]),
        experiments=int(row[10]),
    )


_RUN_COLUMNS = (
    "r.id, r.started_at, r.kind, r.label, r.git_sha, r.python,"
    " r.platform, r.jobs, r.cache_enabled, r.version,"
    " (SELECT COUNT(DISTINCT experiment) FROM scores s"
    "  WHERE s.run_id = r.id)"
)


def list_runs(
    limit: Optional[int] = None,
    experiment: Optional[str] = None,
    path: Optional[str] = None,
) -> list[RunRow]:
    """Recorded runs, newest first; empty when no ledger exists yet.

    ``experiment`` restricts to runs holding score rows for it.
    """
    db_path = path or ledger_path()
    if not os.path.exists(db_path):
        return []
    connection = _connect(db_path)
    try:
        query = f"SELECT {_RUN_COLUMNS} FROM runs r"
        parameters: list[object] = []
        if experiment:
            query += (
                " WHERE EXISTS (SELECT 1 FROM scores s"
                " WHERE s.run_id = r.id AND s.experiment = ?)"
            )
            parameters.append(experiment)
        query += " ORDER BY r.id DESC"
        if limit is not None:
            query += " LIMIT ?"
            parameters.append(int(limit))
        return [
            _row_to_run(row)
            for row in connection.execute(query, parameters)
        ]
    finally:
        connection.close()


def resolve_run(ref: str, path: Optional[str] = None) -> RunRow:
    """Resolve a run reference to its row.

    Accepted forms: a numeric id, ``latest``, or ``latest~N`` (the Nth
    run before the newest).  Raises KeyError when nothing matches.
    """
    ref = ref.strip()
    runs = list_runs(path=path)
    if not runs:
        raise KeyError("the run ledger is empty (no runs recorded yet)")
    if ref.isdigit():
        wanted = int(ref)
        for run in runs:
            if run.id == wanted:
                return run
        raise KeyError(f"no run with id {wanted} in the ledger")
    if ref == "latest":
        return runs[0]
    if ref.startswith("latest~"):
        suffix = ref[len("latest~"):]
        if suffix.isdigit():
            offset = int(suffix)
            if offset < len(runs):
                return runs[offset]
            raise KeyError(
                f"{ref!r} is out of range (ledger holds "
                f"{len(runs)} runs)"
            )
    raise KeyError(
        f"bad run reference {ref!r} (use a run id, 'latest', or "
        f"'latest~N')"
    )


def run_detail(run: RunRow, path: Optional[str] = None) -> RunDetail:
    """Load a run's score, stage, and counter rows."""
    connection = _connect(path or ledger_path())
    try:
        detail = RunDetail(row=run)
        for experiment, metric, value in connection.execute(
            "SELECT experiment, metric, value FROM scores"
            " WHERE run_id = ? ORDER BY experiment, metric",
            (run.id,),
        ):
            detail.scores.setdefault(experiment, {})[metric] = value
        for stage, seconds in connection.execute(
            "SELECT stage, seconds FROM stages"
            " WHERE run_id = ? ORDER BY stage",
            (run.id,),
        ):
            detail.stages[stage] = seconds
        for name, value in connection.execute(
            "SELECT name, value FROM counters"
            " WHERE run_id = ? ORDER BY name",
            (run.id,),
        ):
            detail.counters[name] = value
        return detail
    finally:
        connection.close()


def ledger_info(path: Optional[str] = None) -> dict[str, object]:
    """Summary for ``repro cache info``: run/row counts, db bytes,
    oldest/newest run stamps."""
    db_path = path or ledger_path()
    info: dict[str, object] = {
        "directory": os.path.dirname(db_path),
        "path": db_path,
        "enabled": ledger_enabled(),
        "runs": 0,
        "score_rows": 0,
        "bytes": 0,
        "oldest_run": None,
        "newest_run": None,
    }
    if not os.path.exists(db_path):
        return info
    info["bytes"] = os.stat(db_path).st_size
    connection = _connect(db_path)
    try:
        info["runs"] = connection.execute(
            "SELECT COUNT(*) FROM runs"
        ).fetchone()[0]
        info["score_rows"] = connection.execute(
            "SELECT COUNT(*) FROM scores"
        ).fetchone()[0]
        oldest, newest = connection.execute(
            "SELECT MIN(started_at), MAX(started_at) FROM runs"
        ).fetchone()
        info["oldest_run"] = oldest
        info["newest_run"] = newest
    finally:
        connection.close()
    return info


def clear_ledger(path: Optional[str] = None) -> int:
    """Delete the ledger database; returns how many runs it held."""
    db_path = path or ledger_path()
    removed = 0
    if os.path.exists(db_path):
        connection = _connect(db_path)
        try:
            removed = connection.execute(
                "SELECT COUNT(*) FROM runs"
            ).fetchone()[0]
        finally:
            connection.close()
    for suffix in ("", "-journal", "-wal", "-shm"):
        try:
            os.unlink(db_path + suffix)
        except OSError:
            pass
    return removed


# ----------------------------------------------------------------------
# Comparison (``repro compare`` and the CI regression gate).


@dataclass(frozen=True)
class ScoreDelta:
    """One metric's movement between two runs."""

    experiment: str
    metric: str
    base: float
    candidate: float

    @property
    def delta(self) -> float:
        return self.candidate - self.base


@dataclass(frozen=True)
class StageDelta:
    """One stage's wall-time movement between two runs."""

    stage: str
    base: float
    candidate: float

    @property
    def delta(self) -> float:
        return self.candidate - self.base


@dataclass
class Comparison:
    """The result of comparing a candidate run against a base."""

    base_label: str
    candidate_label: str
    score_tol: float
    time_tol: float
    compared: int = 0
    #: Metrics whose |delta| exceeds ``score_tol`` (drifted).
    drifted: list[ScoreDelta] = field(default_factory=list)
    #: ``experiment/metric`` paths present in base, absent in candidate.
    missing: list[str] = field(default_factory=list)
    #: Experiments only the candidate has (informational).
    extra_experiments: list[str] = field(default_factory=list)
    #: Stages slower than base beyond ``time_tol`` (and the floor).
    slower_stages: list[StageDelta] = field(default_factory=list)
    #: All shared stages, for the delta table.
    stage_deltas: list[StageDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[str]:
        """Human messages, one per gate violation."""
        messages = [
            (
                f"score drift {item.experiment}/{item.metric}: "
                f"{item.base:.6g} -> {item.candidate:.6g} "
                f"(delta {item.delta:+.6g}, tol {self.score_tol:g})"
            )
            for item in self.drifted
        ]
        messages.extend(
            f"missing metric {path} (present in base, absent in "
            f"candidate)"
            for path in self.missing
        )
        messages.extend(
            (
                f"stage slowdown {item.stage}: {item.base:.3f}s -> "
                f"{item.candidate:.3f}s "
                f"(+{(item.candidate / item.base - 1) * 100:.0f}%, "
                f"tol {self.time_tol * 100:.0f}%)"
            )
            for item in self.slower_stages
        )
        return messages

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"compare {self.base_label} (base) -> "
            f"{self.candidate_label} (candidate)",
            f"  {self.compared} shared metrics, "
            f"{len(self.drifted)} beyond tolerance "
            f"(score tol {self.score_tol:g}), "
            f"{len(self.missing)} missing",
        ]
        if self.extra_experiments:
            lines.append(
                "  candidate-only experiments: "
                + ", ".join(self.extra_experiments)
            )
        for message in self.regressions[:50]:
            lines.append(f"  REGRESSION: {message}")
        hidden = len(self.regressions) - 50
        if hidden > 0:
            lines.append(f"  ... and {hidden} more regressions")
        if self.stage_deltas:
            lines.append("")
            lines.append(
                f"  {'stage':28} {'base':>9} {'candidate':>10} "
                f"{'delta':>9}"
            )
            for item in self.stage_deltas:
                lines.append(
                    f"  {item.stage:28} {item.base:8.3f}s "
                    f"{item.candidate:9.3f}s {item.delta:+8.3f}s"
                )
        lines.append("")
        lines.append(
            "result: OK (no drift beyond tolerance)"
            if self.ok
            else f"result: {len(self.regressions)} regression(s)"
        )
        return "\n".join(lines)


def compare_scores(
    base: Mapping[str, Mapping[str, float]],
    candidate: Mapping[str, Mapping[str, float]],
    score_tol: float = 1e-6,
    time_tol: float = 0.25,
    base_stages: Optional[Mapping[str, float]] = None,
    candidate_stages: Optional[Mapping[str, float]] = None,
    base_label: str = "base",
    candidate_label: str = "candidate",
) -> Comparison:
    """Compare two runs' score sets (and optionally stage times).

    Scores gate on *absolute drift in either direction* — the suite's
    metrics are deterministic, so any movement means the estimators,
    the suite, or the scoring changed.  Stage times gate upward only,
    beyond ``time_tol`` (relative) and :data:`TIME_NOISE_FLOOR`.
    """
    comparison = Comparison(
        base_label=base_label,
        candidate_label=candidate_label,
        score_tol=score_tol,
        time_tol=time_tol,
    )
    for experiment in sorted(base):
        candidate_metrics = candidate.get(experiment)
        if candidate_metrics is None:
            comparison.missing.append(experiment)
            continue
        for metric in sorted(base[experiment]):
            if metric not in candidate_metrics:
                comparison.missing.append(f"{experiment}/{metric}")
                continue
            comparison.compared += 1
            base_value = float(base[experiment][metric])
            candidate_value = float(candidate_metrics[metric])
            if abs(candidate_value - base_value) > score_tol:
                comparison.drifted.append(
                    ScoreDelta(
                        experiment, metric, base_value, candidate_value
                    )
                )
    comparison.extra_experiments = sorted(
        set(candidate) - set(base)
    )
    if base_stages and candidate_stages:
        for stage in sorted(base_stages):
            if stage not in candidate_stages:
                continue
            item = StageDelta(
                stage,
                float(base_stages[stage]),
                float(candidate_stages[stage]),
            )
            comparison.stage_deltas.append(item)
            if (
                item.base > 0.0
                and item.delta > TIME_NOISE_FLOOR
                and item.candidate > item.base * (1.0 + time_tol)
            ):
                comparison.slower_stages.append(item)
    return comparison


def load_baseline(path: str) -> dict[str, dict[str, float]]:
    """Read a baseline scores file (``baselines/scores.json``).

    Accepts either a bare ``{experiment: {metric: value}}`` mapping or
    a ``repro history show --json`` payload (uses its ``scores`` key).
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"baseline {path} is not a JSON object")
    scores = payload.get("scores", payload)
    if not isinstance(scores, dict):
        raise ValueError(f"baseline {path} has no usable 'scores' map")
    result: dict[str, dict[str, float]] = {}
    for experiment, metrics in scores.items():
        if not isinstance(metrics, dict):
            raise ValueError(
                f"baseline {path}: experiment {experiment!r} does not "
                f"map metrics to numbers"
            )
        result[str(experiment)] = {
            str(metric): float(value)
            for metric, value in metrics.items()
        }
    return result


def score_history(
    experiment: str,
    limit: Optional[int] = None,
    path: Optional[str] = None,
) -> list[tuple[RunRow, dict[str, float]]]:
    """``(run, metrics)`` for every run holding ``experiment`` scores,
    oldest first (the natural order for sparklines)."""
    runs = list_runs(limit=limit, experiment=experiment, path=path)
    return [
        (run, run_detail(run, path=path).scores.get(experiment, {}))
        for run in reversed(runs)
    ]


__all__ = [
    "Comparison",
    "RunDetail",
    "RunRow",
    "SCHEMA_VERSION",
    "ScoreDelta",
    "StageDelta",
    "TIME_NOISE_FLOOR",
    "clear_ledger",
    "compare_scores",
    "counter_values",
    "environment_fingerprint",
    "flatten_scalars",
    "git_sha",
    "ledger_dir",
    "ledger_enabled",
    "ledger_info",
    "ledger_path",
    "list_runs",
    "load_baseline",
    "now_iso",
    "record_run",
    "resolve_run",
    "run_detail",
    "score_history",
]
