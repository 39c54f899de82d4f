"""Per-layer numbers from the tracing bootstrap's span files.

A layer's self time is the duration of its spans minus the part of
each span's interval its child spans cover.  Within one request tree
(serve) or one CLI main process, self times never overlap, so they add
up: the per-layer self times plus an explicit ``unattributed`` row
equal the traced end-to-end time.  Spans in forked worker processes run
in parallel with the parent's waiting span, so they feed the per-layer
metrics but not the conservation table.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field

#: Layers in pipeline order; every conservation table lists each one.
LAYERS = (
    "cli", "frontend", "cfg", "callgraph", "prediction", "estimators",
    "linalg", "analysis", "serve", "obs", "compile", "interp",
    "profiles", "suite", "experiments",
)

ID, PARENT, NAME, START, END, OK, COUNT = range(7)


@dataclass
class Process:
    pid: int
    main: bool
    spans: list
    startup_s: float = 0.0
    #: Span id -> self time in seconds.
    self_s: dict = field(init=False)

    def __post_init__(self) -> None:
        children = defaultdict(list)
        for span in self.spans:
            children[span[PARENT]].append(span)
        self.children = children
        self.self_s = {span[ID]: _self_time(span, children[span[ID]]) for span in self.spans}

    def tree(self, root: list) -> list:
        """``root`` and all its descendants."""
        found, stack = [], [root]
        while stack:
            span = stack.pop()
            found.append(span)
            stack.extend(self.children[span[ID]])
        return found


def _self_time(span: list, children: list) -> float:
    covered, reach = 0.0, span[START]
    for child in sorted(children, key=lambda c: c[START]):
        begin = max(child[START], reach)
        end = min(child[END], span[END])
        if end > begin:
            covered += end - begin
            reach = end
    return span[END] - span[START] - covered


def load(work_dir: str) -> list[Process]:
    """Every process's spans under ``work_dir`` (one cache dir per
    traced daemon or CLI run)."""
    processes = []
    for path in sorted(glob.glob(os.path.join(work_dir, "*", "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        processes.append(
            Process(data["pid"], data["main"], data["spans"], data.get("startup_s", 0.0))
        )
    return processes


@dataclass
class Totals:
    """Sums over a set of spans, keyed by span name."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    self_ms: dict = field(default_factory=lambda: defaultdict(float))
    wall_ms: dict = field(default_factory=lambda: defaultdict(float))
    errors: dict = field(default_factory=lambda: defaultdict(int))
    #: Wall time of the spans whose count is nonzero (pool misses ...).
    counted_wall_ms: dict = field(default_factory=lambda: defaultdict(float))

    def add(self, process: Process, spans) -> None:
        for span in spans:
            name = span[NAME]
            self.calls[name] += 1
            self.counts[name] += span[COUNT]
            self.self_ms[name] += process.self_s[span[ID]] * 1000.0
            self.wall_ms[name] += (span[END] - span[START]) * 1000.0
            if not span[OK]:
                self.errors[name] += 1
            if span[COUNT]:
                self.counted_wall_ms[name] += (span[END] - span[START]) * 1000.0

    def layer_self_ms(self) -> dict[str, float]:
        rows = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_ms.items():
            rows[name.split(".", 1)[0]] += value
        return rows


def conservation(rows: dict[str, float], e2e_ms: float) -> dict[str, float]:
    """``self.<layer>_ms`` rows plus ``unattributed``; they sum to
    ``trace.e2e_ms`` by construction, and the unattributed share says
    how much of it no wrapped layer explains."""
    table = {f"self.{layer}_ms": rows[layer] for layer in LAYERS}
    unattributed = e2e_ms - sum(rows.values())
    table["self.unattributed_ms"] = unattributed
    table["trace.e2e_ms"] = e2e_ms
    table["trace.unattributed_share"] = unattributed / e2e_ms if e2e_ms else 0.0
    return table


def common_metrics(totals: Totals) -> dict[str, float]:
    """The analysis-path metrics every workload reports."""
    t = totals
    return {
        "frontend.preprocess_ms": t.self_ms["frontend.preprocess"],
        "frontend.lex_ms": t.self_ms["frontend.lex"],
        "frontend.parse_ms": t.self_ms["frontend.parse"],
        "frontend.tokens": t.counts["frontend.lex"],
        "frontend.rejects": t.errors["frontend.parse"] + t.errors["frontend.preprocess"],
        "cfg.build_ms": t.self_ms["cfg.build"],
        "cfg.blocks": t.counts["cfg.build"],
        "callgraph.build_ms": t.self_ms["callgraph.build"],
        "callgraph.sites": t.counts["callgraph.build"],
        "prediction.transitions_ms": sum(
            t.self_ms[name] for name in ("prediction.predict", "prediction.transitions", "prediction.settings")
        ),
        "prediction.branches": t.calls["prediction.predict"],
        "estimators.intra_ms": t.self_ms["estimators.intra"],
        "estimators.inter_ms": t.self_ms["estimators.inter"],
        "estimators.callsites_ms": t.self_ms["estimators.callsites"],
        "linalg.solves": t.calls["linalg.solve"],
        "linalg.solve_ms": t.self_ms["linalg.solve"],
        "analysis.disk_stores": t.calls["analysis.disk_store"],
        "analysis.disk_store_ms": t.self_ms["analysis.disk_store"],
        "analysis.disk_hits": t.counts["analysis.disk_load"],
        "analysis.disk_load_ms": t.self_ms["analysis.disk_load"],
    }


def serve_window(processes: list[Process], begin: float, end: float) -> Totals:
    """Totals over the request trees whose ``serve.handle`` span starts
    inside the client's timed window (one host clock for both sides)."""
    totals = Totals()
    for process in processes:
        for span in process.spans:
            if span[NAME] == "serve.handle" and begin <= span[START] <= end:
                totals.add(process, process.tree(span))
    return totals


def cli_totals(processes: list[Process]) -> tuple[Totals, Totals, float]:
    """``(main-process totals, all-process totals, startup seconds)``."""
    main, every = Totals(), Totals()
    startup = 0.0
    for process in processes:
        every.add(process, process.spans)
        if process.main:
            main.add(process, process.spans)
            startup += process.startup_s
    return main, every, startup


def worker_busy_share(processes: list[Process], jobs: int) -> float:
    """Busy time of forked workers inside the ``suite.collect`` windows
    that fanned out, over ``jobs`` times those windows' wall time."""
    windows = [
        (span[START], span[END])
        for process in processes
        if process.main
        for span in process.spans
        if span[NAME] == "suite.collect"
    ]
    busy = [0.0] * len(windows)
    for process in processes:
        if process.main:
            continue
        for span in process.spans:
            for index, (begin, end) in enumerate(windows):
                if span[PARENT] == 0 and begin <= span[START] <= end:
                    busy[index] += span[END] - span[START]
    capacity = jobs * sum(end - begin for (begin, end), used in zip(windows, busy) if used)
    return sum(busy) / capacity if capacity else 0.0
