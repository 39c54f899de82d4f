"""Exporters: JSONL traces, the span-tree report, stats persistence.

Three surfaces:

* **JSONL trace** — one object per span, pre-order, with ``id`` and
  ``parent`` fields assigned deterministically by the walk, written to
  ``REPRO_TRACE_FILE`` (default ``repro-trace.jsonl``).  Merged worker
  spans are already in the tree by the time a trace is written, so a
  parallel run exports one coherent file.
* **Span-tree report** (``repro trace``) — the JSONL read back and
  rendered as an indented tree; identically named siblings collapse
  into one line with a count, so 56 interpreter runs read as one row.
* **Stats snapshot** (``repro stats``) — the metrics registry is
  persisted at the end of each CLI command (under the profile cache
  directory, or ``REPRO_STATS_FILE``) and re-read by ``repro stats``,
  which is how counters survive between processes.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.obs.metrics import metrics_snapshot
from repro.obs.trace import Span, trace_roots


def default_trace_path() -> str:
    """Where ``--trace`` writes and ``repro trace`` reads by default."""
    return os.environ.get("REPRO_TRACE_FILE") or "repro-trace.jsonl"


def write_trace_jsonl(
    path: Optional[str] = None, roots: Optional[list[Span]] = None
) -> tuple[str, int]:
    """Write the trace as JSONL; returns ``(path, spans written)``.

    Ids are assigned by a pre-order walk, so two runs producing the
    same span tree produce byte-identical structure apart from times.
    """
    path = path or default_trace_path()
    roots = roots if roots is not None else trace_roots()
    lines: list[str] = []
    next_id = 0

    def emit(span_: Span, parent: Optional[int]) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record = {
            "id": span_id,
            "parent": parent,
            "name": span_.name,
            "start": round(span_.start, 6),
            "seconds": round(span_.seconds, 6),
        }
        if span_.attrs:
            record["attrs"] = span_.attrs
        lines.append(json.dumps(record, sort_keys=True))
        for child in span_.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))
    return path, next_id


def read_trace_jsonl(path: str) -> list[Span]:
    """Rebuild the span trees from a JSONL trace file."""
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            span_ = Span(
                str(record["name"]), dict(record.get("attrs", {}))
            )
            span_.start = float(record.get("start", 0.0))
            span_.seconds = float(record.get("seconds", 0.0))
            by_id[int(record["id"])] = span_
            parent = record.get("parent")
            if parent is None:
                roots.append(span_)
            else:
                by_id[int(parent)].children.append(span_)
    return roots


def render_span_tree(
    roots: list[Span], full: bool = False, min_seconds: float = 0.0
) -> str:
    """Indented tree report of a trace.

    By default identically named siblings are aggregated (count and
    total seconds); ``full`` lists every span individually with its
    attributes.  ``min_seconds`` prunes aggregated rows cheaper than
    the threshold.
    """
    lines: list[str] = []

    def describe_attrs(attrs: dict) -> str:
        if not attrs:
            return ""
        inner = ", ".join(
            f"{key}={value}" for key, value in sorted(attrs.items())
        )
        return f"  [{inner}]"

    def walk_full(span_: Span, depth: int) -> None:
        lines.append(
            f"{'  ' * depth}{span_.name:<{max(1, 40 - 2 * depth)}} "
            f"{span_.seconds * 1000:9.2f} ms{describe_attrs(span_.attrs)}"
        )
        for child in span_.children:
            walk_full(child, depth + 1)

    def walk_grouped(spans: list[Span], depth: int) -> None:
        groups: dict[str, list[Span]] = {}
        for span_ in spans:
            groups.setdefault(span_.name, []).append(span_)
        for name, members in groups.items():
            total = sum(member.seconds for member in members)
            if total < min_seconds and depth > 0:
                continue
            count = f" x{len(members)}" if len(members) > 1 else ""
            lines.append(
                f"{'  ' * depth}{name + count:<{max(1, 44 - 2 * depth)}}"
                f" {total * 1000:9.2f} ms"
            )
            walk_grouped(
                [
                    child
                    for member in members
                    for child in member.children
                ],
                depth + 1,
            )

    if full:
        for root in roots:
            walk_full(root, 0)
    else:
        walk_grouped(roots, 0)
    return "\n".join(lines) if lines else "(empty trace)"


# ----------------------------------------------------------------------
# Stats persistence (the cross-process surface behind ``repro stats``).


def stats_file_path() -> str:
    """Where the end-of-command metrics snapshot lives.

    An ``obs/`` subdirectory of the store's root keeps the snapshot
    out of every namespace's entry accounting (``repro cache info``).
    """
    explicit = os.environ.get("REPRO_STATS_FILE")
    if explicit:
        return explicit
    from repro import store

    return os.path.join(store.root(), "obs", "stats.json")


def write_stats(path: Optional[str] = None) -> Optional[str]:
    """Persist the current metrics snapshot; returns the path written,
    or None when there is nothing to record.  The write is atomic, so a
    concurrent ``repro stats`` reads the old snapshot or the new one."""
    from repro.store import atomic_write

    snapshot = metrics_snapshot()
    if not snapshot:
        return None
    path = path or stats_file_path()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"))
    return path


def read_stats(path: Optional[str] = None) -> Optional[dict[str, dict]]:
    """The last persisted metrics snapshot, or None if absent/bad."""
    path = path or stats_file_path()
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None
