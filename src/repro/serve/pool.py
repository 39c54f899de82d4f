"""Sharded in-memory :class:`AnalysisSession` pool for the daemon.

The serving hot path is "the same source again": editor integrations
and CI bots re-submit identical translation units far more often than
novel ones.  The pool keeps fully warmed sessions (parsed program,
memoized predictor/transitions/estimates) in memory keyed by content
hash, in front of the existing on-disk profile/analysis/codegen
caches, so a repeat source costs a dict probe instead of a re-parse
and re-solve.

Design:

* **Shard-per-lock** — the key space is split across N shards, each an
  LRU ``OrderedDict`` behind its own mutex, so concurrent requests for
  different sources never serialize on one lock.
* **Memory budget** — every entry is charged an estimate of the memory
  its session retains once a report is built:
  :data:`RETAINED_BYTES_PER_NODE` times the program's AST node count
  (one ``walk()`` at insert).  Retained memory tracks nodes, not source
  bytes: bytes per source byte range from 34 on the suite to over 200
  on dense expression code, bytes per node stay within a factor of
  two (``tests/test_serve.py`` checks the constant with tracemalloc).
  Each shard evicts least-recently-used entries once it exceeds its
  slice of the budget; a session that alone exceeds a slice is served
  unpooled.
* **Freed by reference counting** — a session and its program form a
  cycle (:meth:`AnalysisSession.of`), so the pool
  :meth:`~AnalysisSession.detach`\\ es every session it drops (evicted,
  cleared, or the loser of an insert race), outside the shard lock.
  Nothing the pool lets go of waits for a full cyclic collection, and
  the pooled heap holds no garbage for one to find.  A request still
  reporting on an evicted session keeps a working session; registry
  code paths then re-derive its memo on a fresh one.
* **Miss races are benign** — two threads missing the same key both
  parse; the second insert finds the first and adopts it (counted as
  ``serve.pool.races``), so a key never holds two live sessions.

Counters: ``serve.pool.hits`` / ``misses`` / ``evictions`` /
``races``; gauges ``serve.pool.entries`` / ``serve.pool.bytes`` (the
retained-memory estimate).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.analysis.session import AnalysisSession
from repro.obs import current_span, incr, set_gauge, span
from repro.program import Program
from repro.serve.report import content_hash

#: Defaults: 64 MiB of retained memory across 8 shards.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024
DEFAULT_SHARDS = 8

#: Memory a pooled session retains per AST node once its default report
#: is built (tracemalloc: 210-370 bytes across the suite, suite XL and
#: dense expression code).
RETAINED_BYTES_PER_NODE = 300


@dataclass
class _Entry:
    session: AnalysisSession
    cost: int


class _Shard:
    __slots__ = ("lock", "entries", "bytes")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[str, _Entry] = OrderedDict()
        self.bytes = 0


class SessionPool:
    """Content-addressed, sharded, memory-budgeted session cache."""

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        shards: int = DEFAULT_SHARDS,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be at least 1")
        self.max_bytes = max_bytes
        self._shards = [_Shard() for _ in range(shards)]
        self._shard_budget = max(1, max_bytes // shards)

    def shard_index(self, key: str) -> int:
        """Which shard serves ``key`` (stable; span attribute)."""
        return int(key[:8], 16) % len(self._shards)

    def _shard_for(self, key: str) -> _Shard:
        return self._shards[self.shard_index(key)]

    def get(self, source: str, name: str) -> tuple[AnalysisSession, bool]:
        """The pooled session for ``source`` — ``(session, was_hit)``.

        A hit refreshes the entry's recency; a miss parses the source
        (outside the shard lock, so other keys keep flowing), inserts
        the new session, and evicts LRU entries past the budget.  The
        serving shard index lands on the caller's current span, so
        request traces show which lock the request contended on.
        """
        key = content_hash(source)
        current_span().set(pool_shard=self.shard_index(key))
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is not None:
                shard.entries.move_to_end(key)
                incr("serve.pool.hits")
                return entry.session, True
        incr("serve.pool.misses")
        with span("serve.parse", program=name):
            program = Program.from_source(source, name)
        session = AnalysisSession.of(program)
        cost = RETAINED_BYTES_PER_NODE * sum(1 for _ in program.unit.walk())
        if cost > self._shard_budget:
            # Pooling it would evict the whole shard and still overrun
            # the budget.  It stays attached to its program, since the
            # report reaches it through registry code paths too, so the
            # collector frees it after the request.
            return session, False
        dropped: list[AnalysisSession] = []
        with shard.lock:
            racing = shard.entries.get(key)
            if racing is not None:
                # Another thread parsed the same source first; adopt
                # its session so per-key memoization stays single.
                shard.entries.move_to_end(key)
                incr("serve.pool.races")
                dropped.append(session)
                session = racing.session
            else:
                shard.entries[key] = _Entry(session, cost)
                shard.bytes += cost
                while shard.bytes > self._shard_budget:
                    _, evicted = shard.entries.popitem(last=False)
                    shard.bytes -= evicted.cost
                    dropped.append(evicted.session)
                    incr("serve.pool.evictions")
        _release(dropped)
        self._publish_gauges()
        return session, False

    def peek(self, source: str) -> bool:
        """Whether ``source`` is pooled (no recency update)."""
        key = content_hash(source)
        shard = self._shard_for(key)
        with shard.lock:
            return key in shard.entries

    def stats(self) -> dict[str, int]:
        """Point-in-time totals across all shards."""
        entries = 0
        total = 0
        for shard in self._shards:
            with shard.lock:
                entries += len(shard.entries)
                total += shard.bytes
        return {
            "entries": entries,
            "bytes": total,
            "shards": len(self._shards),
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        dropped: list[AnalysisSession] = []
        for shard in self._shards:
            with shard.lock:
                dropped.extend(
                    entry.session for entry in shard.entries.values()
                )
                shard.entries.clear()
                shard.bytes = 0
        _release(dropped)
        self._publish_gauges()
        return len(dropped)

    def _publish_gauges(self) -> None:
        stats = self.stats()
        set_gauge("serve.pool.entries", stats["entries"])
        set_gauge("serve.pool.bytes", stats["bytes"])


def _release(sessions: list[AnalysisSession]) -> None:
    """Detach dropped sessions so each frees when its last user lets
    go; called with no shard lock held, since freeing a large session
    takes milliseconds."""
    for session in sessions:
        session.detach()
