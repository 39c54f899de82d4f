"""Persistent on-disk cache for computed analysis artifacts.

The in-process :class:`~repro.analysis.session.AnalysisSession` memo
makes each analysis free after its first computation *within* a
process; this layer extends that across processes — parallel experiment
workers, repeated CLI invocations, the pytest tier, and the benchmark
harness all share one store, exactly as they share the profile cache.

Entries live in the ``analysis/`` namespace of :mod:`repro.store`, one
JSON file each, keyed by a SHA-256 content hash over

* the analysis semantics version (:data:`ANALYSIS_VERSION` — bump when
  a heuristic, CFG construction, or solver change invalidates stored
  estimates),
* the package version,
* the artifact kind and estimator name (e.g. ``intra`` + ``markov`` or
  ``inter`` + ``markov:smart``), and
* the program's full C source text (analysis inputs are derived from
  the source deterministically, so the source hash covers the CFGs,
  the call graph, and the heuristic settings).
"""

from __future__ import annotations

import json
from typing import Callable, Optional, TypeVar

import repro
from repro.store import Namespace, content_key

#: Bump when analysis semantics change (heuristics, CFG construction,
#: estimator algorithms, solver behavior) so stale entries miss.
ANALYSIS_VERSION = 1

NAMESPACE = Namespace("analysis", (".json",), "analysis_cache")

T = TypeVar("T")


def analysis_cache_key(source: str, kind: str, estimator: str) -> str:
    """Content hash identifying one (program, artifact) analysis."""
    return content_key(
        f"analysis={ANALYSIS_VERSION}",
        f"package={repro.__version__}",
        kind,
        estimator,
        source,
    )


def load_cached_analysis(
    key: str, decode: Callable[[dict], T]
) -> Optional[T]:
    """``decode`` of the cached JSON payload for ``key``, or None on a
    miss (absent, unreadable, or rejected by ``decode``)."""
    return NAMESPACE.load(key, lambda data: decode(json.loads(data)))


def store_analysis(key: str, payload: dict) -> None:
    """Atomically write the JSON object ``payload`` under ``key``."""
    encoded = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    NAMESPACE.store(key, encoded.encode("utf-8"))


def encode_intra(estimates: dict[str, dict[int, float]]) -> dict:
    """Intra estimates as a JSON payload (block ids become strings)."""
    return {
        "functions": {
            name: {str(block): value for block, value in blocks.items()}
            for name, blocks in estimates.items()
        }
    }


def decode_intra(payload: dict) -> dict[str, dict[int, float]]:
    """Inverse of :func:`encode_intra`; raises on a wrong shape."""
    return {
        name: {int(block): float(value) for block, value in blocks.items()}
        for name, blocks in payload["functions"].items()
    }


def decode_invocations(payload: dict) -> dict[str, float]:
    """Markov invocations from their ``{"invocations": ...}`` payload;
    raises on a wrong shape."""
    return {
        name: float(value) for name, value in payload["invocations"].items()
    }
