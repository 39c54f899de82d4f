"""Persistent on-disk cache for computed attribution payloads.

An explanation is a pure function of (program source, evaluation
profiles, estimator, attribution semantics), so it caches exactly like
the analysis artifacts: one JSON file per entry in the
``attribution/`` namespace of :mod:`repro.store`, keyed by a SHA-256
content hash over

* the attribution semantics version (:data:`ATTRIBUTION_VERSION`) and
  the package version,
* the estimator name,
* the program's full C source text, and
* a digest of every evaluation profile (serialized form — profiles are
  byte-identical across backends and worker counts, so the key is
  backend- and jobs-invariant).
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Optional, Sequence, TypeVar

import repro
from repro.profiles.profile import Profile
from repro.profiles.serialize import dumps_profile
from repro.store import Namespace, content_key

#: Bump when attribution semantics change (record fields, sensitivity
#: math, accuracy protocol) so stale entries miss.
ATTRIBUTION_VERSION = 1

NAMESPACE = Namespace("attribution", (".json",), "attribution_cache")

T = TypeVar("T")


def attribution_cache_key(
    source: str, profiles: Sequence[Profile], estimator: str
) -> str:
    """Content hash identifying one (program, profiles, estimator)
    explanation."""
    return content_key(
        f"attribution={ATTRIBUTION_VERSION}",
        f"package={repro.__version__}",
        estimator,
        source,
        *(
            hashlib.sha256(dumps_profile(p).encode("utf-8")).hexdigest()
            for p in profiles
        ),
    )


def load_cached_explanation(
    key: str, decode: Callable[[dict], T]
) -> Optional[T]:
    """``decode`` of the cached JSON payload for ``key``, or None on a
    miss (absent, unreadable, or rejected by ``decode``)."""
    return NAMESPACE.load(key, lambda data: decode(json.loads(data)))


def store_explanation(key: str, payload: dict) -> None:
    """Atomically write the JSON object ``payload`` under ``key``."""
    encoded = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    NAMESPACE.store(key, encoded.encode("utf-8"))
