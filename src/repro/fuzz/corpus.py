"""Persistent on-disk corpus of failing/interesting fuzz cases.

Each case lives in the ``fuzz/`` namespace of :mod:`repro.store` under
the SHA-256 hex digest of its source text, as a ``<key>.c`` source
file next to a ``<key>.json`` metadata record (seed, generator
version, failing oracles, how it got here).  Shrunk reductions land
beside the original as ``<key>.min.c``.

Layout::

    <root>/fuzz/
        <key>.c         # the case source (the key is sha256(source))
        <key>.json      # metadata: seed, oracles, origin, versions
        <key>.min.c     # optional: the delta-debugged reduction

The corpus records failures rather than caching results, so it stays
on under ``REPRO_CACHE=0``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro.obs import incr
from repro.store import Namespace

NAMESPACE = Namespace("fuzz", (".c", ".json"), "fuzz.corpus", always_on=True)


def case_key(source: str) -> str:
    """Content hash identifying one case (sha256 of the source)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def save_case(source: str, metadata: Optional[dict] = None) -> str:
    """Store one case; returns its content-address key.

    ``metadata`` is JSON-serializable extra context (seed, failing
    oracles, origin); the source hash and byte count are added.
    """
    key = case_key(source)
    record = dict(metadata or {})
    record.setdefault("key", key)
    record.setdefault("bytes", len(source.encode("utf-8")))
    record.setdefault("lines", source.count("\n"))
    NAMESPACE.store(
        key,
        {
            ".c": source.encode("utf-8"),
            ".json": (
                json.dumps(record, sort_keys=True, indent=2) + "\n"
            ).encode("utf-8"),
        },
    )
    incr("fuzz.corpus.saves")
    return key


def save_reduction(key: str, reduced_source: str) -> str:
    """Store the shrunk form of an existing case; returns its path."""
    NAMESPACE.store(key, {".min.c": reduced_source.encode("utf-8")})
    return os.path.join(NAMESPACE.directory, f"{key}.min.c")


def resolve_case(reference: str) -> tuple[str, str]:
    """Resolve a case reference to ``(key, source)``.

    ``reference`` may be a full key, a unique key prefix, or a path to
    a ``.c`` file (inside or outside the corpus).  Raises ``KeyError``
    for unknown or ambiguous references, ``OSError`` for unreadable
    paths.
    """
    directory = NAMESPACE.directory
    if reference.endswith(".c") or os.path.sep in reference:
        with open(reference, encoding="utf-8") as handle:
            source = handle.read()
        return case_key(source), source
    matches = [
        key for key in _case_keys(directory) if key.startswith(reference)
    ]
    if not matches:
        raise KeyError(
            f"no corpus case matches {reference!r} in {directory}"
        )
    if len(matches) > 1:
        raise KeyError(
            f"ambiguous case reference {reference!r}: "
            f"{', '.join(key[:16] for key in matches)}"
        )
    with open(
        os.path.join(directory, f"{matches[0]}.c"), encoding="utf-8"
    ) as handle:
        return matches[0], handle.read()


def _case_keys(directory: str) -> list[str]:
    """Keys of every case source in ``directory``, sorted."""
    if not os.path.isdir(directory):
        return []
    return [
        name[: -len(".c")]
        for name in sorted(os.listdir(directory))
        if name.endswith(".c") and not name.endswith(".min.c")
    ]


def load_metadata(key: str) -> Optional[dict]:
    """The metadata record of one case, or None if absent/unreadable."""
    path = os.path.join(NAMESPACE.directory, f"{key}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def list_cases() -> list[dict]:
    """All corpus cases, sorted by key, with their metadata."""
    directory = NAMESPACE.directory
    cases = []
    for key in _case_keys(directory):
        record = load_metadata(key) or {"key": key}
        record["has_reduction"] = os.path.exists(
            os.path.join(directory, f"{key}.min.c")
        )
        cases.append(record)
    return cases
