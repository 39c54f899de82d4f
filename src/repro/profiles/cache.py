"""Persistent on-disk profile cache.

Profiling is the expensive step every experiment shares: re-interpreting
the 14-program suite takes tens of seconds, and the CLI and the
pytest tier each used to pay it from scratch.  This
module stores one JSON file per (program source, input text) pair at
the root of the shared store (:mod:`repro.store`), so a source or input
edit invalidates exactly the entries it affects.

``<key>`` is a content hash over:

* the interpreter semantics version (:data:`repro.interp.INTERP_VERSION`),
* the serialization format version,
* the package version,
* the program's full C source text, and
* the input text.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

import repro
from repro.interp import INTERP_VERSION
from repro.profiles.profile import Profile
from repro.profiles.serialize import (
    PROFILE_FORMAT_VERSION,
    profile_from_dict,
    profile_to_dict,
)
from repro.store import Namespace, content_key, enabled

NAMESPACE = Namespace("", (".json",), "profile_cache")


def profile_cache_key(source: str, input_text: str) -> str:
    """Content hash identifying one (program, input) profile."""
    return content_key(
        f"interp={INTERP_VERSION}",
        f"format={PROFILE_FORMAT_VERSION}",
        f"package={repro.__version__}",
        source,
        input_text,
    )


def _decode(data: bytes) -> Profile:
    return profile_from_dict(json.loads(data))


def load_cached_profile(key: str) -> Optional[Profile]:
    """The cached profile for ``key``, or None on a miss (absent,
    unreadable, or not a profile of the current format)."""
    return NAMESPACE.load(key, _decode)


def store_profile(key: str, profile: Profile) -> None:
    """Atomically write ``profile`` under ``key``."""
    payload = json.dumps(profile_to_dict(profile), separators=(",", ":"))
    NAMESPACE.store(key, payload.encode("utf-8"))


def cached_profile_for_source(
    source: str,
    input_text: str,
    compute: "Callable[[], Profile]",
) -> Profile:
    """Profile for an arbitrary (source, input) pair, via the cache.

    ``compute`` interprets the program and returns its :class:`Profile`;
    it only runs on a miss (or with the cache disabled), and its result
    is stored for the next consumer.  This is the same content-hash
    keying the suite pipeline uses, so example programs (the strchr
    harness, figure 10's held-out compress run) share the cache with
    suite profiling.
    """
    if not enabled():
        return compute()
    key = profile_cache_key(source, input_text)
    cached = load_cached_profile(key)
    if cached is not None:
        return cached
    profile = compute()
    store_profile(key, profile)
    return profile
