"""One content-addressed store for every persistent artifact.

Profiles, analysis estimates, generated code, explanations and failing
fuzz cases all live under one root directory, each kind in its own
:class:`Namespace`:

    <root>/                    # REPRO_CACHE_DIR, default
        <key>.json             #   ~/.cache/repro/profiles: profiles
        analysis/<key>.json    # intra estimates, Markov invocations
        codegen/<key>.code     # marshal'd code object ...
        codegen/<key>.py       # ... and the generated source behind it
        attribution/<key>.json # explanations
        fuzz/<key>.c           # failing fuzz cases (+ .json, .min.c)

The run ledger (``ledger/``) and the metrics snapshot (``obs/``) live
under the same root but are not namespaces.

``<key>`` is :func:`content_key` over the parts each owning module
names (versions first, then source and input text), so an edit to any
of them misses exactly the entries it affects.  The owning modules
keep only their key parts, version constants, and encode/decode.

``REPRO_CACHE=0`` turns caching off; callers ask :func:`enabled`.  The
fuzz corpus ignores the switch: it records failures, it is not a
cache.

A load is one read, and any failure to read or decode the entry is a
miss.  A store writes each file to a sibling tempfile and renames it
into place (:func:`atomic_write`), so concurrent writers racing on one
key leave the bytes of one of them, and a concurrent reader sees a
whole entry or none.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Union

from repro.obs.metrics import incr

_FALSEY = {"0", "no", "off", "false", ""}


def enabled() -> bool:
    """Whether persistent caching is on (``REPRO_CACHE``)."""
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in _FALSEY


def root() -> str:
    """The store's root directory (not necessarily created yet)."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "profiles")


def content_key(*parts: str) -> str:
    """SHA-256 hex digest over length-prefixed ``parts``, so moving
    text from one part to the next never collides."""
    hasher = hashlib.sha256()
    for part in parts:
        encoded = part.encode("utf-8")
        hasher.update(str(len(encoded)).encode("ascii"))
        hasher.update(b":")
        hasher.update(encoded)
    return hasher.hexdigest()


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a sibling tempfile and one
    rename; the directory must exist."""
    fd, temp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)[:16]}-",
        suffix=".tmp",
        dir=os.path.dirname(path) or ".",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)
        raise


#: An entry's bytes, or ``{suffix: bytes}`` for an entry of several
#: files; likewise its decoder, or ``{suffix: decoder}`` tried in order.
Files = Union[bytes, Mapping[str, bytes]]
Decode = Union[Callable[[bytes], Any], Mapping[str, Callable[[bytes], Any]]]


@dataclass(frozen=True)
class Namespace:
    """One kind of entry: a subdirectory of the root (``""`` is the
    root itself), the suffixes of its entry files, and the prefix of
    its ``.hits``/``.misses``/``.stores``/``.bytes_*`` counters."""

    subdir: str
    suffixes: tuple[str, ...]
    counters: str
    #: Stays on under ``REPRO_CACHE=0`` (the fuzz corpus).
    always_on: bool = False

    @property
    def directory(self) -> str:
        return os.path.join(root(), self.subdir) if self.subdir else root()

    def _files(self, spec):
        """``{suffix: item}`` for a bare item (the first suffix) or a
        mapping (one item per entry file)."""
        return spec if isinstance(spec, Mapping) else {self.suffixes[0]: spec}

    def load(self, key: str, decode: Decode) -> Any:
        """The decoded entry for ``key``, or None on a miss.

        ``decode`` turns the entry file's bytes into the value; a
        ``{suffix: decode}`` mapping tries several files in order (the
        codegen blob, then its source).  An unreadable file or any
        exception from ``decode`` moves on to the next file; when none
        is left, the load is a miss and the next store overwrites it.
        """
        directory = self.directory
        for suffix, function in self._files(decode).items():
            path = os.path.join(directory, key + suffix)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                value = function(data)
            except Exception:
                # The bytes come from disk, where a crash, an older
                # format or a hand edit may have left anything; what
                # ``decode`` raises only says this file is unusable.
                continue
            incr(f"{self.counters}.hits")
            incr(f"{self.counters}.bytes_read", len(data))
            return value
        incr(f"{self.counters}.misses")
        return None

    def store(self, key: str, data: Files) -> None:
        """Atomically write the entry for ``key``: ``data`` is its
        bytes, or ``{suffix: bytes}`` for an entry of several files."""
        files = self._files(data)
        directory = self.directory
        os.makedirs(directory, exist_ok=True)
        for suffix, blob in files.items():
            atomic_write(os.path.join(directory, key + suffix), blob)
        incr(f"{self.counters}.stores")
        incr(
            f"{self.counters}.bytes_written", sum(map(len, files.values()))
        )

    def _paths(self, suffixes: tuple[str, ...]) -> list[tuple[str, str]]:
        """``(name, path)`` of every file in the directory ending in
        one of ``suffixes``."""
        directory = self.directory
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return [
            (name, os.path.join(directory, name))
            for name in names
            if name.endswith(suffixes)
        ]

    def info(self) -> dict[str, object]:
        """Directory, switch, entry count (keys, not files), total
        bytes, and the oldest/newest mtime (Unix seconds, None when
        empty) — one ``repro cache info`` block."""
        keys: set[str] = set()
        total_bytes = 0
        mtimes: list[float] = []
        for name, path in self._paths(self.suffixes):
            try:
                status = os.stat(path)
            except OSError:
                continue
            keys.add(name.split(".", 1)[0])
            total_bytes += status.st_size
            mtimes.append(status.st_mtime)
        return {
            "directory": self.directory,
            "enabled": self.always_on or enabled(),
            "entries": len(keys),
            "bytes": total_bytes,
            "oldest_mtime": min(mtimes, default=None),
            "newest_mtime": max(mtimes, default=None),
        }

    def clear(self) -> int:
        """Delete every entry file and leftover tempfile; returns how
        many files were removed."""
        removed = 0
        for _name, path in self._paths((*self.suffixes, ".tmp")):
            with contextlib.suppress(OSError):
                os.unlink(path)
                removed += 1
        return removed
