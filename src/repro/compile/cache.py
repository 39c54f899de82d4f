"""Content-addressed codegen cache for the compiled backend.

Lowering a large program to Python and ``compile()``-ing it costs real
time (tens of milliseconds for suite programs, more for suite-XL
giants), and every worker process in the profiling fan-out would
otherwise pay it again.  This cache persists both artifacts per
program in the ``codegen/`` namespace of :mod:`repro.store`:

    <root>/codegen/
        <key>.code      # marshal of the compiled code object
        <key>.py        # the generated Python source (debuggable)

A load prefers the marshal blob (no recompile) and falls back to
compiling the stored source.

``<key>`` is a SHA-256 digest over the compile-scheme version
(:data:`repro.compile.COMPILE_VERSION`), the interpreter semantics
version (``INTERP_VERSION`` — lowering mirrors interpreter semantics,
so an interpreter change invalidates codegen too), the package
version, the Python marshal tag (``sys.implementation.cache_tag`` —
marshal blobs are interpreter-build specific), and the program's full
C source.  Bumping ``COMPILE_VERSION`` therefore invalidates stale
codegen exactly like ``INTERP_VERSION`` invalidates stale profiles.
"""

from __future__ import annotations

import marshal
import sys
import types
from typing import Optional

import repro
from repro.interp import INTERP_VERSION
from repro.store import Namespace, content_key

NAMESPACE = Namespace("codegen", (".code", ".py"), "compile.cache")


def codegen_cache_key(source: str) -> str:
    """Content hash identifying one program's generated code."""
    from repro.compile import COMPILE_VERSION

    return content_key(
        f"compile={COMPILE_VERSION}",
        f"interp={INTERP_VERSION}",
        f"package={repro.__version__}",
        f"pytag={sys.implementation.cache_tag}",
        source,
    )


def _unmarshal(blob: bytes) -> types.CodeType:
    code = marshal.loads(blob)
    if not isinstance(code, types.CodeType):
        raise ValueError("not a code object")
    return code


def load_cached_code(key: str) -> Optional[types.CodeType]:
    """The cached code object for ``key``, or None on a miss."""
    return NAMESPACE.load(
        key,
        {
            ".code": _unmarshal,
            ".py": lambda source: compile(
                source, f"<repro-codegen {key[:16]}>", "exec"
            ),
        },
    )


def store_code(key: str, source: str, code: types.CodeType) -> None:
    """Atomically persist generated source + marshal'd code object."""
    NAMESPACE.store(
        key, {".py": source.encode("utf-8"), ".code": marshal.dumps(code)}
    )
