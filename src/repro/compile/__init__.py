"""The compiled execution backend.

This package lowers the interpreter's flattened block plans (see
:func:`repro.interp.machine.block_plan`) to generated Python source —
one closure per C function, dispatch-free code with profile counters as
plain dict increments and register-allocated scalars as Python locals —
then ``compile()``s and caches the result in a content-addressed
codegen cache alongside the profile and analysis caches.

The contract is *byte-identical profiles*: a compiled run must produce
exactly the same :class:`~repro.profiles.profile.Profile` (including
dict insertion order, which the serializer preserves), the same stdout,
and the same exit status as the interpreter.  Functions using
constructs the lowerer does not handle (struct-by-value, mixed-type
ternaries, statically-detectable faults) fall back to the interpreter
per function; both kinds of frame interoperate through the machine's
shared ``call_user`` dispatch, memory, and libc.

See DESIGN.md §12 for the lowering strategy and the parity argument.
"""

from __future__ import annotations

#: Version of the lowering scheme.  Bump whenever generated code for
#: the same source would change (new lowering rules, changed runtime
#: helpers, changed factory protocol) or when stored code may be wrong;
#: stale codegen cache entries are invalidated exactly like
#: ``INTERP_VERSION`` invalidates profiles.
COMPILE_VERSION = 2

from repro.compile.backend import (  # noqa: E402
    BACKENDS,
    DEFAULT_BACKEND,
    CompiledMachine,
    compile_program,
    machine_class,
    resolve_backend,
    run_program_backend,
)

__all__ = [
    "BACKENDS",
    "COMPILE_VERSION",
    "DEFAULT_BACKEND",
    "CompiledMachine",
    "compile_program",
    "machine_class",
    "resolve_backend",
    "run_program_backend",
]
