"""The compiled backend: machine subclass, linker, backend selection.

``CompiledMachine`` is a drop-in :class:`~repro.interp.machine.Machine`
whose ``call_user`` dispatches to generated closures (see
:mod:`repro.compile.lower`).  Everything else — memory, libc, argv
setup, startup initialization, the profile object — is inherited, so
compiled and interpreted frames interoperate freely on one machine:
functions the lowerer cannot compile simply keep taking the inherited
(interpreter) path, and libc callbacks such as ``qsort`` comparators
re-enter through the same virtual dispatch.

Linking is lazy and cached at three levels:

* per *call*: the first call to a function binds its factory (creating
  its profile sub-dicts at the same first-touch point the interpreter
  would — serialization preserves dict insertion order, so this is
  load-bearing for byte-identical profiles);
* per *process and program*: the generated module is exec'd once and
  memoized in a :class:`weakref.WeakKeyDictionary`;
* per *machine fleet*: the generated source and marshal'd code object
  persist in the content-addressed codegen cache
  (:mod:`repro.compile.cache`), so parallel workers and later runs
  skip lowering entirely.
"""

from __future__ import annotations

import os
from typing import Optional
from weakref import WeakKeyDictionary

from repro import store
from repro.frontend import ast_nodes as ast
from repro.frontend import ctypes as ct
from repro.interp.errors import InterpreterError
from repro.interp.machine import ExecutionResult, Machine
from repro.interp.values import AggregateValue
from repro.obs import incr, span
from repro.profiles.profile import Profile
from repro.program import Program

from repro.compile.cache import (
    codegen_cache_key,
    load_cached_code,
    store_code,
)

#: Recognized backend names, in documentation order.
BACKENDS = ("interp", "compiled")

#: The default execution backend.  The interpreter stays available as
#: the differential oracle (``--backend interp`` / ``REPRO_BACKEND``).
DEFAULT_BACKEND = "compiled"

_BACKEND_ENV = "REPRO_BACKEND"


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The backend to use: explicit argument > ``REPRO_BACKEND`` >
    :data:`DEFAULT_BACKEND`.  Raises ValueError on unknown names."""
    choice = explicit or os.environ.get(_BACKEND_ENV) or DEFAULT_BACKEND
    choice = choice.strip().lower()
    if choice not in BACKENDS:
        raise ValueError(
            f"unknown backend {choice!r} (expected one of "
            f"{', '.join(BACKENDS)})"
        )
    return choice


def machine_class(backend: Optional[str] = None):
    """The :class:`Machine` subclass implementing ``backend``."""
    return (
        CompiledMachine if resolve_backend(backend) == "compiled" else Machine
    )


def run_program_backend(
    program: Program,
    stdin: str = "",
    argv: tuple[str, ...] = (),
    fuel: int = 200_000_000,
    input_name: str = "",
    backend: Optional[str] = None,
) -> ExecutionResult:
    """Backend-aware counterpart of :func:`repro.interp.run_program`."""
    profile = Profile(program.name, input_name)
    machine = machine_class(backend)(
        program, stdin=stdin, argv=argv, fuel=fuel, profile=profile
    )
    return machine.run()


class _CompiledModule:
    """One program's exec'd generated module."""

    __slots__ = ("factories", "fallback", "node_index")

    def __init__(self, factories, fallback, node_index):
        self.factories = factories
        self.fallback = fallback
        self.node_index = node_index


_MODULE_MEMO: "WeakKeyDictionary[Program, _CompiledModule]" = (
    WeakKeyDictionary()
)


def _node_index(program: Program) -> dict[int, ast.Node]:
    index: dict[int, ast.Node] = {}
    for function in program.unit.functions:
        for node in function.walk():
            index[node.node_id] = node
    return index


def compile_program(program: Program) -> _CompiledModule:
    """Lower, compile, and exec ``program``'s generated module.

    Memoized per process; the codegen cache makes later processes (and
    later runs) skip lowering and parsing, loading the marshal'd code
    object instead.
    """
    module = _MODULE_MEMO.get(program)
    if module is not None:
        return module
    with span("compile.program", program=program.name):
        code = None
        cache_on = store.enabled()
        key = codegen_cache_key(program.source) if cache_on else ""
        if cache_on:
            code = load_cached_code(key)
        if code is None:
            from repro.compile.lower import lower_program

            with span("compile.lower", program=program.name):
                lowered = lower_program(program)
            incr("compile.source_bytes", len(lowered.source))
            code = compile(
                lowered.source,
                f"<repro-codegen {program.name}>",
                "exec",
            )
            if cache_on:
                store_code(key, lowered.source, code)
        namespace: dict[str, object] = {}
        exec(code, namespace)
        module = _CompiledModule(
            factories=namespace["FACTORIES"],
            fallback=namespace["FALLBACK"],
            node_index=_node_index(program),
        )
    incr("compile.functions", len(module.factories))
    incr("compile.fallback_functions", len(module.fallback))
    _MODULE_MEMO[program] = module
    return module


class CompiledMachine(Machine):
    """A machine whose user-function calls run generated code.

    Per-function fallback: functions absent from the generated module's
    ``FACTORIES`` (recorded in ``FALLBACK`` with the reason) take the
    inherited interpreter path, as does any call carrying an aggregate
    argument — the interpreter raises the exact diagnostic.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._closures: dict[str, object] = {}
        self._module: Optional[_CompiledModule] = None
        #: name -> (expected arg count, arity-exempt K&R style).
        self._arity: dict[str, tuple[int, bool]] = {}
        self._return_types: dict[str, ct.CType] = {}
        #: Aggregate arguments can only originate from interpreted
        #: frames; skip the per-call scan when nothing falls back.
        self._check_aggregates = True

    # -- dispatch ------------------------------------------------------

    def call_user(self, name, arguments, location):
        closure = self._closures.get(name)
        if closure is None:
            return self._call_slow(name, arguments, location)
        if self._depth >= self._max_call_depth:
            raise InterpreterError(
                f"call depth limit exceeded calling {name!r}", location
            )
        expected, lax = self._arity[name]
        if len(arguments) != expected and not lax:
            raise InterpreterError(
                f"{name} expects {expected} arguments, got "
                f"{len(arguments)}",
                location,
            )
        if self._check_aggregates:
            for value, _value_type in arguments:
                if isinstance(value, AggregateValue):
                    # Compiled functions only have scalar parameters;
                    # let the interpreter raise its exact error.
                    return super().call_user(name, arguments, location)
        self._depth += 1
        try:
            return closure(arguments), self._return_types[name]
        finally:
            self._depth -= 1

    def _call_slow(self, name, arguments, location):
        self._initialize()
        module = self._module
        if module is None:
            module = self._module = compile_program(self.program)
            self._check_aggregates = bool(module.fallback)
        factory = module.factories.get(name)
        if factory is None:
            # Fallback or undefined function: the interpreter supplies
            # the exact semantics (and the exact error for the latter).
            return super().call_user(name, arguments, location)
        # Bind at first call, not at link time: the factory preamble
        # touches this function's profile sub-dicts, and first-touch
        # order is what keeps profiles byte-identical.
        self._closures[name] = factory(self, module.node_index)
        definition = self._function_info[name].definition
        parameters = definition.ftype.parameters
        self._arity[name] = (
            len(parameters),
            definition.ftype.unspecified and not parameters,
        )
        self._return_types[name] = definition.ftype.return_type
        return self.call_user(name, arguments, location)

    # -- services for generated code ----------------------------------

    def compiled_builtin(self, name, arguments, call):
        """Builtin call entry point for generated closures; mirrors the
        builtin arm of ``execute_call`` (libc counter, call-site
        profile event, dispatch)."""
        from repro.interp.libc import call_builtin

        self._libc_calls += 1
        self.profile.record_call(call.node_id, name)
        return call_builtin(self, name, list(arguments), call)[0]
