"""The CFG interpreter ("machine") with profiling instrumentation.

The machine executes the *same* CFGs the static estimators analyse, so
the profile it produces is exact ground truth for every quantity the
paper measures: block counts, arc counts, branch outcomes, function
entries, and call-site frequencies.

Execution model: a call allocates a stack frame (parameters + all the
function's locals), then walks basic blocks from the CFG entry,
executing each block's statements and evaluating its terminator to pick
the successor.  ``return`` unwinds the frame; ``exit``/``abort`` raise
:class:`~repro.interp.errors.ProgramExit` through all frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional
from weakref import WeakKeyDictionary

from repro.cfg.block import (
    CondBranch,
    Jump,
    ReturnTerm,
    SwitchBranch,
)
from repro.frontend import ast_nodes as ast
from repro.frontend import ctypes as ct
from repro.frontend.errors import SourceLocation
from repro.interp.errors import (
    FuelExhausted,
    InterpreterError,
    ProgramExit,
)
from repro.interp.evaluator import Evaluator
from repro.interp.memory import Memory
from repro.obs import incr, span
from repro.interp.values import AggregateValue, convert
from repro.profiles.profile import BranchOutcome, Profile
from repro.program import Program


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    status: int
    stdout: str
    profile: Profile
    blocks_executed: int
    aborted: bool = False


@dataclass
class _Frame:
    function_name: str
    variables: dict[str, tuple[int, ct.CType]]
    stack_mark: int


@dataclass
class _FunctionInfo:
    """Per-function data computed once and cached."""

    definition: ast.FunctionDef
    local_declarations: list[ast.Declaration] = field(default_factory=list)
    static_declarations: list[ast.Declaration] = field(default_factory=list)
    #: Lazily built on first call: (parameter entries, local entries)
    #: with sizes precomputed — see :meth:`Machine.call_user`.
    call_plan: Optional[
        tuple[
            tuple[tuple[str, ct.CType, int, bool], ...],
            tuple[tuple[str, ct.CType, int], ...],
        ]
    ] = None


# Block-plan terminator kinds (element [1] of a block plan tuple).
_KIND_JUMP = 0
_KIND_COND = 1
_KIND_SWITCH = 2
_KIND_RETURN = 3

# Statement opcodes within a block plan.
_STMT_EXPR = 0
_STMT_DECL = 1

#: Per-program execution plans, shared by every Machine interpreting
#: the same (memoized) Program.  The plan flattens each basic block
#: into ``(statements, kind, a, b, c)`` tuples so the hot loop does no
#: isinstance dispatch and no repeated CFG lookups.
_PLAN_CACHE: "WeakKeyDictionary[Program, dict[str, tuple[dict, int]]]" = (
    WeakKeyDictionary()
)


def _build_block_plan(cfg) -> tuple[dict[int, tuple], int]:
    """Flatten one CFG into the hot-loop execution plan."""
    blocks: dict[int, tuple] = {}
    for block in cfg:
        statements: list[tuple[int, ast.Statement]] = []
        for statement in block.statements:
            if isinstance(statement, ast.ExpressionStatement):
                if statement.expression is not None:
                    statements.append(
                        (_STMT_EXPR, statement.expression)
                    )
            elif isinstance(statement, ast.Declaration):
                # Statics are initialized once at startup; locals
                # without initializers need no per-execution work.
                if (
                    statement.storage != "static"
                    and statement.initializer is not None
                ):
                    statements.append((_STMT_DECL, statement))
            else:  # pragma: no cover - builder keeps blocks straight-line
                raise InterpreterError(
                    f"cannot execute {type(statement).__name__}",
                    statement.location,
                )
        terminator = block.terminator
        if isinstance(terminator, Jump):
            plan = (tuple(statements), _KIND_JUMP, terminator.target, None, None)
        elif isinstance(terminator, CondBranch):
            plan = (
                tuple(statements),
                _KIND_COND,
                terminator.condition,
                terminator.true_target,
                terminator.false_target,
            )
        elif isinstance(terminator, SwitchBranch):
            plan = (
                tuple(statements),
                _KIND_SWITCH,
                terminator.condition,
                tuple((arm.values, arm.target) for arm in terminator.arms),
                terminator.default_target,
            )
        elif isinstance(terminator, ReturnTerm):
            plan = (tuple(statements), _KIND_RETURN, terminator.value, None, None)
        else:  # pragma: no cover - terminator set is closed
            raise InterpreterError(
                f"unknown terminator {type(terminator).__name__}"
            )
        blocks[block.block_id] = plan
    return blocks, cfg.entry_id


def block_plan(program: Program, name: str) -> tuple[dict[int, tuple], int]:
    """The flattened execution plan of one function, cached per Program.

    Public accessor shared by every running :class:`Machine` *and* by
    the compiled backend (:mod:`repro.compile`), which lowers exactly
    these plans — so both backends execute the same statement lists and
    terminators by construction.
    """
    plans = _PLAN_CACHE.get(program)
    if plans is None:
        plans = {}
        _PLAN_CACHE[program] = plans
    plan = plans.get(name)
    if plan is None:
        plan = _build_block_plan(program.cfg(name))
        plans[name] = plan
    return plan


class Machine:
    """Interprets one :class:`~repro.program.Program`."""

    def __init__(
        self,
        program: Program,
        stdin: str = "",
        argv: tuple[str, ...] = (),
        fuel: int = 200_000_000,
        max_call_depth: int = 1800,
        profile: Optional[Profile] = None,
    ):
        self.program = program
        self.memory = Memory()
        self.profile = profile if profile is not None else Profile(
            program.name
        )
        self.evaluator = Evaluator(self)
        self.stdout_chunks: list[str] = []
        self.stdin_text = stdin
        self.stdin_pos = 0
        self.rand_state = 1
        self._fuel = fuel
        self._initial_fuel = fuel
        self._max_call_depth = max_call_depth
        #: Live user-call depth.  Tracked separately from ``_frames``
        #: because the compiled backend runs calls without pushing
        #: interpreter frames; mixed compiled/interpreted stacks share
        #: this one counter so the depth limit stays exact.
        self._depth = 0
        self._frames: list[_Frame] = []
        self._globals: dict[str, tuple[int, ct.CType]] = {}
        self._statics: dict[tuple[str, str], tuple[int, ct.CType]] = {}
        self._strings: dict[str, int] = {}
        self._function_addresses: dict[str, int] = {}
        self._address_to_function: dict[int, str] = {}
        self._function_info: dict[str, _FunctionInfo] = {}
        self._argv = argv or (program.name,)
        self._initialized = False
        self._libc_calls = 0

    # ------------------------------------------------------------------
    # Program startup.

    def run(self) -> ExecutionResult:
        """Execute ``main`` and return the result."""
        with span(
            "interp.run",
            program=self.program.name,
            input=self.profile.input_name,
        ):
            result = self._run()
        incr("interp.runs")
        incr("interp.blocks_executed", result.blocks_executed)
        incr("interp.libc_calls", self._libc_calls)
        return result

    def _run(self) -> ExecutionResult:
        import sys

        # Each interpreted C frame costs a dozen-odd Python frames
        # (eval -> call -> eval ...); size the Python recursion limit
        # to the machine's own call-depth guard.
        needed = self._max_call_depth * 40 + 10_000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        self._initialize()
        aborted = False
        try:
            argc, argv_address = self._build_argv()
            main_def = self.program.function("main")
            args: list[tuple[object, ct.CType]] = []
            if len(main_def.ftype.parameters) >= 2:
                args = [
                    (argc, ct.INT),
                    (argv_address, ct.PointerType(ct.CHAR_PTR)),
                ]
            value, _ = self.call_user("main", args, main_def.location)
            status = int(value) if isinstance(value, (int, float)) else 0
        except ProgramExit as program_exit:
            status = program_exit.status
            aborted = program_exit.aborted
        self.profile.exit_status = status
        return ExecutionResult(
            status=status,
            stdout=self.stdout(),
            profile=self.profile,
            blocks_executed=self._initial_fuel - self._fuel,
            aborted=aborted,
        )

    def stdout(self) -> str:
        return "".join(self.stdout_chunks)

    def _initialize(self) -> None:
        if self._initialized:
            return
        self._initialized = True
        # One heap cell per function gives every function a unique,
        # comparable address for function pointers.
        for name in self.program.function_names:
            address = self.memory.heap_alloc(1)
            self.memory.store(address, 0)
            self._function_addresses[name] = address
            self._address_to_function[address] = name
        self._collect_function_info()
        self._allocate_globals()
        self._allocate_statics()

    def _collect_function_info(self) -> None:
        for function in self.program.unit.functions:
            info = _FunctionInfo(function)
            for node in function.body.walk():
                if isinstance(node, ast.Declaration):
                    if node.storage == "static":
                        info.static_declarations.append(node)
                    elif node.storage != "extern":
                        info.local_declarations.append(node)
            self._function_info[function.name] = info

    def _allocate_globals(self) -> None:
        # Two passes: allocate all addresses first so initializers can
        # take the address of globals declared later.
        pending: list[tuple[ast.Declaration, int]] = []
        for declaration in self.program.unit.globals:
            if declaration.storage == "extern":
                continue
            size = _sizeof_or_fail(declaration.declared_type, declaration)
            address = self.memory.heap_alloc(size)
            _zero_fill(self.memory, address, size)
            self._globals[declaration.name] = (
                address,
                declaration.declared_type,
            )
            pending.append((declaration, address))
        for declaration, address in pending:
            if declaration.initializer is not None:
                self.initialize_storage(
                    address, declaration.declared_type, declaration.initializer
                )

    def _allocate_statics(self) -> None:
        for function_name, info in self._function_info.items():
            for declaration in info.static_declarations:
                size = _sizeof_or_fail(
                    declaration.declared_type, declaration
                )
                address = self.memory.heap_alloc(size)
                _zero_fill(self.memory, address, size)
                self._statics[(function_name, declaration.name)] = (
                    address,
                    declaration.declared_type,
                )
                if declaration.initializer is not None:
                    self.initialize_storage(
                        address,
                        declaration.declared_type,
                        declaration.initializer,
                    )

    def _build_argv(self) -> tuple[int, int]:
        argc = len(self._argv)
        array_address = self.memory.heap_alloc(argc + 1)
        for index, argument in enumerate(self._argv):
            string_address = self.memory.heap_alloc(len(argument) + 1)
            self.memory.write_c_string(string_address, argument)
            self.memory.store(array_address + index, string_address)
        self.memory.store(array_address + argc, 0)
        return argc, array_address

    # ------------------------------------------------------------------
    # Services used by the evaluator and libc.

    def intern_string(self, text: str) -> int:
        address = self._strings.get(text)
        if address is None:
            address = self.memory.heap_alloc(len(text) + 1)
            self.memory.write_c_string(address, text)
            self._strings[text] = address
        return address

    def function_address(self, name: str, location: SourceLocation) -> int:
        try:
            return self._function_addresses[name]
        except KeyError:
            raise InterpreterError(
                f"taking address of undefined function {name!r}", location
            ) from None

    def resolve_function_address(
        self, address: object, location: SourceLocation
    ) -> str:
        if not isinstance(address, int):
            raise InterpreterError(
                "call through non-pointer value", location
            )
        name = self._address_to_function.get(address)
        if name is None:
            raise InterpreterError(
                f"call through {address:#x}, which is not a function",
                location,
            )
        return name

    def lookup_variable(
        self, name: str, location: SourceLocation
    ) -> tuple[int, ct.CType]:
        if self._frames:
            frame = self._frames[-1]
            entry = frame.variables.get(name)
            if entry is not None:
                return entry
            static_entry = self._statics.get((frame.function_name, name))
            if static_entry is not None:
                return static_entry
        global_entry = self._globals.get(name)
        if global_entry is not None:
            return global_entry
        raise InterpreterError(f"undefined variable {name!r}", location)

    # ------------------------------------------------------------------
    # Calls.

    def execute_call(self, call: ast.Call) -> tuple[object, ct.CType]:
        callee = call.callee
        name: Optional[str] = None
        if isinstance(callee, ast.Identifier) and callee.binding in (
            "function",
            "builtin",
        ):
            name = callee.name
        else:
            value, _ = self.evaluator.rvalue(callee)
            name = self.resolve_function_address(value, call.location)
        arguments = [
            self.evaluator.rvalue(argument) for argument in call.arguments
        ]
        if self.program.has_function(name):
            self.profile.record_call(call.node_id, name)
            return self.call_user(name, arguments, call.location)
        # Builtin (or unknown) function.
        from repro.interp.libc import call_builtin

        self._libc_calls += 1
        self.profile.record_call(call.node_id, name)
        return call_builtin(self, name, arguments, call)

    def call_user(
        self,
        name: str,
        arguments: list[tuple[object, ct.CType]],
        location: SourceLocation,
    ) -> tuple[object, ct.CType]:
        """Call a defined function with already-evaluated arguments."""
        self._initialize()
        if self._depth >= self._max_call_depth:
            raise InterpreterError(
                f"call depth limit exceeded calling {name!r}", location
            )
        info = self._function_info.get(name)
        if info is None:
            raise InterpreterError(f"undefined function {name!r}", location)
        definition = info.definition
        parameters = definition.ftype.parameters
        if len(arguments) != len(parameters):
            if not (definition.ftype.unspecified and not parameters):
                raise InterpreterError(
                    f"{name} expects {len(parameters)} arguments, got "
                    f"{len(arguments)}",
                    location,
                )
        plan = info.call_plan
        if plan is None:
            param_entries = tuple(
                (
                    param_name,
                    param_type,
                    _sizeof_or_fail(param_type, definition),
                    isinstance(param_type, ct.StructType),
                )
                for param_type, param_name in zip(
                    parameters, definition.parameter_names
                )
            )
            local_entries = tuple(
                (
                    declaration.name,
                    declaration.declared_type,
                    _sizeof_or_fail(
                        declaration.declared_type, declaration
                    ),
                )
                for declaration in info.local_declarations
            )
            plan = info.call_plan = (param_entries, local_entries)
        param_entries, local_entries = plan
        memory = self.memory
        stack_alloc = memory.stack_alloc
        mark = memory.stack_mark()
        variables: dict[str, tuple[int, ct.CType]] = {}
        for (value, value_type), (
            param_name,
            param_type,
            size,
            is_struct,
        ) in zip(arguments, param_entries):
            address = stack_alloc(size)
            if is_struct:
                if not isinstance(value, AggregateValue):
                    raise InterpreterError(
                        f"expected struct argument for {param_name}",
                        location,
                    )
                for offset, cell in enumerate(value.cells):
                    memory.store_raw(address + offset, cell)
            else:
                if isinstance(value, AggregateValue):
                    raise InterpreterError(
                        f"aggregate passed to scalar parameter {param_name}",
                        location,
                    )
                memory.store(address, convert(value, param_type))
            if param_name:
                variables[param_name] = (address, param_type)
        for local_name, local_type, size in local_entries:
            variables[local_name] = (stack_alloc(size), local_type)
        frame = _Frame(name, variables, mark)
        self._frames.append(frame)
        self._depth += 1
        self.profile.function_entries[name] += 1
        try:
            return self._execute_cfg(name, definition)
        finally:
            self._depth -= 1
            self._frames.pop()
            memory.stack_release(mark)

    # ------------------------------------------------------------------
    # CFG execution.

    def _block_plan(self, name: str) -> tuple[dict[int, tuple], int]:
        return block_plan(self.program, name)

    def _execute_cfg(
        self, name: str, definition: ast.FunctionDef
    ) -> tuple[object, ct.CType]:
        # Hot loop.  Everything touched per block — the plan, the
        # profile's per-function count dicts, and the evaluator entry
        # points — is bound to a local once, so the loop body does no
        # attribute chasing and no isinstance dispatch (the plan tags
        # every terminator with an integer kind).
        blocks, current = self._block_plan(name)
        profile = self.profile
        fn_blocks = profile.block_counts[name]
        fn_arcs = profile.arc_counts[name]
        fn_branches = profile.branch_outcomes[name]
        evaluator = self.evaluator
        rvalue = evaluator.rvalue
        truthy = evaluator.truthy
        scalar = evaluator.scalar
        return_type = definition.ftype.return_type
        executed = 0
        try:
            while True:
                if self._fuel <= 0:
                    raise FuelExhausted(
                        "execution budget exhausted", definition.location
                    )
                self._fuel -= 1
                executed += 1
                fn_blocks[current] += 1
                statements, kind, a, b, c = blocks[current]
                for opcode, payload in statements:
                    if opcode == _STMT_EXPR:
                        rvalue(payload)
                    else:
                        address, ctype = self.lookup_variable(
                            payload.name, payload.location
                        )
                        self.initialize_storage(
                            address, ctype, payload.initializer
                        )
                if kind == _KIND_JUMP:
                    fn_arcs[(current, a)] += 1
                    current = a
                elif kind == _KIND_COND:
                    taken = truthy(a)
                    outcome = fn_branches.get(current)
                    if outcome is None:
                        outcome = BranchOutcome()
                        fn_branches[current] = outcome
                    if taken:
                        outcome.taken += 1
                        target = b
                    else:
                        outcome.not_taken += 1
                        target = c
                    fn_arcs[(current, target)] += 1
                    current = target
                elif kind == _KIND_RETURN:
                    if a is None:
                        return 0, return_type
                    value, value_type = rvalue(a)
                    if isinstance(return_type, ct.StructType):
                        return value, return_type
                    if isinstance(value, AggregateValue):
                        raise InterpreterError(
                            "aggregate returned from scalar function",
                            definition.location,
                        )
                    if isinstance(return_type, ct.VoidType):
                        return 0, return_type
                    return convert(value, return_type), return_type
                else:  # _KIND_SWITCH
                    value = scalar(a)
                    target = c
                    for values, arm_target in b:
                        if value in values:
                            target = arm_target
                            break
                    fn_arcs[(current, target)] += 1
                    current = target
        finally:
            profile.total_block_executions += executed

    # ------------------------------------------------------------------
    # Initializers.

    def initialize_storage(
        self,
        address: int,
        ctype: ct.CType,
        initializer: ast.Initializer,
    ) -> None:
        """Run an initializer into storage at ``address``."""
        if not initializer.is_list:
            assert initializer.expression is not None
            expression = initializer.expression
            if isinstance(ctype, ct.ArrayType) and isinstance(
                expression, ast.StringLiteral
            ):
                self._initialize_char_array(address, ctype, expression.value)
                return
            value, value_type = self.evaluator.rvalue(expression)
            self.evaluator._store_converted(
                address, ctype, value, value_type, initializer.location
            )
            return
        assert initializer.elements is not None
        if isinstance(ctype, ct.ArrayType):
            element_size = ctype.element.sizeof()
            length = ctype.length or len(initializer.elements)
            for index in range(length):
                element_address = address + index * element_size
                if index < len(initializer.elements):
                    self.initialize_storage(
                        element_address,
                        ctype.element,
                        initializer.elements[index],
                    )
                else:
                    _zero_fill(self.memory, element_address, element_size)
            return
        if isinstance(ctype, ct.StructType):
            for index, member in enumerate(ctype.members):
                member_address = address + member.offset
                if index < len(initializer.elements):
                    self.initialize_storage(
                        member_address, member.type, initializer.elements[index]
                    )
                else:
                    _zero_fill(
                        self.memory, member_address, member.type.sizeof()
                    )
            return
        # Brace-enclosed scalar: { expr }.
        if len(initializer.elements) == 1:
            self.initialize_storage(address, ctype, initializer.elements[0])
            return
        raise InterpreterError(
            f"initializer list for scalar type {ctype}", initializer.location
        )

    def _initialize_char_array(
        self, address: int, ctype: ct.ArrayType, text: str
    ) -> None:
        length = ctype.length or (len(text) + 1)
        for index in range(length):
            if index < len(text):
                self.memory.store(address + index, ord(text[index]))
            else:
                self.memory.store(address + index, 0)


def _sizeof_or_fail(ctype: ct.CType, node: ast.Node) -> int:
    try:
        return ctype.sizeof()
    except ValueError as exc:
        raise InterpreterError(str(exc), node.location) from exc


def _zero_fill(memory: Memory, address: int, size: int) -> None:
    if size <= 0:
        return
    # Allocations never span regions, so one slot resolution covers
    # the whole range; the slice assignment replaces a store per cell.
    region, index = memory._slot(address)
    region[index : index + size] = [0] * size


def run_program(
    program: Program,
    stdin: str = "",
    argv: tuple[str, ...] = (),
    fuel: int = 200_000_000,
    input_name: str = "",
) -> ExecutionResult:
    """Convenience wrapper: run ``program`` and return the result."""
    profile = Profile(program.name, input_name)
    machine = Machine(
        program, stdin=stdin, argv=argv, fuel=fuel, profile=profile
    )
    return machine.run()
