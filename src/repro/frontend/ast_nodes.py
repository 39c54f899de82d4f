"""Abstract syntax tree nodes for the C subset.

The parser assigns every expression node a ``ctype`` (its C type after
the usual conversions) because the paper's branch-prediction heuristics
are defined over "the abstract syntax and the C type system": e.g. the
pointer heuristic needs to know that a comparison's operand is a pointer.

Every node carries a :class:`SourceLocation` and a ``node_id`` unique
within its translation unit, used to key CFG blocks and profile events
back to syntax.  Each thread numbers nodes from its own counter, which
every parse restarts (see :data:`NODE_IDS`), so ids are a pure function
of the source text — required for profiles cached on disk or computed
in worker processes to mean the same thing everywhere, and for parses
running at once on a daemon's worker threads.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.frontend.ctypes import CType, FunctionType
from repro.frontend.errors import SourceLocation


class _NodeIds(threading.local):
    """Node numbering, one counter per thread.

    A thread that has never parsed still starts at 1; nodes built
    after a parse (the CFG builder's synthetic statements) continue
    that parse's count.
    """

    def __init__(self) -> None:
        self.restart()

    def restart(self) -> None:
        """Number the next node 1 (called at the start of each parse)."""
        self.count = itertools.count(1)


NODE_IDS = _NodeIds()


@dataclass
class Node:
    """Common base: location plus a per-translation-unit unique id."""

    location: SourceLocation = field(
        default_factory=SourceLocation, repr=False
    )
    node_id: int = field(default_factory=lambda: next(NODE_IDS.count))

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes; default is no children."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this subtree, on an explicit stack."""
        stack: list[Node] = [self]
        pop = stack.pop
        extend = stack.extend
        while stack:
            node = pop()
            yield node
            children = list(node.children())
            children.reverse()
            extend(children)


# ----------------------------------------------------------------------
# Expressions.


@dataclass
class Expression(Node):
    """Base for all expressions; ``ctype`` is set by the parser."""

    ctype: Optional[CType] = None


@dataclass
class IntLiteral(Expression):
    value: int = 0


@dataclass
class FloatLiteral(Expression):
    value: float = 0.0


@dataclass
class CharLiteral(Expression):
    value: int = 0


@dataclass
class StringLiteral(Expression):
    value: str = ""


@dataclass
class Identifier(Expression):
    name: str = ""
    #: Filled by the parser: "local", "param", "global", "function",
    #: "enum-constant", or "builtin".
    binding: str = "local"
    #: For enum constants, the constant's value.
    constant_value: Optional[int] = None


@dataclass
class BinaryOp(Expression):
    """Arithmetic, relational, bitwise, and shift operators."""

    op: str = "+"
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass
class LogicalOp(Expression):
    """Short-circuit ``&&`` and ``||`` (kept distinct from BinaryOp
    because they introduce control flow)."""

    op: str = "&&"
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass
class UnaryOp(Expression):
    """Prefix ``-``, ``+``, ``!``, ``~``."""

    op: str = "-"
    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class AddressOf(Expression):
    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class Dereference(Expression):
    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class IncDec(Expression):
    """``++``/``--``, prefix or postfix."""

    op: str = "++"
    is_prefix: bool = True
    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class Assignment(Expression):
    """``=`` and the compound assignment operators."""

    op: str = "="
    target: Expression = None  # type: ignore[assignment]
    value: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.value


@dataclass
class Conditional(Expression):
    """The ternary ``?:`` operator."""

    condition: Expression = None  # type: ignore[assignment]
    then_expr: Expression = None  # type: ignore[assignment]
    else_expr: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.condition
        yield self.then_expr
        yield self.else_expr


@dataclass
class Comma(Expression):
    parts: list[Expression] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.parts


@dataclass
class Call(Expression):
    """A function call.  ``callee`` is an arbitrary expression; direct
    calls have an Identifier callee with binding ``"function"`` or
    ``"builtin"``."""

    callee: Expression = None  # type: ignore[assignment]
    arguments: list[Expression] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield self.callee
        yield from self.arguments

    @property
    def is_direct(self) -> bool:
        return isinstance(self.callee, Identifier) and self.callee.binding in (
            "function",
            "builtin",
        )

    @property
    def direct_name(self) -> Optional[str]:
        if self.is_direct:
            assert isinstance(self.callee, Identifier)
            return self.callee.name
        return None


@dataclass
class Index(Expression):
    base: Expression = None  # type: ignore[assignment]
    index: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.index


@dataclass
class Member(Expression):
    """``base.name`` or ``base->name``."""

    base: Expression = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False

    def children(self) -> Iterator[Node]:
        yield self.base


@dataclass
class Cast(Expression):
    target_type: CType = None  # type: ignore[assignment]
    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class SizeofExpr(Expression):
    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class SizeofType(Expression):
    queried_type: CType = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Statements and declarations.


@dataclass
class Statement(Node):
    pass


@dataclass
class Declaration(Statement):
    """A single declarator (one name).  Multi-declarator source lines are
    split into several Declaration nodes by the parser."""

    name: str = ""
    declared_type: CType = None  # type: ignore[assignment]
    initializer: Optional["Initializer"] = None
    storage: str = ""  # "", "static", "extern", "typedef"

    def children(self) -> Iterator[Node]:
        if self.initializer is not None:
            yield self.initializer


@dataclass
class Initializer(Node):
    """Either a scalar expression or a brace-enclosed list."""

    expression: Optional[Expression] = None
    elements: Optional[list["Initializer"]] = None

    @property
    def is_list(self) -> bool:
        return self.elements is not None

    def children(self) -> Iterator[Node]:
        if self.expression is not None:
            yield self.expression
        if self.elements is not None:
            yield from self.elements


@dataclass
class ExpressionStatement(Statement):
    expression: Optional[Expression] = None  # None for the empty statement.

    def children(self) -> Iterator[Node]:
        if self.expression is not None:
            yield self.expression


@dataclass
class Compound(Statement):
    items: list[Statement] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.items


@dataclass
class If(Statement):
    condition: Expression = None  # type: ignore[assignment]
    then_branch: Statement = None  # type: ignore[assignment]
    else_branch: Optional[Statement] = None

    def children(self) -> Iterator[Node]:
        yield self.condition
        yield self.then_branch
        if self.else_branch is not None:
            yield self.else_branch


@dataclass
class While(Statement):
    condition: Expression = None  # type: ignore[assignment]
    body: Statement = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.condition
        yield self.body


@dataclass
class DoWhile(Statement):
    body: Statement = None  # type: ignore[assignment]
    condition: Expression = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.body
        yield self.condition


@dataclass
class For(Statement):
    init: Optional[Statement] = None  # Declaration or ExpressionStatement.
    condition: Optional[Expression] = None
    step: Optional[Expression] = None
    body: Statement = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init
        if self.condition is not None:
            yield self.condition
        if self.step is not None:
            yield self.step
        yield self.body


@dataclass
class SwitchCase(Node):
    """One arm of a switch: its case values (several when labels stack)
    and the statements up to the next label.  Control falls through to
    the next arm unless the body transfers out."""

    values: list[int] = field(default_factory=list)
    is_default: bool = False
    body: list[Statement] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.body


@dataclass
class Switch(Statement):
    condition: Expression = None  # type: ignore[assignment]
    cases: list[SwitchCase] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield self.condition
        yield from self.cases

    @property
    def has_default(self) -> bool:
        return any(case.is_default for case in self.cases)


@dataclass
class Break(Statement):
    pass


@dataclass
class Continue(Statement):
    pass


@dataclass
class Return(Statement):
    value: Optional[Expression] = None

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value


@dataclass
class Goto(Statement):
    label: str = ""


@dataclass
class LabeledStatement(Statement):
    label: str = ""
    statement: Statement = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.statement


# ----------------------------------------------------------------------
# Top level.


@dataclass
class FunctionDef(Node):
    name: str = ""
    ftype: FunctionType = None  # type: ignore[assignment]
    parameter_names: list[str] = field(default_factory=list)
    body: Compound = None  # type: ignore[assignment]
    storage: str = ""

    def children(self) -> Iterator[Node]:
        yield self.body


@dataclass
class TranslationUnit(Node):
    """A fully parsed source file."""

    name: str = "<input>"
    functions: list[FunctionDef] = field(default_factory=list)
    globals: list[Declaration] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.globals
        yield from self.functions

    def function(self, name: str) -> FunctionDef:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no function named {name!r}")

    def function_names(self) -> list[str]:
        return [function.name for function in self.functions]
