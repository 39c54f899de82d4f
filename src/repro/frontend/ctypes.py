"""C type objects for the frontend and interpreter.

Sizes use a *cell* model rather than bytes: every scalar (char, int,
long, float, double, pointer, enum) occupies exactly one cell; an array
of ``n`` elements occupies ``n * sizeof(element)`` cells; a struct lays
its members out at consecutive cell offsets; a union overlays them at
offset 0.  Pointer arithmetic in the interpreter is scaled by cell sizes,
so ``p + 1`` on an ``int *`` moves one cell and on a ``struct s *`` moves
``sizeof(struct s)`` cells — exactly the C semantics, just with a
different unit.  ``sizeof(char) == sizeof(int) == 1`` is the one visible
divergence from a byte machine; the benchmark suite is written with that
in mind.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CType:
    """Base class for all C types."""

    def sizeof(self) -> int:
        raise NotImplementedError

    @property
    def is_arithmetic(self) -> bool:
        return isinstance(self, (IntType, FloatType, EnumType))

    @property
    def is_integer(self) -> bool:
        return isinstance(self, (IntType, EnumType))

    @property
    def is_scalar(self) -> bool:
        return self.is_arithmetic or isinstance(self, PointerType)

    @property
    def is_pointerish(self) -> bool:
        """Pointer or array (things that decay to an address)."""
        return isinstance(self, (PointerType, ArrayType))


@dataclass(frozen=True)
class VoidType(CType):
    def sizeof(self) -> int:
        return 1  # Allows void* arithmetic in the cell model.

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """Any integer type.  ``rank`` orders conversions; ``bits`` bounds
    the value range used for wraparound in the interpreter."""

    name: str = "int"
    signed: bool = True
    rank: int = 3  # char=1, short=2, int=3, long=4
    bits: int = 32

    def sizeof(self) -> int:
        return 1

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FloatType(CType):
    name: str = "double"
    rank: int = 2  # float=1, double=2

    def sizeof(self) -> int:
        return 1

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType = field(default_factory=VoidType)

    def sizeof(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType = field(default_factory=lambda: INT)
    length: int | None = None  # None for incomplete arrays.

    def sizeof(self) -> int:
        if self.length is None:
            raise ValueError("sizeof applied to incomplete array type")
        return self.length * self.element.sizeof()

    def decay(self) -> PointerType:
        return PointerType(self.element)

    def __str__(self) -> str:
        length = "" if self.length is None else str(self.length)
        return f"{self.element}[{length}]"


@dataclass(frozen=True)
class StructMember:
    name: str
    type: CType
    offset: int


class StructType(CType):
    """A struct or union.  Mutable because C allows forward-declared tags
    completed later; identity (not value) equality is intended."""

    def __init__(self, tag: str | None, is_union: bool = False):
        self.tag = tag
        self.is_union = is_union
        self.members: list[StructMember] = []
        self._by_name: dict[str, StructMember] = {}
        self.complete = False

    def define_members(self, members: list[tuple[str, CType]]) -> None:
        if self.complete:
            raise ValueError(f"redefinition of struct {self.tag}")
        offset = 0
        for name, ctype in members:
            member_offset = 0 if self.is_union else offset
            member = StructMember(name, ctype, member_offset)
            self.members.append(member)
            self._by_name[name] = member
            offset += ctype.sizeof()
        self.complete = True

    def member(self, name: str) -> StructMember:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"struct {self.tag or '<anonymous>'} has no member {name!r}"
            ) from None

    def has_member(self, name: str) -> bool:
        return name in self._by_name

    def sizeof(self) -> int:
        if not self.complete:
            raise ValueError(
                f"sizeof applied to incomplete struct {self.tag}"
            )
        if self.is_union:
            return max(
                (member.type.sizeof() for member in self.members), default=1
            )
        return sum(member.type.sizeof() for member in self.members) or 1

    def __str__(self) -> str:
        keyword = "union" if self.is_union else "struct"
        return f"{keyword} {self.tag or '<anonymous>'}"


@dataclass(frozen=True)
class EnumType(CType):
    tag: str | None = None

    def sizeof(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"enum {self.tag or '<anonymous>'}"


@dataclass(frozen=True)
class FunctionType(CType):
    return_type: CType = field(default_factory=VoidType)
    parameters: tuple[CType, ...] = ()
    variadic: bool = False
    # True when declared with an empty parameter list: f().
    unspecified: bool = False

    def sizeof(self) -> int:
        raise ValueError("sizeof applied to function type")

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.parameters)
        if self.variadic:
            params = f"{params}, ..." if params else "..."
        return f"{self.return_type}({params})"


# Canonical singletons for the common types.
VOID = VoidType()
CHAR = IntType("char", signed=True, rank=1, bits=8)
UCHAR = IntType("unsigned char", signed=False, rank=1, bits=8)
SHORT = IntType("short", signed=True, rank=2, bits=16)
USHORT = IntType("unsigned short", signed=False, rank=2, bits=16)
INT = IntType("int", signed=True, rank=3, bits=32)
UINT = IntType("unsigned int", signed=False, rank=3, bits=32)
LONG = IntType("long", signed=True, rank=4, bits=64)
ULONG = IntType("unsigned long", signed=False, rank=4, bits=64)
FLOAT = FloatType("float", rank=1)
DOUBLE = FloatType("double", rank=2)
CHAR_PTR = PointerType(CHAR)
VOID_PTR = PointerType(VOID)


def integer_promote(ctype: CType) -> CType:
    """C integer promotion: anything below int promotes to int."""
    if isinstance(ctype, EnumType):
        return INT
    if isinstance(ctype, IntType) and ctype.rank < INT.rank:
        return INT
    return ctype


def usual_arithmetic_conversions(left: CType, right: CType) -> CType:
    """The common type of two arithmetic operands (C89 rules, cell model)."""
    if isinstance(left, FloatType) or isinstance(right, FloatType):
        candidates = [t for t in (left, right) if isinstance(t, FloatType)]
        return max(candidates, key=lambda t: t.rank)
    left = integer_promote(left)
    right = integer_promote(right)
    assert isinstance(left, IntType) and isinstance(right, IntType)
    if left.rank != right.rank:
        return left if left.rank > right.rank else right
    if left.signed == right.signed:
        return left
    return left if not left.signed else right


def decay(ctype: CType) -> CType:
    """Array-to-pointer and function-to-pointer decay."""
    if isinstance(ctype, ArrayType):
        return ctype.decay()
    if isinstance(ctype, FunctionType):
        return PointerType(ctype)
    return ctype


def is_null_pointer_comparison(left: CType, right: CType) -> bool:
    """True when comparing a pointer against an integer (NULL idiom)."""
    return (left.is_pointerish and right.is_integer) or (
        right.is_pointerish and left.is_integer
    )
