"""Token definitions for the C-subset lexer.

The lexer produces a flat list of :class:`Token` objects.  Token kinds are
members of :class:`TokenKind`; punctuation and keywords each get their own
kind so the parser can match on kind alone.
"""

from __future__ import annotations

import enum

from repro.frontend.errors import SourceLocation


class TokenKind(enum.Enum):
    """Every distinct token the lexer can produce."""

    # Literals and names.
    IDENTIFIER = "identifier"
    INT_LITERAL = "int-literal"
    FLOAT_LITERAL = "float-literal"
    CHAR_LITERAL = "char-literal"
    STRING_LITERAL = "string-literal"

    # Keywords.
    KW_AUTO = "auto"
    KW_BREAK = "break"
    KW_CASE = "case"
    KW_CHAR = "char"
    KW_CONST = "const"
    KW_CONTINUE = "continue"
    KW_DEFAULT = "default"
    KW_DO = "do"
    KW_DOUBLE = "double"
    KW_ELSE = "else"
    KW_ENUM = "enum"
    KW_EXTERN = "extern"
    KW_FLOAT = "float"
    KW_FOR = "for"
    KW_GOTO = "goto"
    KW_IF = "if"
    KW_INT = "int"
    KW_LONG = "long"
    KW_REGISTER = "register"
    KW_RETURN = "return"
    KW_SHORT = "short"
    KW_SIGNED = "signed"
    KW_SIZEOF = "sizeof"
    KW_STATIC = "static"
    KW_STRUCT = "struct"
    KW_SWITCH = "switch"
    KW_TYPEDEF = "typedef"
    KW_UNION = "union"
    KW_UNSIGNED = "unsigned"
    KW_VOID = "void"
    KW_VOLATILE = "volatile"
    KW_WHILE = "while"

    # Punctuation, longest-match first in the lexer table.
    ELLIPSIS = "..."
    SHL_ASSIGN = "<<="
    SHR_ASSIGN = ">>="
    ARROW = "->"
    INCREMENT = "++"
    DECREMENT = "--"
    SHL = "<<"
    SHR = ">>"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    LOGICAL_AND = "&&"
    LOGICAL_OR = "||"
    ADD_ASSIGN = "+="
    SUB_ASSIGN = "-="
    MUL_ASSIGN = "*="
    DIV_ASSIGN = "/="
    MOD_ASSIGN = "%="
    AND_ASSIGN = "&="
    OR_ASSIGN = "|="
    XOR_ASSIGN = "^="
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    SEMICOLON = ";"
    COMMA = ","
    COLON = ":"
    QUESTION = "?"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    LT = "<"
    GT = ">"
    DOT = "."

    # End of input sentinel.
    EOF = "<eof>"

    # Members are singletons, so identity hashing is exact; Enum's own
    # __hash__ is a Python-level call on every dict and set lookup the
    # lexer and parser make.
    __hash__ = object.__hash__


#: Map from keyword spelling to its TokenKind.
KEYWORDS: dict[str, TokenKind] = {
    kind.value: kind
    for kind in TokenKind
    if kind.name.startswith("KW_")
}

#: Punctuators ordered longest-first so greedy matching is correct.
PUNCTUATORS: list[tuple[str, TokenKind]] = sorted(
    (
        (kind.value, kind)
        for kind in TokenKind
        if not kind.name.startswith("KW_")
        and kind
        not in (
            TokenKind.IDENTIFIER,
            TokenKind.INT_LITERAL,
            TokenKind.FLOAT_LITERAL,
            TokenKind.CHAR_LITERAL,
            TokenKind.STRING_LITERAL,
            TokenKind.EOF,
        )
    ),
    key=lambda pair: len(pair[0]),
    reverse=True,
)


#: Binary operator precedence, weakest (1) to tightest (10).  The
#: parser and the ``#if`` evaluator both climb this one table.
BINARY_PRECEDENCE: dict[TokenKind, int] = {
    kind: precedence
    for precedence, kinds in enumerate(
        (
            (TokenKind.LOGICAL_OR,),
            (TokenKind.LOGICAL_AND,),
            (TokenKind.PIPE,),
            (TokenKind.CARET,),
            (TokenKind.AMP,),
            (TokenKind.EQ, TokenKind.NE),
            (TokenKind.LT, TokenKind.GT, TokenKind.LE, TokenKind.GE),
            (TokenKind.SHL, TokenKind.SHR),
            (TokenKind.PLUS, TokenKind.MINUS),
            (TokenKind.STAR, TokenKind.SLASH, TokenKind.PERCENT),
        ),
        start=1,
    )
    for kind in kinds
}


class Token:
    """A single lexical token.

    ``text`` is the exact source spelling.  ``value`` carries the decoded
    payload for literals: an ``int`` for integer and character literals, a
    ``float`` for floating literals, and the decoded ``str`` (escapes
    resolved, no quotes) for string literals.  Equality and hashing go
    by all four fields.
    """

    __slots__ = ("kind", "text", "location", "value")

    def __init__(
        self,
        kind: TokenKind,
        text: str,
        location: SourceLocation | None = None,
        value: int | float | str | None = None,
    ):
        self.kind = kind
        self.text = text
        self.location = SourceLocation() if location is None else location
        self.value = value

    def _key(self) -> tuple:
        return (self.kind, self.text, self.location, self.value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def is_keyword(self) -> bool:
        return self.kind.name.startswith("KW_")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.location})"
