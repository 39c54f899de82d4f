"""Regex scanner for the C subset.

:func:`tokenize` consumes preprocessed text (comments may still be
present; they are skipped here) and produces a list of :class:`Token`
ending in one EOF token.  One compiled pattern, :data:`_SCANNER`, has a
named alternative per token class; at each position the first
alternative that matches wins, and a catch-all alternative turns any
other character into a :class:`LexError`.  Line and column come from a
running line start that moves only when a skipped span holds a newline.

The lexical grammar is ASCII (C89's basic source character set):
identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and digits ``[0-9]``.  Other
characters may appear only inside literals and comments.

Supported literal forms:

* decimal, octal (``0777``), and hex (``0x1F``) integers with optional
  ``u``/``l`` suffixes (suffixes are recorded in the spelling only);
* floating literals with optional exponent and ``f`` suffix;
* character literals with the usual escapes;
* string literals with escapes; adjacent string literals are concatenated
  by the parser, not here.
"""

from __future__ import annotations

import re

from repro.frontend.errors import LexError, SourceLocation
from repro.frontend.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "?": "?",
}

_PUNCTUATOR_KINDS = dict(PUNCTUATORS)

#: Token classes in match order.  Literals match loosely (an unclosed
#: literal still matches, without its ``*_close`` group) so that the
#: decoders below report the same error a strict scan would.
_SCANNER = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("skip", r"[ \t\r\n\f\v]+|//[^\n]*|/\*[\s\S]*?\*/|#[^\n]*"),
            ("open_comment", r"/\*"),
            ("name", r"[A-Za-z_][A-Za-z0-9_]*"),
            ("hex", r"0[xX][0-9a-fA-F]*[uUlL]*"),
            (
                "number",
                r"(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)"
                r"(?:[eE][+-]?[0-9]+)?[uUlLfF]*",
            ),
            ("char", r"'(?:[^'\\\n]|\\[\s\S])*(?P<char_close>')?"),
            ("string", r'"(?:[^"\\\n]|\\[\s\S])*(?P<string_close>")?'),
            (
                "punct",
                "|".join(re.escape(spelling) for spelling, _ in PUNCTUATORS),
            ),
            ("stray", r"[\s\S]"),
        )
    )
)

_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]*)|([0-7]{1,3})|([\s\S]))")


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Return all tokens in ``text``, ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    identifier = TokenKind.IDENTIFIER
    keywords = KEYWORDS
    punctuators = _PUNCTUATOR_KINDS
    line = 1
    line_start = 0
    for match in _SCANNER.finditer(text):
        group = match.lastgroup
        start = match.start()
        if group == "skip":
            end = match.end()
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
            continue
        spelling = match.group()
        location = SourceLocation(filename, line, start - line_start + 1)
        if group == "punct":
            append(Token(punctuators[spelling], spelling, location))
        elif group == "name":
            append(
                Token(keywords.get(spelling, identifier), spelling, location)
            )
        elif group == "number" or group == "hex":
            append(_number(spelling, group == "hex", location))
        elif group == "char":
            closed = match.start("char_close") >= 0
            value = _char_value(spelling, closed, text, match.end(), location)
            append(Token(TokenKind.CHAR_LITERAL, spelling, location, value))
        elif group == "string":
            closed = match.start("string_close") >= 0
            value = _string_value(
                spelling, closed, text, match.end(), location
            )
            append(Token(TokenKind.STRING_LITERAL, spelling, location, value))
        elif group == "open_comment":
            raise LexError("unterminated block comment", location)
        else:
            raise LexError(f"unexpected character {spelling!r}", location)
    append(
        Token(
            TokenKind.EOF,
            "",
            SourceLocation(filename, line, len(text) - line_start + 1),
        )
    )
    return tokens


def _number(spelling: str, is_hex: bool, location: SourceLocation) -> Token:
    if is_hex:
        body = spelling.rstrip("uUlL")
        if len(body) == 2:
            raise LexError("malformed hex literal", location)
        return Token(TokenKind.INT_LITERAL, spelling, location, int(body, 16))
    body = spelling.rstrip("uUlLfF")
    suffix = spelling[len(body):]
    if (
        "." in body
        or "e" in body
        or "E" in body
        or "f" in suffix
        or "F" in suffix
    ):
        return Token(TokenKind.FLOAT_LITERAL, spelling, location, float(body))
    if len(body) > 1 and body.startswith("0"):
        try:
            value = int(body, 8)  # C octal: 0777
        except ValueError:
            raise LexError(f"invalid octal literal {body}", location) from None
    else:
        try:
            value = int(body, 10)
        except ValueError:  # past Python's int-string digit limit
            raise LexError("integer literal too long", location) from None
    return Token(TokenKind.INT_LITERAL, spelling, location, value)


def _escape(match: re.Match[str], location: SourceLocation) -> str:
    """Decode one ``_ESCAPE`` match."""
    hex_digits, octal_digits, other = match.groups()
    if hex_digits is not None:
        if not hex_digits:
            raise LexError("\\x with no hex digits", location)
        code = int(hex_digits, 16)
        if code > 0x10FFFF:
            raise LexError("\\x escape out of range", location)
        return chr(code)
    if octal_digits is not None:
        return chr(int(octal_digits, 8))
    if other in _SIMPLE_ESCAPES:
        return _SIMPLE_ESCAPES[other]
    raise LexError(f"unknown escape sequence \\{other}", location)


def _decode(body: str, location: SourceLocation) -> str:
    """Resolve the escapes of a literal's body, first error first."""
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda match: _escape(match, location), body)


# An unclosed literal's match stops at a newline, at the end of the
# text, or at a backslash that is the last character of the text.


def _string_value(
    spelling: str,
    closed: bool,
    text: str,
    end: int,
    location: SourceLocation,
) -> str:
    value = _decode(spelling[1:-1] if closed else spelling[1:], location)
    if not closed:
        if text.startswith("\\", end):
            raise LexError("unterminated escape sequence", location)
        raise LexError("unterminated string literal", location)
    return value


def _char_value(
    spelling: str,
    closed: bool,
    text: str,
    end: int,
    location: SourceLocation,
) -> int:
    body = spelling[1:-1] if closed else spelling[1:]
    if not body:
        if not closed and text.startswith("\\", end):
            raise LexError("unterminated escape sequence", location)
        raise LexError("empty or unterminated character literal", location)
    if body[0] == "\\":
        escape = _ESCAPE.match(body)
        assert escape is not None  # the scanner pairs every backslash
        decoded = _escape(escape, location)
        width = escape.end()
    else:
        decoded = body[0]
        width = 1
    if not closed or width != len(body):
        raise LexError("unterminated character literal", location)
    return ord(decoded)
