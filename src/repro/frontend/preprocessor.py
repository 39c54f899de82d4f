"""A small C preprocessor.

Supports the directives the benchmark suite needs:

* ``#define`` for object-like and function-like macros (no ``#``/``##``
  operators), ``#undef``;
* ``#include "name"`` and ``#include <name>``, resolved against a list of
  include directories and a dict of virtual headers;
* ``#ifdef``, ``#ifndef``, ``#if``, ``#elif``, ``#else``, ``#endif`` with
  full constant-expression evaluation including ``defined(NAME)``;
* ``#error``;
* backslash line continuations.

Macro expansion respects string and character literals and comments, and
guards against self-recursive macros the standard way (a macro is not
re-expanded while it is being expanded).  The characters substituted
into one translation unit are charged against
:data:`MAX_EXPANSION_CHARS`, so an expansion bomb is a
:class:`PreprocessorError`, not a runaway.  Identifiers follow the lexer's
ASCII rule, ``[A-Za-z_][A-Za-z0-9_]*``; every scan over text steps from
one regex span (a literal, a comment, an identifier) to the next.

The output is plain text suitable for :mod:`repro.frontend.lexer`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.frontend.errors import PreprocessorError, SourceLocation
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import BINARY_PRECEDENCE, TokenKind

_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENTIFIER_RE = re.compile(_IDENTIFIER)
_MAX_EXPANSION_DEPTH = 64

#: Characters macro substitution may insert into one translation unit
#: (each substituted body counts once, before its rescan).  No suite
#: program substitutes more than 146, and the largest preprocesses to
#: 200 KB in all.  A chain of macros that each use the previous one
#: several times grows geometrically per level: unbudgeted, ten levels
#: of four take seconds and hundreds of megabytes before the parser
#: rejects the result; with it they stop after about 37,000
#: substitutions.
MAX_EXPANSION_CHARS = 256 * 1024

#: A whole string or character literal.  A quote that does not start
#: one (no closing quote before the line ends) is matched on its own by
#: the scanners below, which report it as an unterminated literal.
_LITERAL = r'"(?:[^"\\\n]|\\[\s\S])*"' + r"|'(?:[^'\\\n]|\\[\s\S])*'"

_COMMENT_SCAN = re.compile(
    _LITERAL + r"""|//[^\n]*|/\*[\s\S]*?(?:\*/|\Z)|["']"""
)
_MACRO_SCAN = re.compile(_LITERAL + r"""|["']|""" + _IDENTIFIER)
_ARGUMENT_SCAN = re.compile(_LITERAL + r"""|["'()\[\],]""")
_DEFINED_RE = re.compile(
    rf"defined\s*(?:\(\s*({_IDENTIFIER})\s*\)|({_IDENTIFIER}))"
)


@dataclass
class Macro:
    """One ``#define`` definition."""

    name: str
    body: str
    parameters: list[str] | None = None  # None means object-like.
    variadic: bool = False

    @property
    def is_function_like(self) -> bool:
        return self.parameters is not None


class Preprocessor:
    """Expands directives and macros over C source text."""

    def __init__(
        self,
        include_dirs: list[str] | None = None,
        virtual_headers: dict[str, str] | None = None,
        predefined: dict[str, str] | None = None,
    ):
        self._include_dirs = list(include_dirs or [])
        self._virtual_headers = dict(virtual_headers or {})
        self._macros: dict[str, Macro] = {}
        for name, body in (predefined or {}).items():
            self._macros[name] = Macro(name, body)
        self._include_stack: list[str] = []
        self._expanded = 0

    # ------------------------------------------------------------------
    # Public API.

    def define(self, name: str, body: str = "1") -> None:
        """Define an object-like macro programmatically."""
        self._macros[name] = Macro(name, body)

    def preprocess(self, text: str, filename: str = "<input>") -> str:
        """Return the preprocessed form of ``text``."""
        self._expanded = 0
        self._include_stack.append(filename)
        try:
            lines = self._process_lines(
                _splice_continuations(_strip_comments(text)), filename
            )
        finally:
            self._include_stack.pop()
        output = "\n".join(lines)
        if not output.endswith("\n"):
            output += "\n"  # Exactly one final newline: idempotent.
        return output

    # ------------------------------------------------------------------
    # Line-level processing.

    def _process_lines(self, lines: list[str], filename: str) -> list[str]:
        output: list[str] = []
        # Conditional stack entries: (currently_active, any_branch_taken,
        # parent_active).
        conditionals: list[tuple[bool, bool, bool]] = []
        for line_number, line in enumerate(lines, start=1):
            location = SourceLocation(filename, line_number, 1)
            stripped = line.lstrip()
            active = all(entry[0] for entry in conditionals)
            if stripped.startswith("#"):
                directive, _, rest = stripped[1:].lstrip().partition(" ")
                directive = directive.strip()
                rest = rest.strip()
                handled = self._process_directive(
                    directive, rest, location, conditionals, active, output
                )
                if handled:
                    continue
                if active:
                    raise PreprocessorError(
                        f"unknown directive #{directive}", location
                    )
                continue
            if active:
                output.append(self._expand_line(line, location))
            else:
                output.append("")
        if conditionals:
            raise PreprocessorError(
                "unterminated conditional at end of file",
                SourceLocation(filename, len(lines), 1),
            )
        return output

    def _process_directive(
        self,
        directive: str,
        rest: str,
        location: SourceLocation,
        conditionals: list[tuple[bool, bool, bool]],
        active: bool,
        output: list[str],
    ) -> bool:
        """Handle one directive; returns True if recognized."""
        if directive == "ifdef":
            name = rest.split()[0] if rest.split() else ""
            taken = active and name in self._macros
            conditionals.append((taken, taken, active))
        elif directive == "ifndef":
            name = rest.split()[0] if rest.split() else ""
            taken = active and name not in self._macros
            conditionals.append((taken, taken, active))
        elif directive == "if":
            taken = active and self._evaluate_condition(rest, location)
            conditionals.append((taken, taken, active))
        elif directive == "elif":
            if not conditionals:
                raise PreprocessorError("#elif without #if", location)
            _, any_taken, parent = conditionals[-1]
            taken = (
                parent
                and not any_taken
                and self._evaluate_condition(rest, location)
            )
            conditionals[-1] = (taken, any_taken or taken, parent)
        elif directive == "else":
            if not conditionals:
                raise PreprocessorError("#else without #if", location)
            _, any_taken, parent = conditionals[-1]
            taken = parent and not any_taken
            conditionals[-1] = (taken, True, parent)
        elif directive == "endif":
            if not conditionals:
                raise PreprocessorError("#endif without #if", location)
            conditionals.pop()
        elif directive == "define":
            if active:
                self._handle_define(rest, location)
        elif directive == "undef":
            if active:
                name = rest.split()[0] if rest.split() else ""
                self._macros.pop(name, None)
        elif directive == "include":
            if active:
                output.extend(self._handle_include(rest, location))
        elif directive == "error":
            if active:
                raise PreprocessorError(f"#error {rest}", location)
        elif directive in ("pragma", "line"):
            pass  # Accepted and ignored.
        else:
            return False
        if directive not in ("include",):
            output.append("")  # Keep line numbering roughly stable.
        return True

    def _handle_define(self, rest: str, location: SourceLocation) -> None:
        match = _IDENTIFIER_RE.match(rest)
        if not match:
            raise PreprocessorError("#define requires a name", location)
        name = match.group(0)
        after = rest[match.end() :]
        if after.startswith("("):
            close = _matching_paren(after, 0)
            if close < 0:
                raise PreprocessorError(
                    "unterminated macro parameter list", location
                )
            param_text = after[1:close].strip()
            body = after[close + 1 :].strip()
            parameters: list[str] = []
            variadic = False
            if param_text:
                for param in param_text.split(","):
                    param = param.strip()
                    if param == "...":
                        variadic = True
                    elif _IDENTIFIER_RE.fullmatch(param):
                        parameters.append(param)
                    else:
                        raise PreprocessorError(
                            f"bad macro parameter {param!r}", location
                        )
            self._macros[name] = Macro(name, body, parameters, variadic)
        else:
            self._macros[name] = Macro(name, after.strip())

    def _handle_include(
        self, rest: str, location: SourceLocation
    ) -> list[str]:
        rest = rest.strip()
        if rest.startswith('"') and rest.endswith('"'):
            target = rest[1:-1]
        elif rest.startswith("<") and rest.endswith(">"):
            target = rest[1:-1]
        else:
            raise PreprocessorError(f"malformed #include {rest!r}", location)
        if target in self._include_stack:
            raise PreprocessorError(
                f"recursive #include of {target!r}", location
            )
        text = self._load_header(target, location)
        self._include_stack.append(target)
        try:
            return self._process_lines(
                _splice_continuations(_strip_comments(text)), target
            )
        finally:
            self._include_stack.pop()

    def _load_header(self, target: str, location: SourceLocation) -> str:
        if target in self._virtual_headers:
            return self._virtual_headers[target]
        for directory in self._include_dirs:
            candidate = os.path.join(directory, target)
            if os.path.isfile(candidate):
                with open(candidate, encoding="utf-8") as handle:
                    return handle.read()
        raise PreprocessorError(f"cannot find include file {target!r}", location)

    # ------------------------------------------------------------------
    # Conditional expressions.

    def _evaluate_condition(self, text: str, location: SourceLocation) -> bool:
        expanded = self._expand_line(
            _replace_defined(text, self._macros), location
        )
        # Remaining identifiers evaluate to 0, per the C standard.
        expanded = _IDENTIFIER_RE.sub("0", expanded)
        try:
            value = _ConditionParser(expanded, location).parse()
        except PreprocessorError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise PreprocessorError(
                f"cannot evaluate #if expression: {exc}", location
            ) from exc
        return value != 0

    # ------------------------------------------------------------------
    # Macro expansion.

    def _expand_line(
        self,
        line: str,
        location: SourceLocation,
        hidden: frozenset[str] = frozenset(),
        depth: int = 0,
    ) -> str:
        if depth > _MAX_EXPANSION_DEPTH:
            raise PreprocessorError("macro expansion too deep", location)
        result: list[str] = []
        index = 0
        length = len(line)
        search = _MACRO_SCAN.search
        while (match := search(line, index)) is not None:
            result.append(line[index : match.start()])
            span = match.group()
            index = match.end()
            if span[0] in "\"'":
                if len(span) == 1:
                    raise PreprocessorError("unterminated literal", location)
                result.append(span)
                continue
            name = span
            macro = self._macros.get(name)
            if macro is None or name in hidden:
                result.append(name)
                continue
            if macro.is_function_like:
                probe = index
                while probe < length and line[probe] in " \t":
                    probe += 1
                if probe >= length or line[probe] != "(":
                    result.append(name)
                    continue
                close = _matching_paren(line, probe)
                if close < 0:
                    raise PreprocessorError(
                        f"unterminated arguments to macro {name}", location
                    )
                arguments = _split_arguments(line[probe + 1 : close])
                # Arguments are fully macro-expanded before
                # substitution (C89 6.8.3); only the rescan of the
                # substituted body hides the current macro.
                arguments = [
                    self._expand_line(argument, location, hidden, depth + 1)
                    for argument in arguments
                ]
                index = close + 1
                body = self._substitute_parameters(macro, arguments, location)
            else:
                body = macro.body
            self._expanded += len(body)
            if self._expanded > MAX_EXPANSION_CHARS:
                raise PreprocessorError(
                    f"macro expansion exceeds {MAX_EXPANSION_CHARS} "
                    "characters",
                    location,
                )
            result.append(
                self._expand_line(body, location, hidden | {name}, depth + 1)
            )
        result.append(line[index:])
        return "".join(result)

    def _substitute_parameters(
        self, macro: Macro, arguments: list[str], location: SourceLocation
    ) -> str:
        parameters = macro.parameters or []
        if arguments == [""] and not parameters and not macro.variadic:
            arguments = []
        if macro.variadic:
            fixed = arguments[: len(parameters)]
            rest = arguments[len(parameters) :]
            mapping = dict(zip(parameters, (arg.strip() for arg in fixed)))
            mapping["__VA_ARGS__"] = ", ".join(arg.strip() for arg in rest)
        else:
            if len(arguments) != len(parameters):
                raise PreprocessorError(
                    f"macro {macro.name} expects {len(parameters)} arguments,"
                    f" got {len(arguments)}",
                    location,
                )
            mapping = dict(
                zip(parameters, (arg.strip() for arg in arguments))
            )


        def substitute(match: re.Match[str]) -> str:
            span = match.group()
            if span == '"' or span == "'":
                raise PreprocessorError("unterminated literal", location)
            return mapping.get(span, span)  # literals map to themselves

        return _MACRO_SCAN.sub(substitute, macro.body)


# ----------------------------------------------------------------------
# Text utilities.


def _strip_comments(text: str) -> str:
    """Replace comments with spaces, preserving newlines and literals."""

    def replace(match: re.Match[str]) -> str:
        span = match.group()
        if span[0] == "/":
            if span[1] == "/":
                return ""
            return " " + "\n" * span.count("\n")
        if len(span) == 1:
            raise PreprocessorError("unterminated literal", SourceLocation())
        return span

    return _COMMENT_SCAN.sub(replace, text)


def _splice_continuations(text: str) -> list[str]:
    """Split into lines, joining backslash-continued lines.

    A joined line sits at the position of its first fragment, followed
    by one blank line per continuation, so later line numbers hold.
    """
    rebuilt: list[str] = []
    pending = ""
    pending_count = 0
    for raw in text.split("\n"):
        if raw.endswith("\\"):
            pending += raw[:-1]
            pending_count += 1
            continue
        rebuilt.append(pending + raw)
        rebuilt.extend([""] * pending_count)
        pending = ""
        pending_count = 0
    if pending:
        rebuilt.append(pending)
        rebuilt.extend([""] * (pending_count - 1))
    return rebuilt


def _matching_paren(text: str, open_index: int) -> int:
    """Index of the ``)`` matching the ``(`` at ``open_index``, or -1."""
    depth = 0
    for match in _ARGUMENT_SCAN.finditer(text, open_index):
        span = match.group()
        if span == "(":
            depth += 1
        elif span == ")":
            depth -= 1
            if depth == 0:
                return match.start()
        elif span == '"' or span == "'":
            raise PreprocessorError("unterminated literal", SourceLocation())
    return -1


def _split_arguments(text: str) -> list[str]:
    """Split macro arguments on top-level commas."""
    arguments: list[str] = []
    depth = 0
    start = 0
    for match in _ARGUMENT_SCAN.finditer(text):
        span = match.group()
        if span == "(" or span == "[":
            depth += 1
        elif span == ")" or span == "]":
            depth -= 1
        elif span == ",":
            if depth == 0:
                arguments.append(text[start : match.start()])
                start = match.end()
        elif span == '"' or span == "'":
            raise PreprocessorError("unterminated literal", SourceLocation())
    arguments.append(text[start:])
    return arguments


def _replace_defined(text: str, macros: dict[str, Macro]) -> str:
    """Rewrite ``defined(X)`` / ``defined X`` to 1 or 0 before expansion."""

    def replace(match: re.Match[str]) -> str:
        name = match.group(1) or match.group(2)
        return "1" if name in macros else "0"

    return _DEFINED_RE.sub(replace, text)


# ----------------------------------------------------------------------
# #if expression evaluation (integer constant expressions).


class _ConditionParser:
    """Evaluator for #if integer expressions: recursive descent, with
    binary operators climbed through :data:`BINARY_PRECEDENCE`."""

    def __init__(self, text: str, location: SourceLocation):
        self._tokens = tokenize(text, location.filename)
        self._pos = 0
        self._location = location

    def parse(self) -> int:
        value = self._ternary()
        if self._tokens[self._pos].kind is not TokenKind.EOF:
            raise PreprocessorError(
                "trailing tokens in #if expression", self._location
            )
        return value

    def _peek_kind(self):
        return self._tokens[self._pos].kind

    def _take(self):
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _ternary(self) -> int:
        condition = self._binary()
        if self._peek_kind() is TokenKind.QUESTION:
            self._take()
            then_value = self._ternary()
            if self._peek_kind() is not TokenKind.COLON:
                raise PreprocessorError("expected : in #if", self._location)
            self._take()
            else_value = self._ternary()
            return then_value if condition else else_value
        return condition

    def _binary(self, min_precedence: int = 1) -> int:
        value = self._unary()
        while True:
            kind = self._peek_kind()
            precedence = BINARY_PRECEDENCE.get(kind)
            if precedence is None or precedence < min_precedence:
                return value
            self._take()
            right = self._binary(precedence + 1)
            value = _CONDITION_OPERATORS[kind](value, right, self._location)

    def _unary(self) -> int:
        kind = self._peek_kind()
        if kind is TokenKind.MINUS:
            self._take()
            return -self._unary()
        if kind is TokenKind.PLUS:
            self._take()
            return self._unary()
        if kind is TokenKind.BANG:
            self._take()
            return int(not self._unary())
        if kind is TokenKind.TILDE:
            self._take()
            return ~self._unary()
        if kind is TokenKind.LPAREN:
            self._take()
            value = self._ternary()
            if self._peek_kind() is not TokenKind.RPAREN:
                raise PreprocessorError("expected ) in #if", self._location)
            self._take()
            return value
        if kind in (TokenKind.INT_LITERAL, TokenKind.CHAR_LITERAL):
            return int(self._take().value)  # type: ignore[arg-type]
        raise PreprocessorError(
            f"unexpected token in #if expression: {self._take().text!r}",
            self._location,
        )


def _div(a: int, b: int, location: SourceLocation) -> int:
    if b == 0:
        raise PreprocessorError("division by zero in #if", location)
    return int(a / b) if (a < 0) != (b < 0) and a % b else a // b


def _mod(a: int, b: int, location: SourceLocation) -> int:
    if b == 0:
        raise PreprocessorError("modulo by zero in #if", location)
    return a - _div(a, b, location) * b


#: ``#if`` binary operators; ``&&`` and ``||`` evaluate both sides.
_CONDITION_OPERATORS = {
    TokenKind.LOGICAL_OR: lambda a, b, _: int(bool(a) or bool(b)),
    TokenKind.LOGICAL_AND: lambda a, b, _: int(bool(a) and bool(b)),
    TokenKind.PIPE: lambda a, b, _: a | b,
    TokenKind.CARET: lambda a, b, _: a ^ b,
    TokenKind.AMP: lambda a, b, _: a & b,
    TokenKind.EQ: lambda a, b, _: int(a == b),
    TokenKind.NE: lambda a, b, _: int(a != b),
    TokenKind.LT: lambda a, b, _: int(a < b),
    TokenKind.GT: lambda a, b, _: int(a > b),
    TokenKind.LE: lambda a, b, _: int(a <= b),
    TokenKind.GE: lambda a, b, _: int(a >= b),
    TokenKind.SHL: lambda a, b, _: a << b,
    TokenKind.SHR: lambda a, b, _: a >> b,
    TokenKind.PLUS: lambda a, b, _: a + b,
    TokenKind.MINUS: lambda a, b, _: a - b,
    TokenKind.STAR: lambda a, b, _: a * b,
    TokenKind.SLASH: _div,
    TokenKind.PERCENT: _mod,
}


def preprocess(
    text: str,
    filename: str = "<input>",
    include_dirs: list[str] | None = None,
    virtual_headers: dict[str, str] | None = None,
    predefined: dict[str, str] | None = None,
) -> str:
    """Convenience wrapper around :class:`Preprocessor`."""
    return Preprocessor(include_dirs, virtual_headers, predefined).preprocess(
        text, filename
    )
