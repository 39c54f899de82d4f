"""Pinned frontend outputs: token streams, ASTs and lexer edge cases.

For every suite and suite-XL program, ``frontend_digests.json`` holds a
SHA-256 of the token stream (kind, text, line, column, value) and one
of the AST (every node's class and every field, node ids and locations
included, C types rendered by ``str``).  A rewrite of the lexer or
parser must leave both unchanged.  ``EDGE_CASES`` pins the exact
outcome of small inputs at the corners of the lexical grammar: the
token list, or the error's class, message and location.

After a deliberate change to the frontend's output, re-pin with::

    PYTHONPATH=src python tests/test_frontend_pins.py --pin
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import pytest

from repro.frontend import ast_nodes as ast
from repro.frontend import ctypes as ct
from repro.frontend import parse, preprocess, tokenize
from repro.frontend.errors import FrontendError, SourceLocation
from repro.suite import known_program_names, program_source

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "frontend_digests.json"
)


def token_digest(text: str, filename: str) -> str:
    lines = [
        f"{token.kind.name}\t{token.text!r}\t{token.location.line}\t"
        f"{token.location.column}\t{token.value!r}\n"
        for token in tokenize(text, filename)
    ]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def _render(value: object, out: list[str]) -> None:
    if isinstance(value, ast.Node):
        out.append(f"({type(value).__name__}")
        for field in dataclasses.fields(value):
            out.append(f" {field.name}=")
            _render(getattr(value, field.name), out)
        out.append(")")
    elif isinstance(value, list):
        out.append("[")
        for item in value:
            _render(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(value, (ct.CType, SourceLocation)):
        out.append(str(value))
    else:
        out.append(repr(value))


def ast_digest(text: str, filename: str) -> str:
    out: list[str] = []
    _render(parse(text, filename), out)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def program_digests(name: str) -> dict[str, str]:
    text = preprocess(program_source(name), name)
    return {
        "tokens": token_digest(text, name),
        "ast": ast_digest(text, name),
    }


def _pinned() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_digest_file_covers_every_program():
    assert sorted(_pinned()) == sorted(known_program_names("all"))


@pytest.mark.parametrize("name", known_program_names("all"))
def test_program_tokens_and_ast_are_pinned(name):
    assert program_digests(name) == _pinned()[name]


def _outcome(text: str):
    try:
        return [
            (
                token.kind.name,
                token.text,
                token.location.line,
                token.location.column,
                token.value,
            )
            for token in tokenize(text)
        ]
    except FrontendError as error:
        return (
            type(error).__name__,
            error.message,
            error.location.line,
            error.location.column,
        )


def _eof(line: int, column: int) -> tuple:
    return ("EOF", "", line, column, None)


EDGE_CASES = [
    # Numbers.
    ("0x", ("LexError", "malformed hex literal", 1, 1)),
    ("0777", [("INT_LITERAL", "0777", 1, 1, 511), _eof(1, 5)]),
    ("089", ("LexError", "invalid octal literal 089", 1, 1)),
    (
        "1e",
        [
            ("INT_LITERAL", "1", 1, 1, 1),
            ("IDENTIFIER", "e", 1, 2, None),
            _eof(1, 3),
        ],
    ),
    (
        "1e+",
        [
            ("INT_LITERAL", "1", 1, 1, 1),
            ("IDENTIFIER", "e", 1, 2, None),
            ("PLUS", "+", 1, 3, None),
            _eof(1, 4),
        ],
    ),
    (".5", [("FLOAT_LITERAL", ".5", 1, 1, 0.5), _eof(1, 3)]),
    ("5.", [("FLOAT_LITERAL", "5.", 1, 1, 5.0), _eof(1, 3)]),
    (
        "1..2",
        [
            ("INT_LITERAL", "1", 1, 1, 1),
            ("DOT", ".", 1, 2, None),
            ("FLOAT_LITERAL", ".2", 1, 3, 0.2),
            _eof(1, 5),
        ],
    ),
    ("10ul", [("INT_LITERAL", "10ul", 1, 1, 10), _eof(1, 5)]),
    ("0.5e-3F", [("FLOAT_LITERAL", "0.5e-3F", 1, 1, 0.0005), _eof(1, 8)]),
    ("0X1fUL", [("INT_LITERAL", "0X1fUL", 1, 1, 31), _eof(1, 7)]),
    ("1e+5", [("FLOAT_LITERAL", "1e+5", 1, 1, 100000.0), _eof(1, 5)]),
    ("3.f", [("FLOAT_LITERAL", "3.f", 1, 1, 3.0), _eof(1, 4)]),
    ("1.e2", [("FLOAT_LITERAL", "1.e2", 1, 1, 100.0), _eof(1, 5)]),
    ("00", [("INT_LITERAL", "00", 1, 1, 0), _eof(1, 3)]),
    ("07L", [("INT_LITERAL", "07L", 1, 1, 7), _eof(1, 4)]),
    # Punctuators.
    (
        "a...b",
        [
            ("IDENTIFIER", "a", 1, 1, None),
            ("ELLIPSIS", "...", 1, 2, None),
            ("IDENTIFIER", "b", 1, 5, None),
            _eof(1, 6),
        ],
    ),
    ("//=", [_eof(1, 4)]),
    (
        "x>>=y",
        [
            ("IDENTIFIER", "x", 1, 1, None),
            ("SHR_ASSIGN", ">>=", 1, 2, None),
            ("IDENTIFIER", "y", 1, 5, None),
            _eof(1, 6),
        ],
    ),
    (
        "p->q",
        [
            ("IDENTIFIER", "p", 1, 1, None),
            ("ARROW", "->", 1, 2, None),
            ("IDENTIFIER", "q", 1, 4, None),
            _eof(1, 5),
        ],
    ),
    ("@", ("LexError", "unexpected character '@'", 1, 1)),
    (
        "a+++b",
        [
            ("IDENTIFIER", "a", 1, 1, None),
            ("INCREMENT", "++", 1, 2, None),
            ("PLUS", "+", 1, 4, None),
            ("IDENTIFIER", "b", 1, 5, None),
            _eof(1, 6),
        ],
    ),
    (
        "<<=<=<",
        [
            ("SHL_ASSIGN", "<<=", 1, 1, None),
            ("LE", "<=", 1, 4, None),
            ("LT", "<", 1, 6, None),
            _eof(1, 7),
        ],
    ),
    # Literals.
    ("'\\x41'", [("CHAR_LITERAL", "'\\x41'", 1, 1, 65), _eof(1, 7)]),
    ("'\\101'", [("CHAR_LITERAL", "'\\101'", 1, 1, 65), _eof(1, 7)]),
    ("'\\q'", ("LexError", "unknown escape sequence \\q", 1, 1)),
    ("''", ("LexError", "empty or unterminated character literal", 1, 1)),
    ("'ab'", ("LexError", "unterminated character literal", 1, 1)),
    ("'\\x'", ("LexError", "\\x with no hex digits", 1, 1)),
    ("'\\", ("LexError", "unterminated escape sequence", 1, 1)),
    ('"abc', ("LexError", "unterminated string literal", 1, 1)),
    ('"ab\ncd"', ("LexError", "unterminated string literal", 1, 1)),
    ('"\\', ("LexError", "unterminated escape sequence", 1, 1)),
    (
        '"a\\tb\\n" "y"',
        [
            ("STRING_LITERAL", '"a\\tb\\n"', 1, 1, "a\tb\n"),
            ("STRING_LITERAL", '"y"', 1, 10, "y"),
            _eof(1, 13),
        ],
    ),
    ("/* open", ("LexError", "unterminated block comment", 1, 1)),
    # Skipped text and locations.
    (
        "a\n  b\t c",
        [
            ("IDENTIFIER", "a", 1, 1, None),
            ("IDENTIFIER", "b", 2, 3, None),
            ("IDENTIFIER", "c", 2, 6, None),
            _eof(2, 7),
        ],
    ),
    ("#stray\nx", [("IDENTIFIER", "x", 2, 1, None), _eof(2, 2)]),
    ("/* c\n */ x", [("IDENTIFIER", "x", 2, 5, None), _eof(2, 6)]),
    ("x\n  @", ("LexError", "unexpected character '@'", 2, 3)),
]


@pytest.mark.parametrize(
    "text, expected", EDGE_CASES, ids=[repr(text) for text, _ in EDGE_CASES]
)
def test_lexer_edge_case_outcome_is_pinned(text, expected):
    assert _outcome(text) == expected


def _pin() -> None:
    digests = {
        name: program_digests(name) for name in known_program_names("all")
    }
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(digests)} programs -> {DIGESTS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python tests/test_frontend_pins.py --pin")
    _pin()
