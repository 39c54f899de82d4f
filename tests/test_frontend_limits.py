"""The frontend's two input rules: ASCII lexical grammar, one nesting limit.

Every nesting form is driven to the parser's limit and one level past
it.  The tree at the limit must analyse end to end under Python's
default recursion limit (the test suite raises the limit, which would
hide a deep recursion), on a fresh thread as the daemon's workers do;
one level deeper must be a :class:`ParseError` at the token that
crossed the limit.  Non-ASCII characters outside literals and comments
are a :class:`LexError` at the character, never a crash.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.analysis.session import AnalysisSession
from repro.frontend import compile_source
from repro.frontend.errors import LexError, ParseError, PreprocessorError
from repro.frontend.parser import MAX_NESTING
from repro.frontend.preprocessor import MAX_EXPANSION_CHARS
from repro.program import Program
from repro.serve import (
    ServeClient,
    ServeConfig,
    build_report,
    start_in_thread,
)

DEFAULT_RECURSION_LIMIT = 1000


@dataclass(frozen=True)
class Form:
    """One nesting form: ``head``, then one ``level`` line per nesting
    level, then ``inner`` and one ``close`` per level, then ``tail``.
    ``column`` is where the level's counted token sits on its line.
    A statement nests a statement, so statement forms end in an
    ``inner`` statement that is a level of its own."""

    name: str
    head: str
    level: str
    inner: str
    close: str
    tail: str
    column: int
    minimum: int = 1
    inner_levels: int = 0

    def source(self, depth: int) -> str:
        return (
            self.head
            + "\n"
            + "".join(self.level + "\n" for _ in range(depth))
            + self.inner
            + self.close * depth
            + self.tail
        )

    def level_line(self, level: int) -> int:
        return self.head.count("\n") + 1 + level

    def crossing(self, depth: int) -> tuple[int, int]:
        """Line and column of the token that first goes past the limit
        in the source one level deeper than ``depth``, the deepest
        accepted."""
        if self.inner_levels:
            return self.level_line(depth + 1) + 1, 1
        return self.level_line(depth + 1), self.column


_MAIN = "int f(int a) { return a; }\nint main(void) {\nint x; int a; a = 1;"
_EXPR = _MAIN + "\nx ="
_END = ";\nreturn 0;\n}\n"
_TAIL = "\nreturn 0;\n}\n"

FORMS = [
    # C89 (5.2.4.1): 32 nested parentheses in a full expression,
    # 15 nested statements, 12 declarator modifiers.
    Form("parentheses", _EXPR, "(", "a", ")", _END, 1, minimum=32),
    Form("unary", _EXPR, "-", "a", "", _END, 1),
    Form("casts", _EXPR, "(int)", "a", "", _END, 1),
    Form("calls", _EXPR, "f(", "a", ")", _END, 2),
    Form("conditional", _EXPR, "a ? a :", "a", "", _END, 3),
    Form("assignment", _MAIN + "\nx =", "a =", "a", "", _END, 3),
    Form("sum", _EXPR + " a", "+ a", "", "", _END, 1),
    Form("logical", _EXPR + " a", "&& a", "", "", _END, 1),
    Form("subscripts", _MAIN + "\nint *p[1]; x = *p", "[0]", "", "", _END, 1),
    Form("blocks", _MAIN, "{", "", "}", _TAIL, 1, 15),
    Form("if", _MAIN, "if (a)", ";", "", _TAIL, 1, 15, inner_levels=1),
    Form("while", _MAIN, "while (a)", ";", "", _TAIL, 1, inner_levels=1),
    Form("for", _MAIN, "for (;;)", "break;", "", _TAIL, 1, inner_levels=1),
    Form(
        "switch",
        _MAIN,
        "switch (a) { case 1:",
        ";",
        "}",
        _TAIL,
        1,
        inner_levels=1,
    ),
    Form("pointers", "int", "*", "p", "", ";\nint main(void) { return 0; }\n",
         1, 12),
    Form("arrays", "int p", "[1]", "", "", ";\nint main(void) { return 0; }\n",
         1, 12),
    Form(
        "functions",
        "int g",
        "(int g",
        "",
        ")",
        ";\nint main(void) { return 0; }\n",
        1,
        12,
    ),
    Form("initializers", _MAIN + "\nint v[1] =", "{", "1", "}", _END, 1),
    Form(
        "structs",
        "",
        "struct {",
        "int leaf;",
        "} m;",
        "\nint main(void) { return 0; }\n",
        8,
    ),
]


@pytest.fixture
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    yield
    sys.setrecursionlimit(previous)


def _on_fresh_thread(function: Callable[[], object]) -> object:
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(function).result()


def _deepest_accepted(form: Form) -> int:
    for depth in range(MAX_NESTING, 0, -1):
        try:
            compile_source(form.source(depth), f"{form.name}.c")
        except ParseError:
            continue
        return depth
    raise AssertionError(f"{form.name}: not even one level parses")


def _analyse(source: str, name: str) -> dict:
    program = Program.from_source(source, name)
    return build_report(AnalysisSession.of(program), name=name)


@pytest.mark.parametrize("form", FORMS, ids=[form.name for form in FORMS])
def test_tree_at_the_limit_analyses_and_one_deeper_is_rejected(
    form, default_recursion_limit
):
    depth = _deepest_accepted(form)
    assert depth >= form.minimum
    # Each level of the form is one level of the count: the template's
    # fixed overhead is a handful of levels, not a fraction of them.
    assert depth >= MAX_NESTING - 6

    report = _on_fresh_thread(
        lambda: _analyse(form.source(depth), f"{form.name}.c")
    )
    assert "main" in report["functions"]

    with pytest.raises(ParseError) as info:
        _on_fresh_thread(
            lambda: compile_source(form.source(depth + 1), f"{form.name}.c")
        )
    assert info.value.message == f"nesting exceeds {MAX_NESTING} levels"
    location = info.value.location
    assert (location.line, location.column) == form.crossing(depth)


# ----------------------------------------------------------------------
# Hostile sources: each is a structured error, never a crash.

MACRO_BOMB = (
    "#define A x+x+x+x\n"
    "#define B A+A+A+A\n"
    "#define C B+B+B+B\n"
    "#define D C+C+C+C\n"
    "#define E D+D+D+D\n"
    "#define F E+E+E+E\n"
    "#define G F+F+F+F\n"
    "int f(int x) { return G; }\n"
)

#: Three more levels: about a million ``x``, past the preprocessor's
#: output budget long before the parser would see it.
EXPANSION_CHAIN = MACRO_BOMB.replace(
    "int f(int x) { return G; }\n",
    "#define H G+G+G+G\n"
    "#define I H+H+H+H\n"
    "#define J I+I+I+I\n"
    "int f(int x) { return J; }\n",
)

HOSTILE = {
    "parentheses": "int f(int x) { return " + "(" * 200 + "x"
    + ")" * 200 + "; }\n",
    "flat_sum": "int f(int x) { return x" + "+x" * 4999 + "; }\n",
    "macro_bomb": MACRO_BOMB,
    "expansion_chain": EXPANSION_CHAIN,
    "identifier": "int café = 1;\nint main(void) { return 0; }\n",
    "digit": "int x;\nint main(void) { x = ²; return x; }\n",
}

#: The error each hostile source raises (otherwise a ParseError).
HOSTILE_ERRORS = {
    "expansion_chain": PreprocessorError,
    "identifier": LexError,
    "digit": LexError,
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_source_is_a_frontend_error(name, default_recursion_limit):
    expected = HOSTILE_ERRORS.get(name, ParseError)
    with pytest.raises(expected):
        _on_fresh_thread(lambda: Program.from_source(HOSTILE[name], name))


def test_expansion_chain_stops_at_the_output_budget():
    clock = time.perf_counter()
    with pytest.raises(PreprocessorError) as info:
        Program.from_source(EXPANSION_CHAIN, "chain.c")
    assert time.perf_counter() - clock < 1.0
    assert info.value.message == (
        f"macro expansion exceeds {MAX_EXPANSION_CHARS} characters"
    )
    assert str(info.value.location) == "chain.c:11:1"


def test_non_ascii_identifier_is_a_lex_error_at_the_character():
    with pytest.raises(LexError) as info:
        Program.from_source(HOSTILE["identifier"], "cafe.c")
    assert info.value.message == "unexpected character 'é'"
    assert str(info.value.location) == "cafe.c:1:8"


def test_non_ascii_digit_is_a_lex_error_at_the_character():
    with pytest.raises(LexError) as info:
        Program.from_source(HOSTILE["digit"], "digit.c")
    assert info.value.message == "unexpected character '²'"
    assert str(info.value.location) == "digit.c:2:22"


def test_non_ascii_macro_body_is_a_lex_error_where_it_expands():
    source = "#define E é\nint main(void) { return E; }\n"
    with pytest.raises(LexError) as info:
        Program.from_source(source, "macro.c")
    assert info.value.message == "unexpected character 'é'"
    assert info.value.location.line == 2


def test_non_ascii_in_literals_and_comments_still_analyses():
    source = (
        "/* café ² */\n"
        "int main(void) {\n"
        "    char c = 'é'; // ü\n"
        '    printf("café ²\\n");\n'
        "    return c;\n"
        "}\n"
    )
    report = _analyse(source, "literals.c")
    assert report["functions"] == ["main"]


@pytest.fixture
def served():
    running = start_in_thread(ServeConfig(port=0, workers=2))
    yield ServeClient(running.host, running.port, timeout=60)
    if running.drained is None:
        running.shutdown()


def test_daemon_answers_hostile_sources_with_structured_400(served):
    for name, source in sorted(HOSTILE.items()):
        response = served.analyze(source, name=f"{name}.c")
        assert response.status == 400, (name, response.payload)
        assert set(response.payload) == {
            "error",
            "file",
            "line",
            "col",
            "trace_id",
        }
        assert response.payload["file"] == f"{name}.c"
