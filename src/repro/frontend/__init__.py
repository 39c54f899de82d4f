"""C-subset frontend: preprocessor, lexer, parser, types, folding.

:func:`compile_source` is the one-call entry point used throughout the
library: it preprocesses and parses a C source string into a typed
:class:`~repro.frontend.ast_nodes.TranslationUnit`.
"""

from __future__ import annotations

from repro.frontend.ast_nodes import TranslationUnit
from repro.frontend.errors import (
    FrontendError,
    LexError,
    ParseError,
    PreprocessorError,
    SourceLocation,
)
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse
from repro.frontend.preprocessor import Preprocessor, preprocess
from repro.obs import span

__all__ = [
    "FrontendError",
    "LexError",
    "ParseError",
    "Preprocessor",
    "PreprocessorError",
    "SourceLocation",
    "TranslationUnit",
    "compile_source",
    "parse",
    "preprocess",
    "tokenize",
]


def compile_source(
    text: str,
    filename: str = "<input>",
    include_dirs: list[str] | None = None,
    virtual_headers: dict[str, str] | None = None,
    predefined: dict[str, str] | None = None,
) -> TranslationUnit:
    """Preprocess and parse C source text in one step."""
    with span("frontend.preprocess"):
        preprocessed = preprocess(
            text,
            filename,
            include_dirs=include_dirs,
            virtual_headers=virtual_headers,
            predefined=predefined,
        )
    with span("frontend.parse"):
        return parse(preprocessed, filename)
