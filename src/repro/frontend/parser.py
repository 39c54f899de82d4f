"""Recursive-descent parser for the C subset.

Produces a typed :class:`~repro.frontend.ast_nodes.TranslationUnit`.  The
parser resolves typedef names (the classic lexer-feedback problem) with
scoped symbol tables, computes the C type of every expression as it
builds it, and splits multi-declarator declarations into one
:class:`Declaration` node per name.

Grammar coverage: everything the benchmark suite and the paper's
analyses need — full expression grammar with C precedence, all statement
forms including ``goto``/labels and ``switch`` (arms grouped into
:class:`SwitchCase` nodes with fall-through preserved), struct/union/enum
definitions, typedefs, function pointers, arrays, and initializer lists.
Notable omissions: bitfields, K&R-style parameter declarations, and
designated initializers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.frontend import ast_nodes as ast
from repro.frontend import ctypes as ct
from repro.frontend.builtins_list import BUILTIN_FUNCTIONS
from repro.frontend.errors import ParseError, SourceLocation
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import BINARY_PRECEDENCE, Token, TokenKind
from repro.obs import span

_K = TokenKind

_TYPE_SPECIFIER_KINDS = {
    _K.KW_VOID,
    _K.KW_CHAR,
    _K.KW_SHORT,
    _K.KW_INT,
    _K.KW_LONG,
    _K.KW_FLOAT,
    _K.KW_DOUBLE,
    _K.KW_SIGNED,
    _K.KW_UNSIGNED,
    _K.KW_STRUCT,
    _K.KW_UNION,
    _K.KW_ENUM,
}

_STORAGE_KINDS = {
    _K.KW_TYPEDEF: "typedef",
    _K.KW_STATIC: "static",
    _K.KW_EXTERN: "extern",
    _K.KW_AUTO: "",
    _K.KW_REGISTER: "",
}

_QUALIFIER_KINDS = {_K.KW_CONST, _K.KW_VOLATILE}

_ASSIGNMENT_OPS = {
    _K.ASSIGN: "=",
    _K.ADD_ASSIGN: "+=",
    _K.SUB_ASSIGN: "-=",
    _K.MUL_ASSIGN: "*=",
    _K.DIV_ASSIGN: "/=",
    _K.MOD_ASSIGN: "%=",
    _K.AND_ASSIGN: "&=",
    _K.OR_ASSIGN: "|=",
    _K.XOR_ASSIGN: "^=",
    _K.SHL_ASSIGN: "<<=",
    _K.SHR_ASSIGN: ">>=",
}

_RELATIONAL_OPS = {"==", "!=", "<", ">", "<=", ">="}

_UNARY_KINDS = {
    _K.INCREMENT,
    _K.DECREMENT,
    _K.AMP,
    _K.STAR,
    _K.MINUS,
    _K.PLUS,
    _K.BANG,
    _K.TILDE,
    _K.KW_SIZEOF,
}

_POSTFIX_KINDS = {
    _K.LBRACKET,
    _K.LPAREN,
    _K.DOT,
    _K.ARROW,
    _K.INCREMENT,
    _K.DECREMENT,
}

#: The deepest nesting the parser accepts.  One count covers
#: statements, expressions, declarators and initializers, and each
#: link of a chain (``a + b + c``, ``f()()``) is a level of its own, so
#: the count bounds the depth of the tree every later pass recurses
#: through.  Sized so that a tree at the limit fits inside Python's
#: default recursion limit of 1000 frames in every pass, on a fresh
#: thread.  The parser itself is the deepest pass: nested parentheses
#: take eight of its frames a level, and 120 levels overflow.
MAX_NESTING = 100


class _Scope:
    """One lexical scope: an ordinary namespace and a tag namespace."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        # name -> ("typedef"|"var"|"param"|"function"|"enum-constant",
        #          CType, extra).  ``extra`` is the enum constant's value
        #          for enum-constants and the uniquified name for locals.
        self.names: dict[str, tuple[str, ct.CType, int | str | None]] = {}
        self.tags: dict[str, ct.CType] = {}

    def lookup(
        self, name: str
    ) -> Optional[tuple[str, ct.CType, int | str | None]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def lookup_tag(self, tag: str) -> Optional[ct.CType]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if tag in scope.tags:
                return scope.tags[tag]
            scope = scope.parent
        return None

    def declare(
        self,
        name: str,
        kind: str,
        ctype: ct.CType,
        extra: int | str | None = None,
    ) -> None:
        self.names[name] = (kind, ctype, extra)


class Parser:
    """Parses one translation unit."""

    def __init__(
        self,
        text: str,
        filename: str = "<input>",
        builtin_functions: Optional[dict[str, ct.FunctionType]] = None,
    ):
        with span("frontend.lex"):
            self._tokens = tokenize(text, filename)
        # A second EOF: the parser looks at most one token ahead and
        # never advances past the first EOF, so no lookup needs a bound.
        self._tokens.append(self._tokens[-1])
        self._pos = 0
        # Open nesting levels, and the deepest level the subtree being
        # parsed reaches once chain links above it are counted.
        self._depth = 0
        self._peak = 0
        self._filename = filename
        self._global_scope = _Scope()
        self._scope = self._global_scope
        self._builtins = (
            BUILTIN_FUNCTIONS
            if builtin_functions is None
            else builtin_functions
        )
        # Local names used in the current function, for uniquifying
        # shadowed declarations (None at file scope).
        self._function_local_names: Optional[set[str]] = None

    def _uniquify_local(self, name: str) -> str:
        """Rename shadowing locals so every local in a function body has
        a distinct name (``x``, ``x#2``, ``x#3``, ...).  Downstream
        passes (CFG, interpreter) can then treat locals as a flat map."""
        if self._function_local_names is None:
            return name
        unique = name
        counter = 2
        while unique in self._function_local_names:
            unique = f"{name}#{counter}"
            counter += 1
        self._function_local_names.add(unique)
        return unique

    # ------------------------------------------------------------------
    # Token helpers.

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _at(self, kind: TokenKind, offset: int = 0) -> bool:
        return self._tokens[self._pos + offset].kind is kind

    def _take(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not _K.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        token = self._peek()
        if token.kind is not kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind.value!r}{where}, found {token.text!r}",
                token.location,
            )
        return self._take()

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._take()
        return None

    def _location(self) -> SourceLocation:
        return self._peek().location

    # ------------------------------------------------------------------
    # Nesting limit.

    def _enter(self, token: Token) -> None:
        """Open one nesting level at ``token``; the caller closes it
        with ``self._depth -= 1``."""
        depth = self._depth + 1
        if depth > MAX_NESTING:
            _too_deep(token)
        self._depth = depth
        if depth > self._peak:
            self._peak = depth

    def _begin_subtree(self) -> int:
        """Start measuring the subtree about to be parsed, for a caller
        that may wrap it in a new node; returns the enclosing peak for
        :meth:`_end_subtree`."""
        outer = self._peak
        self._peak = self._depth
        return outer

    def _wrap(self, token: Token) -> None:
        """Count the new node at ``token`` that takes the subtree parsed
        so far as its first child, pushing that subtree one level down."""
        self._peak += 1
        if self._peak > MAX_NESTING:
            _too_deep(token)

    def _end_subtree(self, outer: int) -> None:
        if outer > self._peak:
            self._peak = outer

    # ------------------------------------------------------------------
    # Scopes.

    def _push_scope(self) -> None:
        self._scope = _Scope(self._scope)

    def _pop_scope(self) -> None:
        assert self._scope.parent is not None
        self._scope = self._scope.parent

    def _is_typedef_name(self, name: str) -> bool:
        entry = self._scope.lookup(name)
        return entry is not None and entry[0] == "typedef"

    def _starts_declaration(self) -> bool:
        token = self._peek()
        if token.kind in _TYPE_SPECIFIER_KINDS:
            return True
        if token.kind in _STORAGE_KINDS or token.kind in _QUALIFIER_KINDS:
            return True
        if token.kind is _K.IDENTIFIER and self._is_typedef_name(token.text):
            return True
        return False

    # ------------------------------------------------------------------
    # Translation unit.

    def parse(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(location=self._location(), name=self._filename)
        while not self._at(_K.EOF):
            self._parse_external_declaration(unit)
        return unit

    def _parse_external_declaration(self, unit: ast.TranslationUnit) -> None:
        location = self._location()
        storage, base_type = self._parse_declaration_specifiers()
        if self._accept(_K.SEMICOLON):
            return  # e.g. a bare struct definition.
        name, full_type, param_names = self._parse_declarator(base_type)
        if isinstance(full_type, ct.FunctionType) and self._at(_K.LBRACE):
            self._parse_function_definition(
                unit, name, full_type, param_names, storage, location
            )
            return
        # Otherwise: one or more init-declarators.
        self._finish_declaration(
            unit.globals, storage, base_type, name, full_type, location
        )

    def _parse_function_definition(
        self,
        unit: ast.TranslationUnit,
        name: str,
        ftype: ct.FunctionType,
        param_names: list[str],
        storage: str,
        location: SourceLocation,
    ) -> None:
        self._global_scope.declare(name, "function", ftype)
        self._push_scope()
        self._function_local_names = set(
            param_name for param_name in param_names if param_name
        )
        for param_name, param_type in zip(param_names, ftype.parameters):
            if param_name:
                self._scope.declare(param_name, "param", param_type)
        body = self._parse_compound()
        self._function_local_names = None
        self._pop_scope()
        unit.functions.append(
            ast.FunctionDef(
                location=location,
                name=name,
                ftype=ftype,
                parameter_names=param_names,
                body=body,
                storage=storage,
            )
        )

    def _finish_declaration(
        self,
        sink: list[ast.Declaration],
        storage: str,
        base_type: ct.CType,
        first_name: str,
        first_type: ct.CType,
        location: SourceLocation,
    ) -> None:
        """Handle init-declarator lists after the first declarator."""
        name, full_type = first_name, first_type
        while True:
            declaration = self._declare_one(
                storage, name, full_type, location
            )
            if declaration is not None:
                sink.append(declaration)
            if not self._accept(_K.COMMA):
                break
            location = self._location()
            name, full_type, _ = self._parse_declarator(base_type)
        self._expect(_K.SEMICOLON, "declaration")

    def _declare_one(
        self,
        storage: str,
        name: str,
        full_type: ct.CType,
        location: SourceLocation,
    ) -> Optional[ast.Declaration]:
        if storage == "typedef":
            self._scope.declare(name, "typedef", full_type)
            if self._at(_K.ASSIGN):
                raise ParseError("typedef cannot have initializer", location)
            return None
        initializer: Optional[ast.Initializer] = None
        if self._accept(_K.ASSIGN):
            initializer = self._parse_initializer()
        if isinstance(full_type, ct.FunctionType):
            self._scope.declare(name, "function", full_type)
            return None  # Prototype only; no AST node needed.
        full_type = self._complete_array_from_initializer(
            full_type, initializer
        )
        if self._scope is self._global_scope:
            unique_name = name
        else:
            unique_name = self._uniquify_local(name)
        self._scope.declare(name, "var", full_type, unique_name)
        return ast.Declaration(
            location=location,
            name=unique_name,
            declared_type=full_type,
            initializer=initializer,
            storage=storage,
        )

    @staticmethod
    def _complete_array_from_initializer(
        full_type: ct.CType, initializer: Optional[ast.Initializer]
    ) -> ct.CType:
        """Give ``int a[] = {...}`` / ``char s[] = "..."`` a length."""
        if (
            not isinstance(full_type, ct.ArrayType)
            or full_type.length is not None
            or initializer is None
        ):
            return full_type
        if initializer.is_list:
            assert initializer.elements is not None
            return ct.ArrayType(full_type.element, len(initializer.elements))
        if isinstance(initializer.expression, ast.StringLiteral):
            return ct.ArrayType(
                full_type.element, len(initializer.expression.value) + 1
            )
        return full_type

    def _parse_initializer(self) -> ast.Initializer:
        location = self._location()
        brace = self._accept(_K.LBRACE)
        if brace is not None:
            self._enter(brace)
            elements: list[ast.Initializer] = []
            if not self._at(_K.RBRACE):
                elements.append(self._parse_initializer())
                while self._accept(_K.COMMA):
                    if self._at(_K.RBRACE):
                        break  # trailing comma
                    elements.append(self._parse_initializer())
            self._expect(_K.RBRACE, "initializer list")
            self._depth -= 1
            return ast.Initializer(location=location, elements=elements)
        return ast.Initializer(
            location=location, expression=self._parse_assignment_expression()
        )

    # ------------------------------------------------------------------
    # Declaration specifiers and declarators.

    def _parse_declaration_specifiers(self) -> tuple[str, ct.CType]:
        storage = ""
        int_words: list[str] = []
        base: Optional[ct.CType] = None
        location = self._location()
        while True:
            token = self._peek()
            if token.kind in _STORAGE_KINDS:
                self._take()
                new_storage = _STORAGE_KINDS[token.kind]
                if new_storage:
                    if storage:
                        raise ParseError(
                            "multiple storage classes", token.location
                        )
                    storage = new_storage
            elif token.kind in _QUALIFIER_KINDS:
                self._take()  # const/volatile: parsed and ignored.
            elif token.kind in (_K.KW_STRUCT, _K.KW_UNION):
                if base is not None or int_words:
                    raise ParseError("invalid type combination", token.location)
                base = self._parse_struct_or_union()
            elif token.kind is _K.KW_ENUM:
                if base is not None or int_words:
                    raise ParseError("invalid type combination", token.location)
                base = self._parse_enum()
            elif token.kind in _TYPE_SPECIFIER_KINDS:
                self._take()
                int_words.append(token.text)
            elif (
                token.kind is _K.IDENTIFIER
                and self._is_typedef_name(token.text)
                and base is None
                and not int_words
            ):
                self._take()
                entry = self._scope.lookup(token.text)
                assert entry is not None
                base = entry[1]
            else:
                break
        if base is None:
            base = _combine_int_words(int_words, location)
        elif int_words:
            raise ParseError("invalid type combination", location)
        return storage, base

    def _parse_struct_or_union(self) -> ct.CType:
        keyword = self._take()
        is_union = keyword.kind is _K.KW_UNION
        tag: Optional[str] = None
        if self._at(_K.IDENTIFIER):
            tag = self._take().text
        if self._at(_K.LBRACE):
            struct = self._obtain_struct(tag, is_union, define_here=True)
            self._enter(self._take())  # {
            members: list[tuple[str, ct.CType]] = []
            while not self._at(_K.RBRACE):
                _, member_base = self._parse_declaration_specifiers()
                while True:
                    member_name, member_type, _ = self._parse_declarator(
                        member_base
                    )
                    members.append((member_name, member_type))
                    if not self._accept(_K.COMMA):
                        break
                self._expect(_K.SEMICOLON, "struct member")
            self._expect(_K.RBRACE, "struct body")
            self._depth -= 1
            struct.define_members(members)
            return struct
        if tag is None:
            raise ParseError(
                "struct/union needs a tag or a body", keyword.location
            )
        return self._obtain_struct(tag, is_union, define_here=False)

    def _obtain_struct(
        self, tag: Optional[str], is_union: bool, define_here: bool
    ) -> ct.StructType:
        if tag is not None:
            existing = self._scope.lookup_tag(tag)
            if isinstance(existing, ct.StructType):
                if define_here and existing.complete:
                    # A definition in an inner scope shadows the outer tag.
                    if tag in self._scope.tags:
                        raise ParseError(
                            f"redefinition of struct {tag}",
                            self._location(),
                        )
                else:
                    return existing
        struct = ct.StructType(tag, is_union)
        if tag is not None:
            self._scope.tags[tag] = struct
        return struct

    def _parse_enum(self) -> ct.CType:
        keyword = self._take()
        tag: Optional[str] = None
        if self._at(_K.IDENTIFIER):
            tag = self._take().text
        enum_type = ct.EnumType(tag)
        if self._at(_K.LBRACE):
            self._take()
            next_value = 0
            while not self._at(_K.RBRACE):
                name_token = self._expect(_K.IDENTIFIER, "enum body")
                if self._accept(_K.ASSIGN):
                    value_expr = self._parse_conditional_expression()
                    value = self._fold_constant(value_expr)
                    next_value = value
                self._scope.declare(
                    name_token.text, "enum-constant", ct.INT, next_value
                )
                next_value += 1
                if not self._accept(_K.COMMA):
                    break
            self._expect(_K.RBRACE, "enum body")
            if tag is not None:
                self._scope.tags[tag] = enum_type
            return enum_type
        if tag is None:
            raise ParseError("enum needs a tag or a body", keyword.location)
        existing = self._scope.lookup_tag(tag)
        if isinstance(existing, ct.EnumType):
            return existing
        self._scope.tags[tag] = enum_type
        return enum_type

    def _fold_constant(self, expression: ast.Expression) -> int:
        from repro.frontend.constfold import fold_int_constant

        value = fold_int_constant(expression)
        if value is None:
            raise ParseError(
                "expected integer constant expression", expression.location
            )
        return value

    def _parse_declarator(
        self, base_type: ct.CType
    ) -> tuple[str, ct.CType, list[str]]:
        """Parse one declarator.

        Returns ``(name, full_type, parameter_names)``;
        ``parameter_names`` is only meaningful when the result is a
        function type (it feeds function definitions).  Every pointer,
        array, function and grouping modifier is a nesting level, held
        until the whole declarator ends: the modifiers nest in one type.
        """
        depth = self._depth
        name, build, param_names = self._parse_declarator_inner()
        self._depth = depth
        return name, build(base_type), param_names

    def _parse_declarator_inner(
        self,
    ) -> tuple[str, Callable[[ct.CType], ct.CType], list[str]]:
        # Leading pointers apply to the *inside* of whatever follows.
        pointer_depth = 0
        while (star := self._accept(_K.STAR)) is not None:
            self._enter(star)
            pointer_depth += 1
            while self._peek().kind in _QUALIFIER_KINDS:
                self._take()

        name = ""
        inner: Callable[[ct.CType], ct.CType] = lambda t: t
        param_names: list[str] = []

        if self._at(_K.LPAREN) and self._declarator_paren():
            self._enter(self._take())
            name, inner, param_names = self._parse_declarator_inner()
            self._expect(_K.RPAREN, "declarator")
        elif self._at(_K.IDENTIFIER):
            name = self._take().text

        # Suffixes bind tighter than the leading pointers.
        suffixes: list[Callable[[ct.CType], ct.CType]] = []
        while True:
            if self._at(_K.LBRACKET):
                self._enter(self._take())
                length: Optional[int] = None
                if not self._at(_K.RBRACKET):
                    length = self._fold_constant(
                        self._parse_conditional_expression()
                    )
                self._expect(_K.RBRACKET, "array declarator")
                suffixes.append(
                    lambda t, length=length: ct.ArrayType(t, length)
                )
            elif self._at(_K.LPAREN):
                self._enter(self._peek())
                params, variadic, names, unspecified = (
                    self._parse_parameter_list()
                )
                if not param_names:
                    param_names = names
                suffixes.append(
                    lambda t, params=tuple(params), variadic=variadic,
                    unspecified=unspecified: ct.FunctionType(
                        t, params, variadic, unspecified
                    )
                )
            else:
                break

        def build(base: ct.CType) -> ct.CType:
            result = base
            for _ in range(pointer_depth):
                result = ct.PointerType(result)
            for suffix in reversed(suffixes):
                result = suffix(result)
            return inner(result)

        return name, build, param_names

    def _declarator_paren(self) -> bool:
        """Disambiguate ``(`` in a declarator: grouping vs parameters."""
        token = self._peek(1)
        if token.kind is _K.STAR or token.kind is _K.LPAREN:
            return True
        if token.kind is _K.IDENTIFIER and not self._is_typedef_name(
            token.text
        ):
            return True
        return False

    def _parse_parameter_list(
        self,
    ) -> tuple[list[ct.CType], bool, list[str], bool]:
        self._expect(_K.LPAREN, "parameter list")
        params: list[ct.CType] = []
        names: list[str] = []
        variadic = False
        unspecified = False
        if self._at(_K.RPAREN):
            unspecified = True
        elif self._at(_K.KW_VOID) and self._peek(1).kind is _K.RPAREN:
            self._take()
        else:
            while True:
                if self._accept(_K.ELLIPSIS):
                    variadic = True
                    break
                _, param_base = self._parse_declaration_specifiers()
                param_name, param_type, _ = self._parse_declarator(param_base)
                param_type = ct.decay(param_type)
                params.append(param_type)
                names.append(param_name)
                if not self._accept(_K.COMMA):
                    break
        self._expect(_K.RPAREN, "parameter list")
        return params, variadic, names, unspecified

    # ------------------------------------------------------------------
    # Statements.

    def _parse_compound(self) -> ast.Compound:
        location = self._location()
        self._expect(_K.LBRACE, "compound statement")
        self._push_scope()
        items: list[ast.Statement] = []
        while not self._at(_K.RBRACE):
            if self._starts_declaration():
                items.extend(self._parse_local_declaration())
            else:
                items.append(self._parse_statement())
        self._pop_scope()
        self._expect(_K.RBRACE, "compound statement")
        return ast.Compound(location=location, items=items)

    def _parse_local_declaration(self) -> list[ast.Statement]:
        location = self._location()
        storage, base_type = self._parse_declaration_specifiers()
        if self._accept(_K.SEMICOLON):
            return []
        declarations: list[ast.Declaration] = []
        name, full_type, _ = self._parse_declarator(base_type)
        self._finish_declaration(
            declarations, storage, base_type, name, full_type, location
        )
        return list(declarations)

    def _parse_statement(self) -> ast.Statement:
        self._enter(self._peek())
        statement = self._parse_statement_body()
        self._depth -= 1
        return statement

    def _parse_statement_body(self) -> ast.Statement:
        token = self._peek()
        if token.kind is _K.LBRACE:
            return self._parse_compound()
        if token.kind is _K.KW_IF:
            return self._parse_if()
        if token.kind is _K.KW_WHILE:
            return self._parse_while()
        if token.kind is _K.KW_DO:
            return self._parse_do_while()
        if token.kind is _K.KW_FOR:
            return self._parse_for()
        if token.kind is _K.KW_SWITCH:
            return self._parse_switch()
        if token.kind is _K.KW_BREAK:
            self._take()
            self._expect(_K.SEMICOLON, "break")
            return ast.Break(location=token.location)
        if token.kind is _K.KW_CONTINUE:
            self._take()
            self._expect(_K.SEMICOLON, "continue")
            return ast.Continue(location=token.location)
        if token.kind is _K.KW_RETURN:
            self._take()
            value = None
            if not self._at(_K.SEMICOLON):
                value = self._parse_expression()
            self._expect(_K.SEMICOLON, "return")
            return ast.Return(location=token.location, value=value)
        if token.kind is _K.KW_GOTO:
            self._take()
            label = self._expect(_K.IDENTIFIER, "goto").text
            self._expect(_K.SEMICOLON, "goto")
            return ast.Goto(location=token.location, label=label)
        if (
            token.kind is _K.IDENTIFIER
            and self._peek(1).kind is _K.COLON
            and not self._is_typedef_name(token.text)
        ):
            self._take()
            self._take()
            statement = self._parse_statement()
            return ast.LabeledStatement(
                location=token.location, label=token.text, statement=statement
            )
        if token.kind is _K.SEMICOLON:
            self._take()
            return ast.ExpressionStatement(location=token.location)
        expression = self._parse_expression()
        self._expect(_K.SEMICOLON, "expression statement")
        return ast.ExpressionStatement(
            location=token.location, expression=expression
        )

    def _parse_if(self) -> ast.If:
        location = self._take().location
        self._expect(_K.LPAREN, "if")
        condition = self._parse_expression()
        self._expect(_K.RPAREN, "if")
        then_branch = self._parse_statement()
        else_branch = None
        if self._accept(_K.KW_ELSE):
            else_branch = self._parse_statement()
        return ast.If(
            location=location,
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
        )

    def _parse_while(self) -> ast.While:
        location = self._take().location
        self._expect(_K.LPAREN, "while")
        condition = self._parse_expression()
        self._expect(_K.RPAREN, "while")
        body = self._parse_statement()
        return ast.While(location=location, condition=condition, body=body)

    def _parse_do_while(self) -> ast.DoWhile:
        location = self._take().location
        body = self._parse_statement()
        self._expect(_K.KW_WHILE, "do-while")
        self._expect(_K.LPAREN, "do-while")
        condition = self._parse_expression()
        self._expect(_K.RPAREN, "do-while")
        self._expect(_K.SEMICOLON, "do-while")
        return ast.DoWhile(location=location, body=body, condition=condition)

    def _parse_for(self) -> ast.For:
        location = self._take().location
        self._expect(_K.LPAREN, "for")
        self._push_scope()
        init: Optional[ast.Statement] = None
        if self._starts_declaration():
            declarations = self._parse_local_declaration()
            if len(declarations) == 1:
                init = declarations[0]
            else:
                init = ast.Compound(location=location, items=declarations)
        elif not self._at(_K.SEMICOLON):
            expression = self._parse_expression()
            self._expect(_K.SEMICOLON, "for")
            init = ast.ExpressionStatement(
                location=expression.location, expression=expression
            )
        else:
            self._take()
        condition = None
        if not self._at(_K.SEMICOLON):
            condition = self._parse_expression()
        self._expect(_K.SEMICOLON, "for")
        step = None
        if not self._at(_K.RPAREN):
            step = self._parse_expression()
        self._expect(_K.RPAREN, "for")
        body = self._parse_statement()
        self._pop_scope()
        return ast.For(
            location=location,
            init=init,
            condition=condition,
            step=step,
            body=body,
        )

    def _parse_switch(self) -> ast.Switch:
        location = self._take().location
        self._expect(_K.LPAREN, "switch")
        condition = self._parse_expression()
        self._expect(_K.RPAREN, "switch")
        self._expect(_K.LBRACE, "switch body")
        self._push_scope()
        cases: list[ast.SwitchCase] = []
        current: Optional[ast.SwitchCase] = None
        seen_values: set[int] = set()
        while not self._at(_K.RBRACE):
            if self._at(_K.KW_CASE) or self._at(_K.KW_DEFAULT):
                label_location = self._location()
                values: list[int] = []
                is_default = False
                # Stacked labels all map to the same arm.
                while self._at(_K.KW_CASE) or self._at(_K.KW_DEFAULT):
                    if self._accept(_K.KW_DEFAULT):
                        is_default = True
                    else:
                        self._take()
                        value = self._fold_constant(
                            self._parse_conditional_expression()
                        )
                        if value in seen_values:
                            raise ParseError(
                                f"duplicate case value {value}",
                                label_location,
                            )
                        seen_values.add(value)
                        values.append(value)
                    self._expect(_K.COLON, "case label")
                current = ast.SwitchCase(
                    location=label_location,
                    values=values,
                    is_default=is_default,
                )
                cases.append(current)
            else:
                if current is None:
                    raise ParseError(
                        "statement before first case label in switch",
                        self._location(),
                    )
                if self._starts_declaration():
                    current.body.extend(self._parse_local_declaration())
                else:
                    current.body.append(self._parse_statement())
        self._pop_scope()
        self._expect(_K.RBRACE, "switch body")
        return ast.Switch(location=location, condition=condition, cases=cases)

    # ------------------------------------------------------------------
    # Expressions.

    def _parse_expression(self) -> ast.Expression:
        location = self._location()
        first = self._parse_assignment_expression()
        if not self._at(_K.COMMA):
            return first
        parts = [first]
        while self._accept(_K.COMMA):
            parts.append(self._parse_assignment_expression())
        return ast.Comma(
            location=location, parts=parts, ctype=parts[-1].ctype
        )

    def _parse_assignment_expression(self) -> ast.Expression:
        left = self._parse_conditional_expression()
        token = self._peek()
        if token.kind in _ASSIGNMENT_OPS:
            self._take()
            self._enter(token)
            right = self._parse_assignment_expression()
            self._depth -= 1
            return ast.Assignment(
                location=token.location,
                op=_ASSIGNMENT_OPS[token.kind],
                target=left,
                value=right,
                ctype=left.ctype,
            )
        return left

    def _parse_conditional_expression(self) -> ast.Expression:
        condition = self._parse_binary_expression()
        if not self._at(_K.QUESTION):
            return condition
        token = self._take()
        self._enter(token)
        then_expr = self._parse_expression()
        self._expect(_K.COLON, "conditional expression")
        else_expr = self._parse_conditional_expression()
        self._depth -= 1
        ctype = _conditional_type(then_expr.ctype, else_expr.ctype)
        return ast.Conditional(
            location=token.location,
            condition=condition,
            then_expr=then_expr,
            else_expr=else_expr,
            ctype=ctype,
        )

    def _parse_binary_expression(
        self, min_precedence: int = 1
    ) -> ast.Expression:
        """Precedence climbing: one loop per operand, recursing only
        for a right operand that binds tighter, so a left-associative
        chain is built without recursion."""
        outer = self._begin_subtree()
        left = self._parse_cast_expression()
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            precedence = BINARY_PRECEDENCE.get(token.kind)
            if precedence is None or precedence < min_precedence:
                break
            self._pos += 1
            self._wrap(token)
            self._enter(token)
            right = self._parse_binary_expression(precedence + 1)
            self._depth -= 1
            op = token.text
            if op == "&&" or op == "||":
                left = ast.LogicalOp(
                    location=token.location,
                    op=op,
                    left=left,
                    right=right,
                    ctype=ct.INT,
                )
            else:
                left = ast.BinaryOp(
                    location=token.location,
                    op=op,
                    left=left,
                    right=right,
                    ctype=_binary_type(op, left, right),
                )
        self._end_subtree(outer)
        return left

    def _parse_cast_expression(self) -> ast.Expression:
        if self._at(_K.LPAREN) and self._starts_type_name(1):
            token = self._take()
            self._enter(token)
            target_type = self._parse_type_name()
            self._expect(_K.RPAREN, "cast")
            operand = self._parse_cast_expression()
            self._depth -= 1
            return ast.Cast(
                location=token.location,
                target_type=target_type,
                operand=operand,
                ctype=target_type,
            )
        return self._parse_unary_expression()

    def _starts_type_name(self, offset: int) -> bool:
        token = self._peek(offset)
        if token.kind in _TYPE_SPECIFIER_KINDS or token.kind in _QUALIFIER_KINDS:
            return True
        return token.kind is _K.IDENTIFIER and self._is_typedef_name(
            token.text
        )

    def _parse_type_name(self) -> ct.CType:
        _, base = self._parse_declaration_specifiers()
        name, full_type, _ = self._parse_abstract_declarator(base)
        if name:
            raise ParseError("unexpected name in type name", self._location())
        return full_type

    def _parse_abstract_declarator(
        self, base: ct.CType
    ) -> tuple[str, ct.CType, list[str]]:
        # Abstract declarators reuse the normal declarator machinery;
        # a missing identifier simply leaves name empty.
        return self._parse_declarator(base)

    def _parse_unary_expression(self) -> ast.Expression:
        token = self._peek()
        kind = token.kind
        if kind not in _UNARY_KINDS:
            return self._parse_postfix_expression()
        self._take()
        self._enter(token)
        node: ast.Expression
        if kind is _K.INCREMENT or kind is _K.DECREMENT:
            operand = self._parse_unary_expression()
            node = ast.IncDec(
                location=token.location,
                op=token.text,
                is_prefix=True,
                operand=operand,
                ctype=operand.ctype,
            )
        elif kind is _K.AMP:
            operand = self._parse_cast_expression()
            pointee = operand.ctype or ct.INT
            node = ast.AddressOf(
                location=token.location,
                operand=operand,
                ctype=ct.PointerType(pointee),
            )
        elif kind is _K.STAR:
            operand = self._parse_cast_expression()
            node = ast.Dereference(
                location=token.location,
                operand=operand,
                ctype=_pointee_type(operand.ctype),
            )
        elif kind is _K.KW_SIZEOF:
            if self._at(_K.LPAREN) and self._starts_type_name(1):
                self._take()
                queried = self._parse_type_name()
                self._expect(_K.RPAREN, "sizeof")
                node = ast.SizeofType(
                    location=token.location,
                    queried_type=queried,
                    ctype=ct.ULONG,
                )
            else:
                operand = self._parse_unary_expression()
                node = ast.SizeofExpr(
                    location=token.location, operand=operand, ctype=ct.ULONG
                )
        else:  # - + ! ~
            operand = self._parse_cast_expression()
            if kind is _K.BANG:
                ctype: ct.CType = ct.INT
            else:
                ctype = ct.integer_promote(operand.ctype or ct.INT)
            node = ast.UnaryOp(
                location=token.location,
                op=token.text,
                operand=operand,
                ctype=ctype,
            )
        self._depth -= 1
        return node

    def _parse_postfix_expression(self) -> ast.Expression:
        outer = self._begin_subtree()
        expression = self._parse_primary_expression()
        while True:
            token = self._peek()
            kind = token.kind
            if kind not in _POSTFIX_KINDS:
                self._end_subtree(outer)
                return expression
            self._take()
            self._wrap(token)
            if kind is _K.LBRACKET:
                self._enter(token)
                index = self._parse_expression()
                self._expect(_K.RBRACKET, "subscript")
                self._depth -= 1
                base_type = ct.decay(expression.ctype or ct.VOID_PTR)
                element = _pointee_type(base_type)
                expression = ast.Index(
                    location=token.location,
                    base=expression,
                    index=index,
                    ctype=element,
                )
            elif kind is _K.LPAREN:
                self._enter(token)
                arguments: list[ast.Expression] = []
                if not self._at(_K.RPAREN):
                    arguments.append(self._parse_assignment_expression())
                    while self._accept(_K.COMMA):
                        arguments.append(self._parse_assignment_expression())
                self._expect(_K.RPAREN, "call")
                self._depth -= 1
                expression = ast.Call(
                    location=token.location,
                    callee=expression,
                    arguments=arguments,
                    ctype=_call_return_type(expression.ctype),
                )
            elif kind is _K.DOT or kind is _K.ARROW:
                name = self._expect(_K.IDENTIFIER, "member access").text
                arrow = kind is _K.ARROW
                base_type = expression.ctype
                if arrow:
                    base_type = _pointee_type(base_type)
                member_type: ct.CType = ct.INT
                if isinstance(base_type, ct.StructType) and base_type.has_member(
                    name
                ):
                    member_type = base_type.member(name).type
                expression = ast.Member(
                    location=token.location,
                    base=expression,
                    name=name,
                    arrow=arrow,
                    ctype=member_type,
                )
            else:  # postfix ++ / --
                expression = ast.IncDec(
                    location=token.location,
                    op=token.text,
                    is_prefix=False,
                    operand=expression,
                    ctype=expression.ctype,
                )

    def _parse_primary_expression(self) -> ast.Expression:
        token = self._peek()
        if token.kind is _K.INT_LITERAL:
            self._take()
            return ast.IntLiteral(
                location=token.location,
                value=int(token.value),  # type: ignore[arg-type]
                ctype=ct.INT,
            )
        if token.kind is _K.FLOAT_LITERAL:
            self._take()
            return ast.FloatLiteral(
                location=token.location,
                value=float(token.value),  # type: ignore[arg-type]
                ctype=ct.DOUBLE,
            )
        if token.kind is _K.CHAR_LITERAL:
            self._take()
            return ast.CharLiteral(
                location=token.location,
                value=int(token.value),  # type: ignore[arg-type]
                ctype=ct.INT,
            )
        if token.kind is _K.STRING_LITERAL:
            parts = [self._take()]
            while self._at(_K.STRING_LITERAL):
                parts.append(self._take())
            value = "".join(str(part.value) for part in parts)
            return ast.StringLiteral(
                location=token.location,
                value=value,
                ctype=ct.ArrayType(ct.CHAR, len(value) + 1),
            )
        if token.kind is _K.IDENTIFIER:
            self._take()
            return self._resolve_identifier(token)
        if token.kind is _K.LPAREN:
            self._take()
            self._enter(token)
            expression = self._parse_expression()
            self._expect(_K.RPAREN, "parenthesized expression")
            self._depth -= 1
            return expression
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.location
        )

    def _resolve_identifier(self, token: Token) -> ast.Identifier:
        entry = self._scope.lookup(token.text)
        if entry is not None:
            kind, ctype, extra = entry
            if kind == "enum-constant":
                assert isinstance(extra, int)
                return ast.Identifier(
                    location=token.location,
                    name=token.text,
                    binding="enum-constant",
                    constant_value=extra,
                    ctype=ct.INT,
                )
            resolved_name = token.text
            binding = {
                "var": "local",
                "param": "param",
                "function": "function",
                "typedef": "local",
            }.get(kind, "local")
            if kind == "var":
                if isinstance(extra, str):
                    resolved_name = extra
                else:
                    binding = "global"  # Only globals lack a unique name.
            return ast.Identifier(
                location=token.location,
                name=resolved_name,
                binding=binding,
                ctype=ctype,
            )
        if token.text in self._builtins:
            return ast.Identifier(
                location=token.location,
                name=token.text,
                binding="builtin",
                ctype=self._builtins[token.text],
            )
        if self._at(_K.LPAREN):
            # C89 implicit function declaration.
            implicit = ct.FunctionType(ct.INT, (), False, True)
            self._global_scope.declare(token.text, "function", implicit)
            return ast.Identifier(
                location=token.location,
                name=token.text,
                binding="function",
                ctype=implicit,
            )
        raise ParseError(
            f"use of undeclared identifier {token.text!r}", token.location
        )


# ----------------------------------------------------------------------
# Type computation helpers.


def _combine_int_words(words: list[str], location: SourceLocation) -> ct.CType:
    if not words:
        raise ParseError("expected type specifier", location)
    unique = sorted(words)
    table: dict[tuple[str, ...], ct.CType] = {
        ("void",): ct.VOID,
        ("char",): ct.CHAR,
        ("char", "signed"): ct.CHAR,
        ("char", "unsigned"): ct.UCHAR,
        ("short",): ct.SHORT,
        ("short", "signed"): ct.SHORT,
        ("int", "short"): ct.SHORT,
        ("int", "short", "signed"): ct.SHORT,
        ("short", "unsigned"): ct.USHORT,
        ("int", "short", "unsigned"): ct.USHORT,
        ("int",): ct.INT,
        ("signed",): ct.INT,
        ("int", "signed"): ct.INT,
        ("unsigned",): ct.UINT,
        ("int", "unsigned"): ct.UINT,
        ("long",): ct.LONG,
        ("long", "signed"): ct.LONG,
        ("int", "long"): ct.LONG,
        ("int", "long", "signed"): ct.LONG,
        ("long", "unsigned"): ct.ULONG,
        ("int", "long", "unsigned"): ct.ULONG,
        ("long", "long"): ct.LONG,
        ("int", "long", "long"): ct.LONG,
        ("long", "long", "unsigned"): ct.ULONG,
        ("int", "long", "long", "unsigned"): ct.ULONG,
        ("float",): ct.FLOAT,
        ("double",): ct.DOUBLE,
        ("double", "long"): ct.DOUBLE,
    }
    try:
        return table[tuple(unique)]
    except KeyError:
        raise ParseError(
            f"invalid type specifier combination: {' '.join(words)}", location
        ) from None


def _pointee_type(ctype: Optional[ct.CType]) -> ct.CType:
    if isinstance(ctype, ct.PointerType):
        return ctype.pointee
    if isinstance(ctype, ct.ArrayType):
        return ctype.element
    if isinstance(ctype, ct.FunctionType):
        return ctype
    return ct.INT


def _call_return_type(callee_type: Optional[ct.CType]) -> ct.CType:
    if isinstance(callee_type, ct.FunctionType):
        return callee_type.return_type
    if isinstance(callee_type, ct.PointerType) and isinstance(
        callee_type.pointee, ct.FunctionType
    ):
        return callee_type.pointee.return_type
    return ct.INT


def _binary_type(
    op: str, left: ast.Expression, right: ast.Expression
) -> ct.CType:
    left_type = ct.decay(left.ctype or ct.INT)
    right_type = ct.decay(right.ctype or ct.INT)
    if op in _RELATIONAL_OPS:
        return ct.INT
    if op in ("+", "-"):
        if isinstance(left_type, ct.PointerType) and right_type.is_integer:
            return left_type
        if (
            op == "+"
            and isinstance(right_type, ct.PointerType)
            and left_type.is_integer
        ):
            return right_type
        if (
            op == "-"
            and isinstance(left_type, ct.PointerType)
            and isinstance(right_type, ct.PointerType)
        ):
            return ct.LONG
    if left_type.is_arithmetic and right_type.is_arithmetic:
        return ct.usual_arithmetic_conversions(left_type, right_type)
    return ct.INT


def _conditional_type(
    then_type: Optional[ct.CType], else_type: Optional[ct.CType]
) -> ct.CType:
    then_type = ct.decay(then_type or ct.INT)
    else_type = ct.decay(else_type or ct.INT)
    if then_type.is_arithmetic and else_type.is_arithmetic:
        return ct.usual_arithmetic_conversions(then_type, else_type)
    if isinstance(then_type, ct.PointerType):
        return then_type
    if isinstance(else_type, ct.PointerType):
        return else_type
    return then_type


def _too_deep(token: Token) -> None:
    raise ParseError(f"nesting exceeds {MAX_NESTING} levels", token.location)


def parse(
    text: str,
    filename: str = "<input>",
    builtin_functions: Optional[dict[str, ct.FunctionType]] = None,
) -> ast.TranslationUnit:
    """Parse preprocessed C text into a translation unit.

    Node ids restart at 1 for every unit, on the calling thread's own
    counter, making them (and everything keyed by them — call-site
    profile counts in particular) a pure function of the source text,
    stable across processes, threads and cache round trips.
    """
    ast.NODE_IDS.restart()
    return Parser(text, filename, builtin_functions).parse()
