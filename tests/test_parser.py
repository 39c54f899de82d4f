"""Unit tests for the parser and expression typing."""

import sys
import threading

import pytest

from repro.frontend import ast_nodes as ast
from repro.frontend import compile_source
from repro.frontend import ctypes as ct
from repro.frontend.errors import ParseError
from repro.frontend.parser import parse


def parse_ok(source):
    return parse(source)


def first_function(source):
    return parse(source).functions[0]


def body_statements(source):
    return first_function(source).body.items


def find_nodes(source, node_type):
    return [
        node
        for node in parse(source).walk()
        if isinstance(node, node_type)
    ]


class TestDeclarations:
    def test_global_int(self):
        unit = parse_ok("int x;")
        assert unit.globals[0].name == "x"
        assert unit.globals[0].declared_type is ct.INT

    def test_multiple_declarators(self):
        unit = parse_ok("int a, b, c;")
        assert [d.name for d in unit.globals] == ["a", "b", "c"]

    def test_pointer_declarator(self):
        unit = parse_ok("int *p;")
        assert isinstance(unit.globals[0].declared_type, ct.PointerType)

    def test_pointer_and_plain_in_one_declaration(self):
        unit = parse_ok("int *p, q;")
        assert isinstance(unit.globals[0].declared_type, ct.PointerType)
        assert unit.globals[1].declared_type is ct.INT

    def test_array_declarator(self):
        unit = parse_ok("int a[10];")
        declared = unit.globals[0].declared_type
        assert isinstance(declared, ct.ArrayType)
        assert declared.length == 10

    def test_two_dimensional_array(self):
        declared = parse_ok("double m[3][4];").globals[0].declared_type
        assert isinstance(declared, ct.ArrayType)
        assert declared.length == 3
        assert isinstance(declared.element, ct.ArrayType)
        assert declared.element.length == 4
        assert declared.sizeof() == 12

    def test_array_of_pointers(self):
        declared = parse_ok("char *names[4];").globals[0].declared_type
        assert isinstance(declared, ct.ArrayType)
        assert isinstance(declared.element, ct.PointerType)

    def test_pointer_to_array(self):
        declared = parse_ok("int (*p)[4];").globals[0].declared_type
        assert isinstance(declared, ct.PointerType)
        assert isinstance(declared.pointee, ct.ArrayType)

    def test_function_pointer(self):
        declared = parse_ok("int (*f)(int, char);").globals[0].declared_type
        assert isinstance(declared, ct.PointerType)
        assert isinstance(declared.pointee, ct.FunctionType)
        assert len(declared.pointee.parameters) == 2

    def test_array_of_function_pointers(self):
        declared = parse_ok("void (*table[8])(void);").globals[0]
        array = declared.declared_type
        assert isinstance(array, ct.ArrayType)
        assert array.length == 8
        assert isinstance(array.element, ct.PointerType)
        assert isinstance(array.element.pointee, ct.FunctionType)

    def test_array_sized_by_initializer(self):
        declared = parse_ok("int a[] = {1, 2, 3};").globals[0]
        assert declared.declared_type.length == 3

    def test_char_array_sized_by_string(self):
        declared = parse_ok('char s[] = "hi";').globals[0]
        assert declared.declared_type.length == 3  # includes NUL

    def test_unsigned_long(self):
        assert parse_ok("unsigned long x;").globals[0].declared_type is ct.ULONG

    def test_long_int_word_order(self):
        assert parse_ok("long int x;").globals[0].declared_type is ct.LONG
        assert parse_ok("int long y;").globals[0].declared_type is ct.LONG

    def test_invalid_type_combination(self):
        with pytest.raises(ParseError):
            parse("float int x;")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")


class TestTypedefsStructsEnums:
    def test_typedef(self):
        unit = parse_ok("typedef int myint; myint x;")
        assert unit.globals[0].declared_type is ct.INT

    def test_typedef_pointer(self):
        unit = parse_ok("typedef char *string; string s;")
        assert isinstance(unit.globals[0].declared_type, ct.PointerType)

    def test_struct_definition_and_member_offsets(self):
        unit = parse_ok("struct point { int x; int y; } p;")
        struct = unit.globals[0].declared_type
        assert isinstance(struct, ct.StructType)
        assert struct.member("x").offset == 0
        assert struct.member("y").offset == 1
        assert struct.sizeof() == 2

    def test_struct_with_nested_array(self):
        unit = parse_ok("struct s { int tag; double v[3]; } x;")
        struct = unit.globals[0].declared_type
        assert struct.sizeof() == 4
        assert struct.member("v").offset == 1

    def test_self_referential_struct(self):
        unit = parse_ok(
            "struct node { struct node *next; int v; } n;"
        )
        struct = unit.globals[0].declared_type
        next_type = struct.member("next").type
        assert isinstance(next_type, ct.PointerType)
        assert next_type.pointee is struct

    def test_union_overlays_members(self):
        unit = parse_ok("union u { int i; double d; } x;")
        union = unit.globals[0].declared_type
        assert union.is_union
        assert union.member("i").offset == 0
        assert union.member("d").offset == 0
        assert union.sizeof() == 1

    def test_typedef_struct_idiom(self):
        unit = parse_ok(
            "typedef struct pair { int a, b; } Pair; Pair p;"
        )
        assert isinstance(unit.globals[0].declared_type, ct.StructType)

    def test_enum_constants(self):
        unit = parse_ok("enum color { RED, GREEN = 5, BLUE };\n"
                        "int x = BLUE;")
        init = unit.globals[0].initializer
        assert isinstance(init.expression, ast.Identifier)
        assert init.expression.constant_value == 6

    def test_enum_used_in_case_label(self):
        source = """
        enum k { A = 1, B = 2 };
        int f(int x) { switch (x) { case A: return 10; case B: return 20; } return 0; }
        """
        switch = find_nodes(source, ast.Switch)[0]
        assert switch.cases[0].values == [1]
        assert switch.cases[1].values == [2]


class TestFunctions:
    def test_simple_definition(self):
        function = first_function("int add(int a, int b) { return a + b; }")
        assert function.name == "add"
        assert function.parameter_names == ["a", "b"]
        assert function.ftype.return_type is ct.INT

    def test_void_parameter_list(self):
        function = first_function("void f(void) { }")
        assert function.ftype.parameters == ()
        assert not function.ftype.unspecified

    def test_empty_parameter_list_is_unspecified(self):
        function = first_function("int f() { return 0; }")
        assert function.ftype.unspecified

    def test_array_parameter_decays(self):
        function = first_function("int f(int a[10]) { return a[0]; }")
        assert isinstance(function.ftype.parameters[0], ct.PointerType)

    def test_prototype_then_definition(self):
        unit = parse_ok("int f(int);\nint f(int x) { return x; }")
        assert len(unit.functions) == 1

    def test_pointer_return_type(self):
        function = first_function("char *f(void) { return 0; }")
        assert isinstance(function.ftype.return_type, ct.PointerType)

    def test_implicit_function_declaration(self):
        function = first_function("int f(void) { return g(1); }")
        call = [n for n in function.walk() if isinstance(n, ast.Call)][0]
        assert call.direct_name == "g"

    def test_local_shadowing_uniquified(self):
        source = "int f(int x) { int y; { int y; y = 1; } return y; }"
        declarations = [
            n
            for n in first_function(source).walk()
            if isinstance(n, ast.Declaration)
        ]
        assert {d.name for d in declarations} == {"y", "y#2"}


class TestStatements:
    def test_if_else(self):
        (statement,) = body_statements(
            "void f(int x) { if (x) x = 1; else x = 2; }"
        )
        assert isinstance(statement, ast.If)
        assert statement.else_branch is not None

    def test_dangling_else_binds_inner(self):
        source = "void f(int a, int b) { if (a) if (b) a = 1; else a = 2; }"
        (outer,) = body_statements(source)
        assert outer.else_branch is None
        inner = outer.then_branch
        assert isinstance(inner, ast.If)
        assert inner.else_branch is not None

    def test_while(self):
        (statement,) = body_statements("void f(int x) { while (x) x--; }")
        assert isinstance(statement, ast.While)

    def test_do_while(self):
        (statement,) = body_statements(
            "void f(int x) { do x--; while (x); }"
        )
        assert isinstance(statement, ast.DoWhile)

    def test_for_with_declaration_init(self):
        (statement,) = body_statements(
            "void f(void) { for (int i = 0; i < 3; i++) ; }"
        )
        assert isinstance(statement, ast.For)
        assert isinstance(statement.init, ast.Declaration)

    def test_for_with_empty_clauses(self):
        (statement,) = body_statements(
            "void f(void) { for (;;) break; }"
        )
        assert statement.init is None
        assert statement.condition is None
        assert statement.step is None

    def test_switch_grouping_and_fallthrough_shape(self):
        source = """
        int f(int x) {
            switch (x) {
            case 1:
            case 2:
                x = 10;
            case 3:
                x = 20;
                break;
            default:
                x = 30;
            }
            return x;
        }
        """
        switch = find_nodes(source, ast.Switch)[0]
        assert len(switch.cases) == 3
        assert switch.cases[0].values == [1, 2]
        assert switch.cases[1].values == [3]
        assert switch.cases[2].is_default

    def test_duplicate_case_raises(self):
        with pytest.raises(ParseError):
            parse("int f(int x) { switch (x) { case 1: case 1: break; } return 0; }")

    def test_statement_before_first_case_raises(self):
        with pytest.raises(ParseError):
            parse("int f(int x) { switch (x) { x = 1; case 1: break; } return 0; }")

    def test_goto_and_label(self):
        source = "void f(void) { goto end; end: return; }"
        gotos = find_nodes(source, ast.Goto)
        labels = find_nodes(source, ast.LabeledStatement)
        assert gotos[0].label == "end"
        assert labels[0].label == "end"

    def test_break_continue_parse(self):
        source = "void f(void) { while (1) { if (0) break; continue; } }"
        assert find_nodes(source, ast.Break)
        assert find_nodes(source, ast.Continue)

    def test_empty_statement(self):
        (statement,) = body_statements("void f(void) { ; }")
        assert isinstance(statement, ast.ExpressionStatement)
        assert statement.expression is None


class TestExpressions:
    def expr(self, text, prelude="int x; int y; int *p; double d;"):
        unit = parse(f"{prelude}\nint f(void) {{ return {text}; }}")
        (statement,) = unit.functions[0].body.items
        # Return terminator holds the expression.
        return statement.value

    def test_precedence_multiplication_over_addition(self):
        node = self.expr("1 + 2 * 3")
        assert isinstance(node, ast.BinaryOp)
        assert node.op == "+"
        assert isinstance(node.right, ast.BinaryOp)
        assert node.right.op == "*"

    def test_left_associativity(self):
        node = self.expr("10 - 4 - 3")
        assert node.op == "-"
        assert isinstance(node.left, ast.BinaryOp)

    def test_assignment_right_associative(self):
        node = self.expr("x = y = 1")
        assert isinstance(node, ast.Assignment)
        assert isinstance(node.value, ast.Assignment)

    def test_compound_assignment(self):
        node = self.expr("x += 2")
        assert isinstance(node, ast.Assignment)
        assert node.op == "+="

    def test_ternary(self):
        node = self.expr("x ? 1 : 2")
        assert isinstance(node, ast.Conditional)

    def test_comma(self):
        node = self.expr("(x = 1, y)")
        assert isinstance(node, ast.Comma)

    def test_logical_nodes_distinct_from_bitwise(self):
        assert isinstance(self.expr("x && y"), ast.LogicalOp)
        assert isinstance(self.expr("x & y"), ast.BinaryOp)

    def test_unary_chains(self):
        node = self.expr("!!x")
        assert isinstance(node, ast.UnaryOp)
        assert isinstance(node.operand, ast.UnaryOp)

    def test_prefix_and_postfix_incdec(self):
        prefix = self.expr("++x")
        postfix = self.expr("x++")
        assert prefix.is_prefix and not postfix.is_prefix

    def test_address_and_dereference(self):
        node = self.expr("*&x")
        assert isinstance(node, ast.Dereference)
        assert isinstance(node.operand, ast.AddressOf)

    def test_cast(self):
        node = self.expr("(double)x")
        assert isinstance(node, ast.Cast)
        assert node.ctype is ct.DOUBLE

    def test_sizeof_type_folds_to_constant(self):
        node = self.expr("sizeof(int)")
        assert isinstance(node, ast.SizeofType)

    def test_sizeof_expression(self):
        node = self.expr("sizeof x")
        assert isinstance(node, ast.SizeofExpr)

    def test_call_with_arguments(self):
        node = self.expr("g(1, x)", prelude="int g(int, int); int x;")
        assert isinstance(node, ast.Call)
        assert len(node.arguments) == 2
        assert node.is_direct

    def test_string_concatenation(self):
        node = self.expr('"ab" "cd"')
        assert isinstance(node, ast.StringLiteral)
        assert node.value == "abcd"

    def test_undeclared_identifier_raises(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return nope; }")


class TestExpressionTypes:
    def get_type(self, text, prelude=""):
        unit = parse(f"{prelude}\nint f(void) {{ {text}; return 0; }}")
        statement = unit.functions[0].body.items[0]
        return statement.expression.ctype

    def test_int_plus_double_is_double(self):
        prelude = "int i; double d;"
        assert self.get_type("i + d", prelude) is ct.DOUBLE

    def test_char_promotes_to_int(self):
        prelude = "char c;"
        assert self.get_type("c + c", prelude) is ct.INT

    def test_comparison_is_int(self):
        prelude = "double d;"
        assert self.get_type("d < 1.0", prelude) is ct.INT

    def test_pointer_plus_int_is_pointer(self):
        prelude = "int *p;"
        result = self.get_type("p + 1", prelude)
        assert isinstance(result, ct.PointerType)

    def test_pointer_difference_is_long(self):
        prelude = "int *p, *q;"
        assert self.get_type("p - q", prelude) is ct.LONG

    def test_array_index_is_element_type(self):
        prelude = "double a[4];"
        assert self.get_type("a[0]", prelude) is ct.DOUBLE

    def test_member_access_type(self):
        prelude = "struct s { double d; } v;"
        assert self.get_type("v.d", prelude) is ct.DOUBLE

    def test_arrow_access_type(self):
        prelude = "struct s { char *name; } *p;"
        result = self.get_type("p->name", prelude)
        assert isinstance(result, ct.PointerType)

    def test_unsigned_wins_same_rank(self):
        prelude = "unsigned u; int i;"
        assert self.get_type("u + i", prelude) is ct.UINT

    def test_call_result_type(self):
        prelude = "double g(void);"
        assert self.get_type("g()", prelude) is ct.DOUBLE


class TestCompileSource:
    def test_preprocess_and_parse(self):
        unit = compile_source("#define N 4\nint a[N];")
        assert unit.globals[0].declared_type.length == 4

    def test_function_names_listing(self):
        unit = compile_source("int a(void){return 0;} int b(void){return 1;}")
        assert unit.function_names() == ["a", "b"]

    def test_function_lookup_missing_raises(self):
        unit = compile_source("int a(void){return 0;}")
        with pytest.raises(KeyError):
            unit.function("nope")


class TestNodeIds:
    """Node ids are per parse, so a daemon's worker threads parsing at
    once must number every unit exactly as a serial parse does."""

    @staticmethod
    def _ids(unit):
        return [node.node_id for node in unit.walk()]

    def test_concurrent_parses_match_serial_parses(self):
        from repro.frontend.preprocessor import preprocess
        from repro.suite.registry import program_source

        # More threads than cores, switching often: two parses of each.
        names = ("cc", "gs", "cc", "gs")
        texts = {
            name: preprocess(program_source(name), name) for name in names
        }
        serial = {name: self._ids(parse(text)) for name, text in texts.items()}
        for ids in serial.values():
            assert len(set(ids)) == len(ids)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(10):
                barrier = threading.Barrier(len(names))
                results = [None] * len(names)

                def worker(index):
                    barrier.wait()
                    results[index] = self._ids(parse(texts[names[index]]))

                threads = [
                    threading.Thread(target=worker, args=(index,))
                    for index in range(len(names))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for name, ids in zip(names, results):
                    assert len(set(ids)) == len(ids), (trial, name)
                    assert ids == serial[name], (trial, name)
        finally:
            sys.setswitchinterval(interval)

    def test_fresh_thread_numbers_from_one(self):
        parse("int a; int b; int c;")
        ids = []
        thread = threading.Thread(
            target=lambda: ids.append(ast.IntLiteral().node_id)
        )
        thread.start()
        thread.join(timeout=60)
        assert ids == [1]
