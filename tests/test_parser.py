"""Unit tests for the recursive-descent C parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clang import parse_snippet, parse_source
from repro.clang.ast_nodes import (
    ArraySubscriptExpr,
    BinaryOperator,
    BreakStmt,
    CallExpr,
    CompoundAssignOperator,
    CompoundStmt,
    ConditionalOperator,
    ContinueStmt,
    CStyleCastExpr,
    DeclRefExpr,
    DeclStmt,
    DoStmt,
    ForStmt,
    FunctionDecl,
    IfStmt,
    IntegerLiteral,
    FloatingLiteral,
    MemberExpr,
    NullStmt,
    OMPParallelForDirective,
    OMPTargetTeamsDistributeParallelForDirective,
    ParenExpr,
    ReturnStmt,
    SizeOfExpr,
    UnaryOperator,
    VarDecl,
    WhileStmt,
)
from repro.clang.parser import MAX_DEPTH, ParseError


def first_stmt(source):
    return parse_snippet(source).children[0]


class TestExpressions:
    def test_integer_literal(self):
        stmt = first_stmt("42;")
        assert isinstance(stmt, IntegerLiteral)
        assert stmt.value == 42

    def test_float_literal(self):
        stmt = first_stmt("2.5;")
        assert isinstance(stmt, FloatingLiteral)
        assert stmt.value == pytest.approx(2.5)

    def test_hex_literal_value(self):
        assert first_stmt("0x10;").value == 16

    def test_binary_precedence_mul_over_add(self):
        stmt = first_stmt("a + b * c;")
        assert isinstance(stmt, BinaryOperator) and stmt.opcode == "+"
        assert isinstance(stmt.rhs, BinaryOperator) and stmt.rhs.opcode == "*"

    def test_binary_left_associativity(self):
        stmt = first_stmt("a - b - c;")
        assert stmt.opcode == "-"
        assert isinstance(stmt.lhs, BinaryOperator) and stmt.lhs.opcode == "-"

    def test_parentheses_override_precedence(self):
        stmt = first_stmt("(a + b) * c;")
        assert stmt.opcode == "*"
        assert isinstance(stmt.lhs, ParenExpr)

    def test_assignment_is_right_associative(self):
        stmt = first_stmt("a = b = c;")
        assert stmt.opcode == "="
        assert isinstance(stmt.rhs, BinaryOperator) and stmt.rhs.opcode == "="

    def test_compound_assignment_node_type(self):
        stmt = first_stmt("a += 2;")
        assert isinstance(stmt, CompoundAssignOperator)
        assert stmt.opcode == "+="

    def test_ternary(self):
        stmt = first_stmt("a ? b : c;")
        assert isinstance(stmt, ConditionalOperator)

    def test_unary_minus(self):
        stmt = first_stmt("-a;")
        assert isinstance(stmt, UnaryOperator) and stmt.opcode == "-" and stmt.prefix

    def test_prefix_and_postfix_increment(self):
        pre = first_stmt("++i;")
        post = first_stmt("i++;")
        assert pre.prefix and not post.prefix

    def test_call_with_arguments(self):
        stmt = first_stmt("f(a, b + 1, 3);")
        assert isinstance(stmt, CallExpr)
        assert len(stmt.args) == 3

    def test_call_no_arguments(self):
        assert len(first_stmt("g();").args) == 0

    def test_array_subscript(self):
        stmt = first_stmt("a[i + 1];")
        assert isinstance(stmt, ArraySubscriptExpr)
        assert isinstance(stmt.index, BinaryOperator)

    def test_nested_subscript(self):
        stmt = first_stmt("a[i][j];")
        assert isinstance(stmt, ArraySubscriptExpr)
        assert isinstance(stmt.base, ArraySubscriptExpr)

    def test_member_access(self):
        stmt = first_stmt("s.field;")
        assert isinstance(stmt, MemberExpr) and not stmt.is_arrow

    def test_arrow_access(self):
        stmt = first_stmt("p->field;")
        assert isinstance(stmt, MemberExpr) and stmt.is_arrow

    def test_cast_expression(self):
        stmt = first_stmt("(double) x;")
        assert isinstance(stmt, CStyleCastExpr)
        assert stmt.type_name == "double"

    def test_sizeof_type(self):
        stmt = first_stmt("sizeof(double);")
        assert isinstance(stmt, SizeOfExpr)
        assert stmt.type_name == "double"

    def test_sizeof_expression(self):
        stmt = first_stmt("sizeof x;")
        assert isinstance(stmt, SizeOfExpr)
        assert stmt.argument is not None

    def test_comma_operator(self):
        stmt = first_stmt("a = 1, b = 2;")
        assert isinstance(stmt, BinaryOperator) and stmt.opcode == ","

    def test_error_on_missing_operand(self):
        with pytest.raises(ParseError):
            parse_snippet("a + ;")

    def test_error_on_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_snippet("(a + b;")


class TestIntegerLiterals:
    """C's rules: ``0x`` is hex, a leading ``0`` is octal, ``u``/``l`` drop."""

    @pytest.mark.parametrize("text, value", [
        ("010", 8), ("0x1F", 31), ("07u", 7), ("0", 0), ("00", 0), ("10UL", 10),
        ("0XffLL", 255), ("18446744073709551615u", 2 ** 64 - 1),
        ("0xFFFFFFFFFFFFFFFF", 2 ** 64 - 1), ("01777777777777777777777", 2 ** 64 - 1),
    ])
    def test_value(self, text, value):
        stmt = first_stmt(f"{text};")
        assert isinstance(stmt, IntegerLiteral)
        assert stmt.value == value and stmt.spelling == text

    @pytest.mark.parametrize("text, message", [
        ("08", "invalid digit in octal literal"),
        ("0779", "invalid digit in octal literal"),
        ("0x", "hexadecimal literal without digits"),
        ("0XuL", "hexadecimal literal without digits"),
        ("18446744073709551616", "integer literal too large"),
        ("0x10000000000000000", "integer literal too large"),
        ("02000000000000000000000", "integer literal too large"),
        pytest.param("9" * 4400, "integer literal too large",  # past int()'s digit limit
                     id="4400-digits"),
        ("1.5u", "invalid floating literal"),
        ("0x1uf", "invalid floating literal"),
    ])
    def test_malformed_literal_is_a_located_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message) as caught:
            parse_snippet(f"int x;\n  x = {text};")
        assert (caught.value.token.line, caught.value.token.column) == (2, 7)
        # the message echoes a bounded prefix; the token keeps the whole text
        assert len(str(caught.value)) < 200
        assert caught.value.token.text == text


class TestStatements:
    def test_declaration_with_init(self):
        stmt = first_stmt("int x = 5;")
        assert isinstance(stmt, DeclStmt)
        decl = stmt.children[0]
        assert isinstance(decl, VarDecl) and decl.name == "x"
        assert isinstance(decl.init, IntegerLiteral)

    def test_declaration_multiple_declarators(self):
        stmt = first_stmt("int i, j = 2, k;")
        names = [d.name for d in stmt.children]
        assert names == ["i", "j", "k"]

    def test_pointer_declaration(self):
        decl = first_stmt("double *p;").children[0]
        assert "*" in decl.type_name

    def test_array_declaration(self):
        decl = first_stmt("double a[100];").children[0]
        assert len(decl.array_dims) == 1

    def test_if_without_else(self):
        stmt = first_stmt("if (x > 0) { y = 1; }")
        assert isinstance(stmt, IfStmt)
        assert stmt.else_branch is None

    def test_if_with_else(self):
        stmt = first_stmt("if (x) { } else { }")
        assert stmt.else_branch is not None

    def test_if_else_chain(self):
        stmt = first_stmt("if (a) x = 1; else if (b) x = 2; else x = 3;")
        assert isinstance(stmt.else_branch, IfStmt)

    def test_for_loop_children_order(self):
        stmt = first_stmt("for (int i = 0; i < 10; i++) { x += i; }")
        assert isinstance(stmt, ForStmt)
        assert isinstance(stmt.init, DeclStmt)
        assert isinstance(stmt.cond, BinaryOperator)
        assert isinstance(stmt.body, CompoundStmt)
        assert isinstance(stmt.inc, UnaryOperator)
        # paper ordering: init, cond, body, inc
        assert stmt.children == [stmt.init, stmt.cond, stmt.body, stmt.inc]

    def test_for_loop_empty_clauses(self):
        stmt = first_stmt("for (;;) { break; }")
        assert isinstance(stmt, ForStmt)
        assert isinstance(stmt.init, NullStmt)

    def test_for_single_statement_body_wrapped(self):
        stmt = first_stmt("for (i = 0; i < 5; i++) x += i;")
        assert isinstance(stmt.body, CompoundStmt)

    def test_while_loop(self):
        stmt = first_stmt("while (x > 0) { x--; }")
        assert isinstance(stmt, WhileStmt)

    def test_do_while_loop(self):
        stmt = first_stmt("do { x--; } while (x > 0);")
        assert isinstance(stmt, DoStmt)

    def test_return_with_value(self):
        stmt = first_stmt("return x + 1;")
        assert isinstance(stmt, ReturnStmt)
        assert stmt.value is not None

    def test_break_and_continue(self):
        block = parse_snippet("for(;;){ break; continue; }").children[0].body
        assert isinstance(block.children[0], BreakStmt)
        assert isinstance(block.children[1], ContinueStmt)

    def test_null_statement(self):
        assert isinstance(first_stmt(";"), NullStmt)

    def test_nested_blocks(self):
        stmt = first_stmt("{ { int x; } }")
        assert isinstance(stmt, CompoundStmt)
        assert isinstance(stmt.children[0], CompoundStmt)

    def test_unclosed_block_raises(self):
        with pytest.raises(ParseError):
            parse_snippet("{ int x;")


class TestOpenMPStatements:
    def test_parallel_for_directive_wraps_loop(self):
        stmt = first_stmt("#pragma omp parallel for\nfor (int i = 0; i < 10; i++) {}")
        assert isinstance(stmt, OMPParallelForDirective)
        assert isinstance(stmt.body, ForStmt)

    def test_target_teams_directive(self):
        stmt = first_stmt(
            "#pragma omp target teams distribute parallel for collapse(2)\n"
            "for (int i = 0; i < 10; i++) { for (int j = 0; j < 10; j++) {} }")
        assert isinstance(stmt, OMPTargetTeamsDistributeParallelForDirective)
        assert stmt.clause_int("collapse") == 2

    def test_non_omp_pragma_is_skipped(self):
        stmt = first_stmt("#pragma unroll\nx = 1;")
        assert isinstance(stmt, BinaryOperator)


class TestTopLevel:
    def test_function_definition(self):
        unit = parse_source("int add(int a, int b) { return a + b; }")
        func = unit.children[0]
        assert isinstance(func, FunctionDecl)
        assert func.name == "add"
        assert [p.name for p in func.params] == ["a", "b"]
        assert func.body is not None

    def test_function_declaration_without_body(self):
        unit = parse_source("double sqrt(double x);")
        assert unit.children[0].body is None

    def test_void_parameter_list(self):
        unit = parse_source("int main(void) { return 0; }")
        assert unit.children[0].params == []

    def test_array_parameter_becomes_pointer(self):
        unit = parse_source("void f(double a[], int n) {}")
        assert "*" in unit.children[0].params[0].type_name

    def test_global_variable(self):
        unit = parse_source("int N = 100;")
        assert isinstance(unit.children[0], DeclStmt)

    def test_typedef_registers_type_name(self):
        unit = parse_source("typedef unsigned long ulong_t; ulong_t counter;")
        assert isinstance(unit.children[-1], DeclStmt)

    def test_multiple_functions(self):
        unit = parse_source("void a() {}\nvoid b() {}\nvoid c() {}")
        assert len([n for n in unit.children if isinstance(n, FunctionDecl)]) == 3

    def test_parent_pointers_are_set(self):
        unit = parse_source("void f(int n) { for (int i = 0; i < n; i++) { n += i; } }")
        for node in unit.walk():
            for child in node.children:
                assert child.parent is node


@st.composite
def nested_for_loop(draw):
    depth = draw(st.integers(min_value=1, max_value=4))
    bound = draw(st.integers(min_value=1, max_value=100))
    body = "x = x + 1;"
    for level in reversed(range(depth)):
        body = f"for (int i{level} = 0; i{level} < {bound}; i{level}++) {{ {body} }}"
    return body, depth


class TestParserProperties:
    @given(nested_for_loop())
    @settings(max_examples=30, deadline=None)
    def test_nested_loops_parse_to_expected_depth(self, loop_and_depth):
        source, depth = loop_and_depth
        ast = parse_snippet(source)
        assert len(ast.find_all("ForStmt")) == depth

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_addition_literal_values_preserved(self, a, b):
        stmt = first_stmt(f"{a} + {b};")
        assert stmt.lhs.value == a and stmt.rhs.value == b

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_call_argument_count(self, args):
        stmt = first_stmt(f"f({', '.join(args)});")
        assert len(stmt.args) == len(args)


#: hostile nesting families: each maps n to a source nesting one construct
#: n deep (the flat sum nests nothing, but folds a left-deep chain n long)
DEEP_SOURCES = {
    "parentheses": lambda n: "int k() { return " + "(" * n + "1" + ")" * n + "; }",
    "braces": lambda n: "void k() { " + "{" * n + "}" * n + " }",
    "if": lambda n: "void k(int x) { " + "if (x) " * n + "x = 1; }",
    "else-if": lambda n: "void k(int x) { "
                         + " else ".join(["if (x) x = 1;"] * n) + " }",
    "for": lambda n: "void k(int x) { "
                     + "for (int i = 0; i < 2; i++) " * n + "x += 1; }",
    "chained assignment": lambda n: "void k(int x) { " + "x = " * n + "1; }",
    "flat sum": lambda n: "int k(int x) { return "
                          + " + ".join(["x"] * n) + "; }",
    "comma": lambda n: "int k(int x) { return " + ", ".join(["x"] * n) + "; }",
    "unary": lambda n: "int k(int x) { return " + "- " * n + "x; }",
    "cast": lambda n: "int k(int x) { return " + "(int) " * n + "x; }",
    "ternary": lambda n: "int k(int x) { return " + "x ? x : " * n + "x; }",
    "subscript": lambda n: "int k(int *x) { return x" + "[0]" * n + "; }",
    "initializer": lambda n: "void k() { int a[1] = "
                             + "{" * n + "1" + "}" * n + "; }",
}


def parses(source):
    try:
        parse_source(source)
    except ParseError:
        return False
    return True


def deepest_accepted(family):
    """The largest n whose *family* source still parses (binary search)."""
    make = DEEP_SOURCES[family]
    lo, hi = 1, 2 * MAX_DEPTH        # parses at lo, fails at hi
    assert parses(make(lo)) and not parses(make(hi))
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if parses(make(mid)) else (lo, mid)
    return lo


class TestNestingLimit:
    """Over-deep sources get a located ParseError, never a RecursionError."""

    @pytest.mark.parametrize("family", sorted(DEEP_SOURCES))
    def test_past_the_limit_is_a_located_parse_error(self, family):
        with pytest.raises(ParseError, match=r"nesting deeper than \d+ levels "
                                             r"\(at line 1, column \d+"):
            parse_source(DEEP_SOURCES[family](2 * MAX_DEPTH))

    @pytest.mark.parametrize("family", sorted(DEEP_SOURCES))
    def test_one_level_under_the_limit_parses(self, family):
        deepest = deepest_accepted(family)
        assert parse_source(DEEP_SOURCES[family](deepest)) is not None
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_source(DEEP_SOURCES[family](deepest + 1))

    def test_limit_counts_chain_folds(self):
        # a 500-term sum parses today and must keep parsing; twice that
        # is an AST deeper than the limit even though the parser loops
        assert parses(DEEP_SOURCES["flat sum"](500))
        assert not parses(DEEP_SOURCES["flat sum"](1000))

    def test_snippets_share_the_limit(self):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_snippet("x = " + "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH + ";")
        assert parse_snippet("x = ((((1))));") is not None
