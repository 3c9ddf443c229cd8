"""Tests for reference resolution, implicit casts, constant folding and
trip-count analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clang import analyze, parse_snippet, parse_source
from repro.clang.ast_nodes import DeclRefExpr, ForStmt, ImplicitCastExpr, VarDecl
from repro.clang.semantics import (
    ConstantEnvironment,
    SemanticError,
    counter_range,
    estimate_trip_count,
    evaluate_constant,
    insert_implicit_casts,
    resolve_references,
)
from repro.clang.parser import Parser
from repro.clang.lexer import tokenize


def parse_expr(text):
    return Parser(tokenize(text)).parse_expression()


class TestReferenceResolution:
    def test_local_variable_resolves(self):
        ast = parse_snippet("int x = 1; x = x + 2;")
        resolved = resolve_references(ast)
        refs = [n for n in ast.walk() if isinstance(n, DeclRefExpr)]
        assert resolved == len(refs)
        assert all(isinstance(r.referenced_decl, VarDecl) for r in refs)

    def test_parameter_resolves(self):
        unit = parse_source("void f(int n) { n = n + 1; }")
        resolve_references(unit)
        refs = unit.find_all("DeclRefExpr")
        assert all(ref.referenced_decl is not None for ref in refs)

    def test_loop_counter_resolves_inside_body(self):
        ast = parse_snippet("for (int i = 0; i < 10; i++) { int y = i; }")
        resolve_references(ast)
        refs = [n for n in ast.walk() if isinstance(n, DeclRefExpr) and n.name == "i"]
        assert refs and all(r.referenced_decl is not None for r in refs)

    def test_unresolved_library_call_allowed_by_default(self):
        ast = parse_snippet("double y = sqrt(2.0);")
        resolve_references(ast)  # should not raise
        sqrt_ref = [n for n in ast.walk() if isinstance(n, DeclRefExpr) and n.name == "sqrt"][0]
        assert sqrt_ref.referenced_decl is None

    def test_strict_mode_raises_on_unresolved(self):
        ast = parse_snippet("y = unknown_variable;")
        with pytest.raises(SemanticError):
            resolve_references(ast, strict=True)

    def test_shadowing_resolves_to_innermost(self):
        ast = parse_snippet("int x = 1; { int x = 2; x = 3; }")
        resolve_references(ast)
        inner_assignment_ref = [n for n in ast.walk()
                                if isinstance(n, DeclRefExpr) and n.name == "x"][-1]
        assert inner_assignment_ref.referenced_decl.init.value == 2

    def test_function_name_resolves_to_function_decl(self):
        unit = parse_source("int helper(int a) { return a; }\n"
                            "int main() { return helper(1); }")
        resolve_references(unit)
        call_ref = [n for n in unit.walk()
                    if isinstance(n, DeclRefExpr) and n.name == "helper"][0]
        assert call_ref.referenced_decl is not None
        assert call_ref.referenced_decl.kind == "FunctionDecl"


class TestImplicitCasts:
    def test_rvalue_use_gets_cast(self):
        ast = parse_snippet("int x; int y; y = x;")
        insert_implicit_casts(ast)
        casts = ast.find_all("ImplicitCastExpr")
        assert len(casts) == 1
        assert isinstance(casts[0].children[0], DeclRefExpr)

    def test_assignment_lhs_not_cast(self):
        ast = parse_snippet("int x; x = 1;")
        insert_implicit_casts(ast)
        assert ast.find_all("ImplicitCastExpr") == []

    def test_condition_use_gets_cast_like_figure2(self):
        # the paper's Fig. 2: if (x > 50) shows ImplicitCastExpr above DeclRefExpr
        ast = parse_snippet("int x; if (x > 50) { x = 1; }")
        insert_implicit_casts(ast)
        condition_casts = ast.find_all("ImplicitCastExpr")
        assert len(condition_casts) == 1

    def test_array_base_gets_decay_cast(self):
        ast = parse_snippet("double a[10]; double y; y = a[2];")
        insert_implicit_casts(ast)
        kinds = {c.cast_kind for c in ast.find_all("ImplicitCastExpr")}
        assert "ArrayToPointerDecay" in kinds

    def test_address_of_operand_not_cast(self):
        ast = parse_snippet("int x; int *p; p = &x;")
        insert_implicit_casts(ast)
        for cast in ast.find_all("ImplicitCastExpr"):
            assert cast.children[0].name != "x" or cast.cast_kind != "LValueToRValue"

    def test_idempotent_no_double_wrap(self):
        ast = parse_snippet("int x; int y; y = x + x;")
        first = insert_implicit_casts(ast)
        second = insert_implicit_casts(ast)
        assert second == 0
        assert len(ast.find_all("ImplicitCastExpr")) == first

    def test_parent_accessor_updated(self):
        ast = parse_snippet("int x; int y; y = x;")
        insert_implicit_casts(ast)
        assignment = [n for n in ast.walk() if n.kind == "BinaryOperator"][0]
        assert isinstance(assignment.rhs, ImplicitCastExpr)

    def test_analyze_runs_both_passes(self):
        ast = analyze(parse_snippet("int x = 2; int y; y = x;"))
        assert ast.find_all("ImplicitCastExpr")
        ref = [n for n in ast.walk() if isinstance(n, DeclRefExpr) and n.name == "x"][0]
        assert ref.referenced_decl is not None


class TestConstantFolding:
    def test_literal(self):
        assert evaluate_constant(parse_expr("42")) == 42

    def test_arithmetic(self):
        assert evaluate_constant(parse_expr("2 + 3 * 4")) == 14

    def test_division_integer(self):
        assert evaluate_constant(parse_expr("7 / 2")) == 3

    def test_unary_minus(self):
        assert evaluate_constant(parse_expr("-5")) == -5

    def test_comparison(self):
        assert evaluate_constant(parse_expr("3 < 5")) == 1

    def test_ternary(self):
        assert evaluate_constant(parse_expr("1 ? 10 : 20")) == 10

    def test_variable_from_environment(self):
        env = ConstantEnvironment({"N": 128})
        assert evaluate_constant(parse_expr("N * 2"), env) == 256

    def test_unknown_variable_returns_none(self):
        assert evaluate_constant(parse_expr("M + 1")) is None

    def test_sizeof_double(self):
        assert evaluate_constant(parse_expr("sizeof(double)")) == 8

    def test_division_by_zero_returns_none_or_zero(self):
        assert evaluate_constant(parse_expr("1 % 0")) in (None, 0)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=40, deadline=None)
    def test_addition_matches_python(self, a, b):
        assert evaluate_constant(parse_expr(f"({a}) + ({b})")) == a + b

    @given(st.integers(0, 500), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_multiplication_matches_python(self, a, b):
        assert evaluate_constant(parse_expr(f"{a} * {b}")) == a * b


class TestTripCount:
    def get_loop(self, source):
        ast = parse_snippet(source)
        return ast.find_all("ForStmt")[0]

    def test_simple_upward_loop(self):
        loop = self.get_loop("for (int i = 0; i < 100; i++) {}")
        assert estimate_trip_count(loop) == 100

    def test_inclusive_bound(self):
        loop = self.get_loop("for (int i = 0; i <= 100; i++) {}")
        assert estimate_trip_count(loop) == 101

    def test_nonzero_start(self):
        loop = self.get_loop("for (int i = 10; i < 100; i++) {}")
        assert estimate_trip_count(loop) == 90

    def test_step_two(self):
        loop = self.get_loop("for (int i = 0; i < 100; i += 2) {}")
        assert estimate_trip_count(loop) == 50

    def test_downward_loop(self):
        loop = self.get_loop("for (int i = 99; i >= 0; i--) {}")
        assert estimate_trip_count(loop) == 100

    def test_variable_bound_from_environment(self):
        loop = self.get_loop("for (int i = 0; i < N; i++) {}")
        env = ConstantEnvironment({"N": 777})
        assert estimate_trip_count(loop, env) == 777

    def test_unknown_bound_uses_default(self):
        loop = self.get_loop("for (int i = 0; i < unknown; i++) {}")
        assert estimate_trip_count(loop, default=7) == 7

    def test_zero_trip_loop(self):
        loop = self.get_loop("for (int i = 10; i < 5; i++) {}")
        assert estimate_trip_count(loop) == 0

    def test_flipped_condition(self):
        loop = self.get_loop("for (int i = 0; 100 > i; i++) {}")
        assert estimate_trip_count(loop) == 100

    def test_assignment_style_init(self):
        loop = self.get_loop("int i; for (i = 5; i < 25; i++) {}")
        assert estimate_trip_count(loop) == 20

    @pytest.mark.parametrize("bound, step", [
        ("1e999", "1"), ("1 << 2000", "1"), ("0.0 / 0.0", "1"),
        # the count itself would leave 64 bits
        ("1e19", "1e-300"), ("18446744073709551615", "1"),
    ])
    def test_unrepresentable_bounds_use_default(self, bound, step):
        loop = self.get_loop(f"for (int i = -9223372036854775807; i < {bound}; i += {step}) {{}}")
        assert estimate_trip_count(loop, default=16) == 16

    def test_largest_bounds_still_count(self):
        loop = self.get_loop("for (int i = 0; i < (1 << 62); i++) {}")
        assert estimate_trip_count(loop) == 2 ** 62

    @given(st.integers(0, 50), st.integers(51, 300), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_trip_count_matches_python_range(self, start, stop, step):
        loop = self.get_loop(f"for (int i = {start}; i < {stop}; i += {step}) {{}}")
        assert estimate_trip_count(loop) == len(range(start, stop, step))


class TestConstantFoldingEdges:
    def test_division_by_zero_is_not_constant(self):
        assert evaluate_constant(parse_expr("1 / 0")) is None
        assert evaluate_constant(parse_expr("7 % 0")) is None

    def test_division_by_folded_zero(self):
        assert evaluate_constant(parse_expr("4 / (2 - 2)")) is None

    def test_integer_division_truncates(self):
        assert evaluate_constant(parse_expr("7 / 2")) == 3
        assert evaluate_constant(parse_expr("7.0 / 2")) == 3.5

    def test_mixed_unary_operators(self):
        assert evaluate_constant(parse_expr("-(-3)")) == 3
        assert evaluate_constant(parse_expr("+-+5")) == -5
        assert evaluate_constant(parse_expr("!0")) == 1
        assert evaluate_constant(parse_expr("~0")) == -1

    def test_unresolvable_name_is_not_constant(self):
        assert evaluate_constant(parse_expr("mystery + 1")) is None

    def test_environment_resolves_names(self):
        env = ConstantEnvironment({"N": 6})
        assert evaluate_constant(parse_expr("N * 2"), env) == 12

    @pytest.mark.parametrize("expression", [
        "1e999", "-1e999", "1e300", "1e308 * 10", "1 << 2000", "1 << 64", "1 << -1", "8 >> 64",
        "18446744073709551615 + 1", "-9223372036854775807 - 2", "(1 << 62) * (1 << 62)",
        " * ".join(["(1 << 62)"] * 17), "1 << 8000000",
    ])
    def test_values_outside_64_bits_are_not_constant(self, expression):
        assert evaluate_constant(parse_expr(expression)) is None

    def test_deepest_parsable_sum_folds(self):
        # bounding each fold must not cost stack: a 500-term sum sits just
        # inside the parser's nesting limit
        assert evaluate_constant(parse_expr(" + ".join(["1"] * 500))) == 500

    @pytest.mark.parametrize("length, value", [(100, 100), (400, None)])
    def test_declaration_chains_share_the_fold_budget(self, length, value):
        # each hop to a declaration's initializer spends the same depth
        # budget as an expression level: a long chain is "not evaluable"
        source = ("void k() { int x0 = 1; "
                  + " ".join(f"int x{i} = x{i - 1} + 1;" for i in range(1, length))
                  + f" int last = x{length - 1}; }}")
        root = parse_source(source)
        analyze(root)
        last = next(node for node in root.walk()
                    if isinstance(node, VarDecl) and node.name == "last")
        assert evaluate_constant(last.init) == value

    def test_values_inside_64_bits_fold(self):
        assert evaluate_constant(parse_expr("1 << 63")) == 2 ** 63
        assert evaluate_constant(parse_expr("18446744073709551615")) == 2 ** 64 - 1
        assert evaluate_constant(parse_expr("-9223372036854775807 - 1")) == -(2 ** 63)
        assert evaluate_constant(parse_expr("1e18")) == 1e18

    def test_with_values_layers_without_mutation(self):
        base = ConstantEnvironment({"N": 4, "M": 2})
        layered = base.with_values({"M": 9, "K": 1})
        assert evaluate_constant(parse_expr("N + M"), layered) == 13
        assert evaluate_constant(parse_expr("K"), layered) == 1
        # the base environment is untouched
        assert evaluate_constant(parse_expr("M"), base) == 2
        assert evaluate_constant(parse_expr("K"), base) is None


class TestSemanticErrorLocation:
    def test_strict_error_names_line_and_column(self):
        ast = parse_snippet("int x = 1;\nx = missing_name;")
        with pytest.raises(SemanticError, match=r"line 2") as excinfo:
            resolve_references(ast, strict=True)
        assert excinfo.value.location[0] == 2

    def test_default_location_omitted_from_message(self):
        error = SemanticError("plain")
        assert "line" not in str(error)
        assert error.location == (0, 0)


class TestCounterRange:
    @staticmethod
    def get_loop(code):
        ast = analyze(parse_snippet(code))
        return [n for n in ast.walk() if isinstance(n, ForStmt)][0]

    def test_upward_exclusive(self):
        loop = self.get_loop("for (int i = 0; i < 10; i++) {}")
        assert counter_range(loop) == (0, 9)

    def test_upward_inclusive_with_stride(self):
        loop = self.get_loop("for (int i = 1; i <= 10; i += 3) {}")
        assert counter_range(loop) == (1, 10)

    def test_stride_stops_short_of_bound(self):
        loop = self.get_loop("for (int i = 0; i < 10; i += 4) {}")
        assert counter_range(loop) == (0, 8)

    def test_downward_loop(self):
        loop = self.get_loop("for (int i = 9; i >= 0; i--) {}")
        assert counter_range(loop) == (0, 9)

    def test_zero_trip_loop_has_no_range(self):
        loop = self.get_loop("for (int i = 10; i < 5; i++) {}")
        assert counter_range(loop) is None

    def test_unknown_bound_without_env(self):
        loop = self.get_loop("for (int i = 0; i < N; i++) {}")
        assert counter_range(loop) is None
        assert counter_range(loop, ConstantEnvironment({"N": 4})) == (0, 3)

    @given(st.integers(0, 20), st.integers(21, 100), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_range_matches_python_range(self, start, stop, step):
        loop = self.get_loop(
            f"for (int i = {start}; i < {stop}; i += {step}) {{}}")
        values = range(start, stop, step)
        assert counter_range(loop) == (values[0], values[-1])
