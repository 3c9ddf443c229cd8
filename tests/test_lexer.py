"""Unit and property tests for the C lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clang.lexer import LexError, Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_whitespace_only(self):
        assert tokenize("   \n\t  ")[-1].kind is TokenKind.EOF
        assert len(tokenize("   \n\t  ")) == 1

    def test_identifier(self):
        assert kinds("foo") == [TokenKind.IDENTIFIER]

    def test_identifier_with_underscore_and_digits(self):
        assert texts("_my_var2") == ["_my_var2"]

    def test_keyword(self):
        assert kinds("int") == [TokenKind.KEYWORD]

    def test_keyword_vs_identifier_prefix(self):
        # "integer" starts with "int" but is an identifier
        assert kinds("integer") == [TokenKind.IDENTIFIER]

    def test_int_literal(self):
        assert kinds("42") == [TokenKind.INT_LITERAL]

    def test_hex_literal(self):
        tokens = tokenize("0xFF")
        assert tokens[0].kind is TokenKind.INT_LITERAL
        assert tokens[0].text == "0xFF"

    def test_float_literal(self):
        assert kinds("3.14") == [TokenKind.FLOAT_LITERAL]

    def test_float_with_exponent(self):
        assert kinds("1e10 2.5e-3") == [TokenKind.FLOAT_LITERAL, TokenKind.FLOAT_LITERAL]

    def test_float_suffix(self):
        assert kinds("1.0f") == [TokenKind.FLOAT_LITERAL]

    def test_integer_suffixes(self):
        assert kinds("10UL") == [TokenKind.INT_LITERAL]

    def test_char_literal(self):
        assert kinds("'a'") == [TokenKind.CHAR_LITERAL]

    def test_char_literal_escape(self):
        assert texts(r"'\n'") == [r"'\n'"]

    def test_string_literal(self):
        assert kinds('"hello world"') == [TokenKind.STRING_LITERAL]

    def test_string_with_escaped_quote(self):
        assert kinds(r'"a\"b"') == [TokenKind.STRING_LITERAL]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* not closed")


class TestOperators:
    def test_simple_operators(self):
        assert texts("a + b * c") == ["a", "+", "b", "*", "c"]

    def test_maximal_munch_shift(self):
        assert texts("a <<= 2") == ["a", "<<=", "2"]

    def test_maximal_munch_increment(self):
        assert texts("i++") == ["i", "++"]

    def test_arrow_vs_minus(self):
        assert texts("p->x - y") == ["p", "->", "x", "-", "y"]

    def test_comparison_operators(self):
        assert texts("a <= b >= c == d != e") == ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e"]

    def test_logical_operators(self):
        assert texts("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]

    def test_all_punctuation_round_trip(self):
        source = "( ) [ ] { } ; , . ? :"
        assert texts(source) == source.split()


class TestCommentsAndPragmas:
    def test_line_comment_skipped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* comment \n over lines */ b") == ["a", "b"]

    def test_include_skipped(self):
        assert texts("#include <stdio.h>\nint x;") == ["int", "x", ";"]

    def test_define_skipped(self):
        assert texts("#define N 100\nint x;") == ["int", "x", ";"]

    def test_pragma_omp_token(self):
        tokens = tokenize("#pragma omp parallel for\nfor(;;);")
        assert tokens[0].kind is TokenKind.PRAGMA
        assert tokens[0].text == "omp parallel for"

    def test_pragma_with_line_continuation(self):
        tokens = tokenize("#pragma omp parallel \\\n    for\nint x;")
        assert tokens[0].kind is TokenKind.PRAGMA
        assert "parallel" in tokens[0].text and "for" in tokens[0].text


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("int x;\n  x = 1;")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        x_assign = [t for t in tokens if t.text == "=" ][0]
        assert x_assign.line == 2

    def test_token_indices_are_sequential(self):
        tokens = tokenize("a b c d")
        assert [t.index for t in tokens] == list(range(len(tokens)))

    def test_is_punct_and_is_keyword_helpers(self):
        tokens = tokenize("for (")
        assert tokens[0].is_keyword("for")
        assert tokens[1].is_punct("(")
        assert not tokens[0].is_punct("for")


@st.composite
def simple_c_expression(draw):
    """Generate small well-formed arithmetic expressions."""
    depth = draw(st.integers(min_value=0, max_value=3))

    def build(level):
        if level == 0:
            return draw(st.sampled_from(["a", "b", "x1", "42", "3.5"]))
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"({build(level - 1)} {op} {build(level - 1)})"

    return build(depth)


class TestLexerProperties:
    @given(simple_c_expression())
    @settings(max_examples=50, deadline=None)
    def test_expression_lexes_without_error(self, expression):
        tokens = tokenize(expression)
        assert tokens[-1].kind is TokenKind.EOF

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_identifier_round_trip(self, name):
        tokens = tokenize(name)
        assert tokens[0].text == name
        assert tokens[0].kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_integer_round_trip(self, value):
        tokens = tokenize(str(value))
        assert tokens[0].kind is TokenKind.INT_LITERAL
        assert int(tokens[0].text) == value

    @given(st.lists(st.sampled_from(["int", "x", "42", "+", ";", "(", ")"]),
                    min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_token_count_matches_input_pieces(self, pieces):
        source = " ".join(pieces)
        tokens = tokenize(source)
        assert len(tokens) == len(pieces) + 1  # + EOF
