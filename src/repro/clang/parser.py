"""Recursive-descent parser for the C subset used by the benchmark kernels.

The parser produces the Clang-style AST defined in
:mod:`repro.clang.ast_nodes`.  It supports the constructs appearing in the
nine ParaGraph benchmark applications (Table I of the paper): function
definitions, variable/array declarations, ``for`` / ``while`` / ``do`` loops,
``if``/``else``, the full C expression grammar (assignment, ternary, binary,
unary, calls, subscripts, casts, ``sizeof``), and OpenMP pragmas attached to
their following statement.

Nesting is bounded: past :data:`MAX_DEPTH` levels a parse fails with a
located :class:`ParseError` instead of exhausting Python's stack here or in
the recursive AST walkers downstream (semantic analysis, ParaGraph
construction), so hostile input cannot turn into a ``RecursionError``.

Two entry points are provided:

* :func:`parse_source` — parse a full file of function definitions / globals.
* :func:`parse_snippet` — parse a statement sequence (a kernel body) into a
  ``CompoundStmt``; this matches how the paper builds graphs for an *OpenMP
  code region* rather than a whole program.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from . import pragmas
from .ast_nodes import (
    ASTNode,
    ArraySubscriptExpr,
    BinaryOperator,
    BreakStmt,
    CStyleCastExpr,
    CallExpr,
    CharacterLiteral,
    CompoundAssignOperator,
    CompoundStmt,
    ConditionalOperator,
    ContinueStmt,
    DeclRefExpr,
    DeclStmt,
    DoStmt,
    FloatingLiteral,
    ForStmt,
    FunctionDecl,
    IfStmt,
    InitListExpr,
    IntegerLiteral,
    MemberExpr,
    NullStmt,
    ParenExpr,
    ParmVarDecl,
    ReturnStmt,
    SizeOfExpr,
    StringLiteral,
    TranslationUnitDecl,
    UnaryOperator,
    VarDecl,
    WhileStmt,
    set_parents,
)
from .lexer import Token, TokenKind, tokenize


#: Longest token text a :class:`ParseError` message echoes; a longer token
#: (a megabyte literal, say) is cut to this many characters plus ``…``.
_ECHO_LIMIT = 40


class ParseError(Exception):
    """Raised on a syntax error, with the offending token location.

    The message echoes at most :data:`_ECHO_LIMIT` characters of the token;
    ``.token`` keeps it whole.
    """

    def __init__(self, message: str, token: Token) -> None:
        text = token.text
        if len(text) > _ECHO_LIMIT:
            text = text[:_ECHO_LIMIT] + "…"
        super().__init__(f"{message} (at line {token.line}, column {token.column}, near {text!r})")
        self.token = token


#: Keywords that can begin a type specifier.
_TYPE_KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double", "signed",
        "unsigned", "_Bool", "bool", "size_t", "const", "volatile", "static",
        "extern", "register", "restrict", "inline", "struct", "union", "enum",
    }
)

#: Binary operator precedence levels (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

#: Deepest parse accepted.  Every recursive grammar rule the parser enters
#: is one level, and so is every operator folded onto a left-deep chain
#: (``a + b + c``, ``a, b``, ``a[i][j]``): the chain adds no parser frames
#: but deepens the AST that downstream walkers recurse over.  The depth
#: therefore bounds both the parser's own stack and the AST depth.  Real
#: kernels stay far below it — at most 46 over the 72 paper variants and 64
#: over 384 generated kernels — while a flat 500-term sum reaches 509.
MAX_DEPTH = 600


#: Largest value of a C integer constant (``unsigned long long``).
_MAX_INTEGER = 2 ** 64 - 1

#: Longest digit string (leading zeros dropped) that can stay within
#: :data:`_MAX_INTEGER`, per base; checked before conversion so a
#: thousands-digit literal costs nothing.
_MAX_DIGITS = {16: 16, 10: 20, 8: 22}


def _integer_value(token: Token) -> int:
    """The value of an integer literal by C's rules.

    ``0x``/``0X`` is hex, a leading ``0`` is octal, anything else decimal;
    ``u``/``l`` suffixes are dropped.  A bad octal digit, a hex prefix
    without digits or a value above 2**64 - 1 is a located
    :class:`ParseError`.
    """
    text = token.text.rstrip("uUlL")
    if text[:2] in ("0x", "0X"):
        digits, base = text[2:], 16
        if not digits:
            raise ParseError("hexadecimal literal without digits", token)
    elif text[:1] == "0":
        digits, base = text, 8
        if "8" in digits or "9" in digits:
            raise ParseError("invalid digit in octal literal", token)
    else:
        digits, base = text, 10
    if len(digits.lstrip("0")) <= _MAX_DIGITS[base]:
        value = int(digits, base)
        if value <= _MAX_INTEGER:
            return value
    raise ParseError("integer literal too large", token)


def _floating_value(token: Token) -> float:
    """The value of a floating literal; a malformed one is a :class:`ParseError`."""
    try:
        return float(token.text.rstrip("fFlL"))
    except ValueError:
        # an integer suffix on a float (``1.5u``) or a hex body (``0x1uf``)
        raise ParseError("invalid floating literal", token) from None


class Parser:
    """Token-stream parser.  One instance per parse."""

    def __init__(self, tokens: Sequence[Token]) -> None:
        self.tokens = list(tokens)
        self.pos = 0
        #: current nesting depth (see :data:`MAX_DEPTH`)
        self.depth = 0
        #: Names introduced by ``typedef`` (treated as type names thereafter).
        self.typedef_names: set = set()

    # ------------------------------------------------------------------ #
    # token helpers
    # ------------------------------------------------------------------ #
    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]        # _advance never moves past EOF

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check_punct(self, text: str) -> bool:
        return self._peek().is_punct(text)

    def _check_keyword(self, text: str) -> bool:
        return self._peek().is_keyword(text)

    def _accept_punct(self, text: str) -> Optional[Token]:
        if self._check_punct(text):
            return self._advance()
        return None

    def _accept_keyword(self, text: str) -> Optional[Token]:
        if self._check_keyword(text):
            return self._advance()
        return None

    def _expect_punct(self, text: str) -> Token:
        token = self._accept_punct(text)
        if token is None:
            raise ParseError(f"expected {text!r}", self._peek())
        return token

    def _expect_keyword(self, text: str) -> Token:
        token = self._accept_keyword(text)
        if token is None:
            raise ParseError(f"expected keyword {text!r}", self._peek())
        return token

    def _descend(self) -> int:
        """Enter one nesting level; returns the depth to restore on exit."""
        depth = self.depth
        self.depth = depth + 1
        if depth >= MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels",
                             self._peek())
        return depth

    def _at_end(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    @staticmethod
    def _loc(token: Token) -> Tuple[int, int]:
        return (token.line, token.column)

    # ------------------------------------------------------------------ #
    # type specifiers & declarations
    # ------------------------------------------------------------------ #
    def _starts_type(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        if token.kind is TokenKind.IDENTIFIER and token.text in self.typedef_names:
            return True
        return False

    def _parse_type_specifier(self) -> str:
        """Consume type / qualifier keywords and pointer stars; return spelling."""
        parts: List[str] = []
        while True:
            token = self._peek()
            if token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
                parts.append(self._advance().text)
                if parts[-1] in {"struct", "union", "enum"} and self._peek().kind is TokenKind.IDENTIFIER:
                    parts.append(self._advance().text)
                continue
            if token.kind is TokenKind.IDENTIFIER and token.text in self.typedef_names and not parts:
                parts.append(self._advance().text)
                continue
            break
        while self._check_punct("*"):
            self._advance()
            parts.append("*")
        if not parts:
            raise ParseError("expected type specifier", self._peek())
        return " ".join(parts)

    def _parse_declarator(self, base_type: str):
        """Parse ``*``s, a name and array suffixes.  Returns (name, type, dims, loc)."""
        type_name = base_type
        while self._check_punct("*"):
            self._advance()
            type_name += " *"
        name_token = self._peek()
        if name_token.kind is not TokenKind.IDENTIFIER:
            raise ParseError("expected declarator name", name_token)
        self._advance()
        dims: List[ASTNode] = []
        while self._check_punct("["):
            self._advance()
            if self._check_punct("]"):
                dims.append(IntegerLiteral(0, "", location=self._loc(self._peek())))
            else:
                dims.append(self.parse_expression())
            self._expect_punct("]")
        return name_token.text, type_name, dims, self._loc(name_token)

    def _parse_declaration(self, consume_semicolon: bool = True) -> DeclStmt:
        """Parse a (possibly multi-declarator) variable declaration."""
        start = self._peek()
        base_type = self._parse_type_specifier()
        decls: List[VarDecl] = []
        while True:
            name, type_name, dims, loc = self._parse_declarator(base_type)
            init: Optional[ASTNode] = None
            if self._accept_punct("="):
                if self._check_punct("{"):
                    init = self._parse_init_list()
                else:
                    init = self.parse_assignment()
            decls.append(VarDecl(name, type_name, init, dims, location=loc,
                                 token_index=start.index))
            if not self._accept_punct(","):
                break
        if consume_semicolon:
            self._expect_punct(";")
        return DeclStmt(decls, location=self._loc(start))

    def _parse_init_list(self) -> InitListExpr:
        depth = self._descend()
        try:
            start = self._expect_punct("{")
            inits: List[ASTNode] = []
            while not self._check_punct("}"):
                if self._check_punct("{"):
                    inits.append(self._parse_init_list())
                else:
                    inits.append(self.parse_assignment())
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return InitListExpr(inits, location=self._loc(start))
        finally:
            self.depth = depth

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def parse_expression(self) -> ASTNode:
        """Parse a full expression including the comma operator."""
        depth = self._descend()
        try:
            expr = self.parse_assignment()
            while self._check_punct(","):
                op = self._advance()
                self._descend()             # each fold deepens the chain
                rhs = self.parse_assignment()
                expr = BinaryOperator(",", expr, rhs, location=self._loc(op),
                                      token_index=op.index)
            return expr
        finally:
            self.depth = depth

    def parse_assignment(self) -> ASTNode:
        depth = self._descend()
        try:
            lhs = self._parse_conditional()
            token = self._peek()
            if token.kind is TokenKind.PUNCTUATOR and token.text in _ASSIGN_OPS:
                self._advance()
                rhs = self.parse_assignment()
                cls = BinaryOperator if token.text == "=" else CompoundAssignOperator
                return cls(token.text, lhs, rhs, location=self._loc(token),
                           token_index=token.index)
            return lhs
        finally:
            self.depth = depth

    def _parse_conditional(self) -> ASTNode:
        depth = self._descend()
        try:
            cond = self._parse_binary(0)
            if self._check_punct("?"):
                qmark = self._advance()
                true_expr = self.parse_expression()
                self._expect_punct(":")
                false_expr = self._parse_conditional()
                return ConditionalOperator(cond, true_expr, false_expr,
                                           location=self._loc(qmark))
            return cond
        finally:
            self.depth = depth

    def _parse_binary(self, min_precedence: int) -> ASTNode:
        depth = self._descend()
        try:
            lhs = self._parse_unary()
            while True:
                token = self._peek()
                if token.kind is not TokenKind.PUNCTUATOR:
                    break
                precedence = _BINARY_PRECEDENCE.get(token.text)
                if precedence is None or precedence < min_precedence:
                    break
                self._advance()
                self._descend()             # each fold deepens the chain
                rhs = self._parse_binary(precedence + 1)
                lhs = BinaryOperator(token.text, lhs, rhs, location=self._loc(token),
                                     token_index=token.index)
            return lhs
        finally:
            self.depth = depth

    def _parse_unary(self) -> ASTNode:
        depth = self._descend()
        try:
            token = self._peek()
            if token.kind is TokenKind.PUNCTUATOR and token.text in {"+", "-", "!", "~", "*", "&"}:
                self._advance()
                operand = self._parse_unary()
                return UnaryOperator(token.text, operand, prefix=True,
                                     location=self._loc(token), token_index=token.index)
            if token.kind is TokenKind.PUNCTUATOR and token.text in {"++", "--"}:
                self._advance()
                operand = self._parse_unary()
                return UnaryOperator(token.text, operand, prefix=True,
                                     location=self._loc(token), token_index=token.index)
            if token.is_keyword("sizeof"):
                self._advance()
                if self._check_punct("(") and self._starts_type(1):
                    self._advance()
                    type_name = self._parse_type_specifier()
                    self._expect_punct(")")
                    return SizeOfExpr(None, type_name, location=self._loc(token),
                                      token_index=token.index)
                operand = self._parse_unary()
                return SizeOfExpr(operand, "", location=self._loc(token),
                                  token_index=token.index)
            if self._check_punct("(") and self._starts_type(1):
                lparen = self._advance()
                type_name = self._parse_type_specifier()
                self._expect_punct(")")
                operand = self._parse_unary()
                return CStyleCastExpr(type_name, operand, location=self._loc(lparen))
            return self._parse_postfix()
        finally:
            self.depth = depth

    def _parse_postfix(self) -> ASTNode:
        depth = self._descend()
        try:
            expr = self._parse_primary()
            while True:
                token = self._peek()
                if token.kind is not TokenKind.PUNCTUATOR:
                    break
                if token.text == "[":
                    self._advance()
                    index = self.parse_expression()
                    self._expect_punct("]")
                    expr = ArraySubscriptExpr(expr, index, location=self._loc(token))
                elif token.text == "(":
                    self._advance()
                    args: List[ASTNode] = []
                    while not self._check_punct(")"):
                        args.append(self.parse_assignment())
                        if not self._accept_punct(","):
                            break
                    self._expect_punct(")")
                    expr = CallExpr(expr, args, location=self._loc(token))
                elif token.text == "." or token.text == "->":
                    self._advance()
                    member = self._peek()
                    if member.kind is not TokenKind.IDENTIFIER:
                        raise ParseError("expected member name", member)
                    self._advance()
                    expr = MemberExpr(expr, member.text, token.text == "->",
                                      location=self._loc(token), token_index=member.index)
                elif token.text == "++" or token.text == "--":
                    self._advance()
                    expr = UnaryOperator(token.text, expr, prefix=False,
                                         location=self._loc(token), token_index=token.index)
                else:
                    break
                self._descend()             # each fold deepens the chain
            return expr
        finally:
            self.depth = depth

    def _parse_primary(self) -> ASTNode:
        depth = self._descend()
        try:
            token = self._peek()
            if token.kind is TokenKind.INT_LITERAL:
                self._advance()
                return IntegerLiteral(_integer_value(token), token.text,
                                      location=self._loc(token), token_index=token.index)
            if token.kind is TokenKind.FLOAT_LITERAL:
                self._advance()
                return FloatingLiteral(_floating_value(token), token.text,
                                       location=self._loc(token), token_index=token.index)
            if token.kind is TokenKind.CHAR_LITERAL:
                self._advance()
                return CharacterLiteral(token.text, location=self._loc(token),
                                        token_index=token.index)
            if token.kind is TokenKind.STRING_LITERAL:
                self._advance()
                return StringLiteral(token.text, location=self._loc(token),
                                     token_index=token.index)
            if token.kind is TokenKind.IDENTIFIER:
                self._advance()
                return DeclRefExpr(token.text, location=self._loc(token),
                                   token_index=token.index)
            if token.is_punct("("):
                self._advance()
                inner = self.parse_expression()
                self._expect_punct(")")
                return ParenExpr(inner, location=self._loc(token))
            raise ParseError("expected expression", token)
        finally:
            self.depth = depth

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def parse_statement(self) -> ASTNode:
        depth = self._descend()
        try:
            token = self._peek()
            if token.kind is TokenKind.PRAGMA:
                return self._parse_pragma_statement()
            if token.is_punct("{"):
                return self.parse_compound_statement()
            if token.is_keyword("if"):
                return self._parse_if()
            if token.is_keyword("for"):
                return self._parse_for()
            if token.is_keyword("while"):
                return self._parse_while()
            if token.is_keyword("do"):
                return self._parse_do()
            if token.is_keyword("return"):
                self._advance()
                value = None
                if not self._check_punct(";"):
                    value = self.parse_expression()
                self._expect_punct(";")
                return ReturnStmt(value, location=self._loc(token))
            if token.is_keyword("break"):
                self._advance()
                self._expect_punct(";")
                return BreakStmt(location=self._loc(token), token_index=token.index)
            if token.is_keyword("continue"):
                self._advance()
                self._expect_punct(";")
                return ContinueStmt(location=self._loc(token), token_index=token.index)
            if token.is_punct(";"):
                self._advance()
                return NullStmt(location=self._loc(token), token_index=token.index)
            if self._starts_type():
                return self._parse_declaration()
            expr = self.parse_expression()
            self._expect_punct(";")
            return expr
        finally:
            self.depth = depth

    def parse_compound_statement(self) -> CompoundStmt:
        depth = self._descend()
        try:
            start = self._expect_punct("{")
            statements: List[ASTNode] = []
            while not self._check_punct("}"):
                if self._at_end():
                    raise ParseError("unexpected end of input in block", self._peek())
                statements.append(self.parse_statement())
            self._expect_punct("}")
            return CompoundStmt(statements, location=self._loc(start))
        finally:
            self.depth = depth

    def _parse_if(self) -> IfStmt:
        depth = self._descend()
        try:
            token = self._expect_keyword("if")
            self._expect_punct("(")
            cond = self.parse_expression()
            self._expect_punct(")")
            then_branch = self.parse_statement()
            else_branch = None
            if self._accept_keyword("else"):
                else_branch = self.parse_statement()
            return IfStmt(cond, then_branch, else_branch, location=self._loc(token))
        finally:
            self.depth = depth

    def _parse_for(self) -> ForStmt:
        depth = self._descend()
        try:
            token = self._expect_keyword("for")
            self._expect_punct("(")
            if self._check_punct(";"):
                init: ASTNode = NullStmt(location=self._loc(self._peek()))
                self._advance()
            elif self._starts_type():
                init = self._parse_declaration()
            else:
                init = self.parse_expression()
                self._expect_punct(";")
            if self._check_punct(";"):
                cond: ASTNode = IntegerLiteral(1, "1", location=self._loc(self._peek()))
            else:
                cond = self.parse_expression()
            self._expect_punct(";")
            if self._check_punct(")"):
                inc: ASTNode = NullStmt(location=self._loc(self._peek()))
            else:
                inc = self.parse_expression()
            self._expect_punct(")")
            body = self.parse_statement()
            if not isinstance(body, CompoundStmt):
                body = CompoundStmt([body], location=body.location)
            return ForStmt(init, cond, body, inc, location=self._loc(token))
        finally:
            self.depth = depth

    def _parse_while(self) -> WhileStmt:
        depth = self._descend()
        try:
            token = self._expect_keyword("while")
            self._expect_punct("(")
            cond = self.parse_expression()
            self._expect_punct(")")
            body = self.parse_statement()
            if not isinstance(body, CompoundStmt):
                body = CompoundStmt([body], location=body.location)
            return WhileStmt(cond, body, location=self._loc(token))
        finally:
            self.depth = depth

    def _parse_do(self) -> DoStmt:
        depth = self._descend()
        try:
            token = self._expect_keyword("do")
            body = self.parse_statement()
            if not isinstance(body, CompoundStmt):
                body = CompoundStmt([body], location=body.location)
            self._expect_keyword("while")
            self._expect_punct("(")
            cond = self.parse_expression()
            self._expect_punct(")")
            self._expect_punct(";")
            return DoStmt(body, cond, location=self._loc(token))
        finally:
            self.depth = depth

    def _parse_pragma_statement(self) -> ASTNode:
        depth = self._descend()
        try:
            token = self._advance()
            try:
                cls, name, clauses = pragmas.parse_omp_pragma(
                    token.text, location=self._loc(token))
            except pragmas.PragmaError:
                # Non-OpenMP pragma: skip it and parse the next statement.
                return self.parse_statement()
            body = None
            if not pragmas.is_standalone(name):
                body = self.parse_statement()
            return pragmas.build_directive(cls, name, clauses, body,
                                           location=self._loc(token))
        finally:
            self.depth = depth

    # ------------------------------------------------------------------ #
    # top level
    # ------------------------------------------------------------------ #
    def _parse_function_or_global(self) -> ASTNode:
        token = self._peek()
        if token.is_keyword("typedef"):
            # consume a simple "typedef <type> name ;"
            self._advance()
            self._parse_type_specifier()
            name = self._peek()
            if name.kind is TokenKind.IDENTIFIER:
                self.typedef_names.add(name.text)
                self._advance()
            self._expect_punct(";")
            return NullStmt(location=self._loc(token))
        base_type = self._parse_type_specifier()
        pointer = ""
        while self._check_punct("*"):
            self._advance()
            pointer += " *"
        name_token = self._peek()
        if name_token.kind is not TokenKind.IDENTIFIER:
            raise ParseError("expected declarator name", name_token)
        self._advance()
        if self._check_punct("("):
            return self._parse_function_rest(base_type + pointer, name_token)
        # global variable declaration; rewind is awkward, so parse inline
        dims: List[ASTNode] = []
        while self._check_punct("["):
            self._advance()
            if self._check_punct("]"):
                dims.append(IntegerLiteral(0, "", location=self._loc(self._peek())))
            else:
                dims.append(self.parse_expression())
            self._expect_punct("]")
        init = None
        if self._accept_punct("="):
            if self._check_punct("{"):
                init = self._parse_init_list()
            else:
                init = self.parse_assignment()
        decls = [VarDecl(name_token.text, base_type + pointer, init, dims,
                         location=self._loc(name_token), token_index=name_token.index)]
        while self._accept_punct(","):
            name, type_name, extra_dims, loc = self._parse_declarator(base_type + pointer)
            extra_init = None
            if self._accept_punct("="):
                extra_init = self.parse_assignment()
            decls.append(VarDecl(name, type_name, extra_init, extra_dims, location=loc))
        self._expect_punct(";")
        return DeclStmt(decls, location=self._loc(name_token))

    def _parse_function_rest(self, return_type: str, name_token: Token) -> FunctionDecl:
        self._expect_punct("(")
        params: List[ParmVarDecl] = []
        if self._check_keyword("void") and self._peek(1).is_punct(")"):
            self._advance()
        while not self._check_punct(")"):
            param_type = self._parse_type_specifier()
            while self._check_punct("*"):
                self._advance()
                param_type += " *"
            param_name = ""
            param_loc = self._loc(self._peek())
            param_idx = self._peek().index
            if self._peek().kind is TokenKind.IDENTIFIER:
                param_name = self._advance().text
            while self._check_punct("["):
                self._advance()
                if not self._check_punct("]"):
                    self.parse_expression()
                self._expect_punct("]")
                param_type += " *"
            params.append(ParmVarDecl(param_name, param_type, location=param_loc,
                                      token_index=param_idx))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        body = None
        if self._check_punct("{"):
            body = self.parse_compound_statement()
        else:
            self._expect_punct(";")
        func = FunctionDecl(name_token.text, return_type, params, body,
                            location=self._loc(name_token), token_index=name_token.index)
        return func

    def parse_translation_unit(self) -> TranslationUnitDecl:
        decls: List[ASTNode] = []
        while not self._at_end():
            token = self._peek()
            if token.kind is TokenKind.PRAGMA:
                if token.text.split()[:1] != ["omp"]:
                    # non-OpenMP pragma at file scope (#pragma once, ...):
                    # skip it — the statement-level fallback would misparse
                    # the following function definition as a declaration.
                    # Malformed *OpenMP* pragmas still fall through and fail.
                    self._advance()
                    continue
                decls.append(self._parse_pragma_statement())
                continue
            decls.append(self._parse_function_or_global())
        first = self.tokens[0] if self.tokens else None
        root_loc = (first.line, first.column) if first is not None and \
            first.kind is not TokenKind.EOF else (1, 1)
        unit = TranslationUnitDecl(decls, location=root_loc)
        return set_parents(unit)

    def parse_snippet_body(self) -> CompoundStmt:
        statements: List[ASTNode] = []
        while not self._at_end():
            statements.append(self.parse_statement())
        first = self.tokens[0] if self.tokens else None
        root_loc = (first.line, first.column) if first is not None and \
            first.kind is not TokenKind.EOF else (1, 1)
        body = CompoundStmt(statements, location=root_loc)
        return set_parents(body)


def parse_source(source: str, filename: str = "<source>") -> TranslationUnitDecl:
    """Parse a complete C source file into a ``TranslationUnitDecl``."""
    return Parser(tokenize(source, filename)).parse_translation_unit()


def parse_snippet(source: str, filename: str = "<snippet>") -> CompoundStmt:
    """Parse a statement sequence (kernel body) into a ``CompoundStmt``."""
    return Parser(tokenize(source, filename)).parse_snippet_body()
