"""Reference frontend: the character scanner and seven-pass ParaGraph build.

Test-only oracles for :mod:`repro.clang.lexer` and
:class:`repro.paragraph.builder.ParaGraphBuilder`.  ``Lexer`` scans one
character at a time and ``ReferenceParaGraphBuilder.build`` walks the tree
once per edge kind; both are kept exactly as the library shipped them
before its one-regex lexer and one-walk builder, so
``tests/test_frontend_reference.py`` can require token-for-token and
edge-for-edge equality between the two implementations.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterator, List, Optional

from repro.clang.ast_nodes import ASTNode, DeclRefExpr, ForStmt, IfStmt
from repro.clang.lexer import LexError, Token, TokenKind
from repro.clang.traversal import preorder, terminals_in_token_order
from repro.paragraph.builder import ParaGraphBuilder
from repro.paragraph.edges import EdgeType
from repro.paragraph.graph import ParaGraph
from repro.paragraph.weights import child_edge_weights

_PUNCTUATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default", "do",
        "double", "else", "enum", "extern", "float", "for", "goto", "if",
        "inline", "int", "long", "register", "restrict", "return", "short",
        "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
        "unsigned", "void", "volatile", "while", "_Bool", "bool", "size_t",
    }
)


class Lexer:
    """Stateful scanner over a source string.

    The public entry point is :meth:`tokenize`; :func:`tokenize` is the
    module-level convenience wrapper.
    """

    def __init__(self, source: str, filename: str = "<source>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1
        self._tokens: List[Token] = []

    # ------------------------------------------------------------------ #
    # low-level cursor helpers
    # ------------------------------------------------------------------ #
    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        if idx < len(self.source):
            return self.source[idx]
        return ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return text

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.column)

    # ------------------------------------------------------------------ #
    # whitespace / comments / preprocessor
    # ------------------------------------------------------------------ #
    def _skip_trivia(self) -> Optional[Token]:
        """Skip whitespace and comments; return a PRAGMA token when one is found."""
        while not self._at_end():
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
                continue
            if ch == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
                continue
            if ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while not self._at_end() and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self._at_end():
                    raise self._error("unterminated block comment")
                self._advance(2)
                continue
            if ch == "#":
                pragma = self._lex_preprocessor_line()
                if pragma is not None:
                    return pragma
                continue
            break
        return None

    def _lex_preprocessor_line(self) -> Optional[Token]:
        """Consume a ``#...`` line.

        ``#pragma`` lines become PRAGMA tokens; other directives are ignored.
        Line continuations (backslash-newline) are honoured.
        """
        line, column = self.line, self.column
        self._advance()  # '#'
        body_chars: List[str] = []
        while not self._at_end():
            ch = self._peek()
            if ch == "\\" and self._peek(1) == "\n":
                self._advance(2)
                body_chars.append(" ")
                continue
            if ch == "\n":
                break
            body_chars.append(ch)
            self._advance()
        body = "".join(body_chars).strip()
        if body.startswith("pragma"):
            text = body[len("pragma"):].strip()
            return Token(TokenKind.PRAGMA, text, line, column)
        return None

    # ------------------------------------------------------------------ #
    # literal scanners
    # ------------------------------------------------------------------ #
    def _lex_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        is_float = False
        src = self.source
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while not self._at_end() and (self._peek() in "0123456789abcdefABCDEF"):
                self._advance()
        else:
            while not self._at_end() and self._peek().isdigit():
                self._advance()
            if self._peek() == "." and self._peek(1).isdigit():
                is_float = True
                self._advance()
                while not self._at_end() and self._peek().isdigit():
                    self._advance()
            elif self._peek() == ".":
                is_float = True
                self._advance()
            if self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while not self._at_end() and self._peek().isdigit():
                    self._advance()
        # suffixes
        while not self._at_end() and self._peek() in "uUlLfF":
            if self._peek() in "fF":
                is_float = True
            self._advance()
        text = src[start : self.pos]
        kind = TokenKind.FLOAT_LITERAL if is_float else TokenKind.INT_LITERAL
        return Token(kind, text, line, column)

    def _lex_identifier(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        return Token(kind, text, line, column)

    def _lex_quoted(self, quote: str, kind: TokenKind) -> Token:
        line, column = self.line, self.column
        start = self.pos
        self._advance()  # opening quote
        while not self._at_end() and self._peek() != quote:
            if self._peek() == "\\":
                self._advance(2)
            else:
                if self._peek() == "\n":
                    raise self._error("unterminated literal")
                self._advance()
        if self._at_end():
            raise self._error("unterminated literal")
        self._advance()  # closing quote
        return Token(kind, self.source[start : self.pos], line, column)

    def _lex_punctuator(self) -> Token:
        line, column = self.line, self.column
        for punct in _PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCTUATOR, punct, line, column)
        raise self._error(f"unexpected character {self._peek()!r}")

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def _next_token(self) -> Token:
        pragma = self._skip_trivia()
        if pragma is not None:
            return pragma
        if self._at_end():
            return Token(TokenKind.EOF, "", self.line, self.column)
        ch = self._peek()
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number()
        if ch.isalpha() or ch == "_":
            return self._lex_identifier()
        if ch == '"':
            return self._lex_quoted('"', TokenKind.STRING_LITERAL)
        if ch == "'":
            return self._lex_quoted("'", TokenKind.CHAR_LITERAL)
        return self._lex_punctuator()

    def tokenize(self) -> List[Token]:
        """Tokenize the whole source, returning tokens ending with EOF."""
        tokens: List[Token] = []
        while True:
            token = self._next_token()
            token = Token(
                token.kind, token.text, token.line, token.column, index=len(tokens)
            )
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                break
        self._tokens = tokens
        return tokens

    def __iter__(self) -> Iterator[Token]:  # pragma: no cover - convenience
        return iter(self.tokenize())


def reference_tokenize(source: str) -> List[Token]:
    """Tokenize with the character scanner."""
    return Lexer(source).tokenize()


class ReferenceParaGraphBuilder(ParaGraphBuilder):
    """:class:`ParaGraphBuilder` with the seven-pass ``build``."""

    def build(self, root: ASTNode) -> ParaGraph:
        """Build the graph for the subtree rooted at *root*."""
        graph = ParaGraph(name=self.name)
        node_ids: Dict[int, int] = {}

        # 1. nodes (pre-order so parents get smaller ids than children)
        for ast_node in preorder(root):
            node_ids[id(ast_node)] = graph.add_node(
                label=ast_node.kind,
                spelling=ast_node.spelling,
                is_terminal=ast_node.is_terminal,
                ast_node=ast_node,
            )

        # 2. Child edges (weighted for the full ParaGraph variant)
        if self.variant.includes_weights:
            weights = iter(child_edge_weights(root, self.weight_config))
        else:
            weights = repeat(1.0)
        for ast_node in preorder(root):
            parent_id = node_ids[id(ast_node)]
            for child in ast_node.children:
                graph.add_edge(parent_id, node_ids[id(child)], EdgeType.CHILD,
                               next(weights))

        if not self.variant.includes_augmentation_edges:
            return graph

        # 3. NextToken edges over the syntax tokens, left to right
        terminals = terminals_in_token_order(root)
        for left, right in zip(terminals, terminals[1:]):
            graph.add_edge(node_ids[id(left)], node_ids[id(right)], EdgeType.NEXT_TOKEN)

        # 4. NextSib edges between consecutive children of each node
        for ast_node in preorder(root):
            children = ast_node.children
            for left, right in zip(children, children[1:]):
                graph.add_edge(node_ids[id(left)], node_ids[id(right)], EdgeType.NEXT_SIB)

        # 5. Ref edges from variable uses to their declarations
        for ast_node in preorder(root):
            if isinstance(ast_node, DeclRefExpr) and ast_node.referenced_decl is not None:
                decl_id = node_ids.get(id(ast_node.referenced_decl))
                if decl_id is not None:
                    graph.add_edge(node_ids[id(ast_node)], decl_id, EdgeType.REF)

        # 6. loop execution-order edges
        for ast_node in preorder(root):
            if isinstance(ast_node, ForStmt):
                init_id = node_ids[id(ast_node.init)]
                cond_id = node_ids[id(ast_node.cond)]
                body_id = node_ids[id(ast_node.body)]
                inc_id = node_ids[id(ast_node.inc)]
                # ForExec: flow into the next execution of the loop body
                graph.add_edge(init_id, cond_id, EdgeType.FOR_EXEC)
                graph.add_edge(cond_id, body_id, EdgeType.FOR_EXEC)
                # ForNext: flow deciding/starting the next iteration
                graph.add_edge(body_id, inc_id, EdgeType.FOR_NEXT)
                graph.add_edge(inc_id, cond_id, EdgeType.FOR_NEXT)

        # 7. if-branch edges
        for ast_node in preorder(root):
            if isinstance(ast_node, IfStmt):
                cond_id = node_ids[id(ast_node.cond)]
                if ast_node.then_branch is not None:
                    graph.add_edge(cond_id, node_ids[id(ast_node.then_branch)],
                                   EdgeType.CON_TRUE)
                if ast_node.else_branch is not None:
                    graph.add_edge(cond_id, node_ids[id(ast_node.else_branch)],
                                   EdgeType.CON_FALSE)

        return graph
