"""Tokenizer for the C subset used by the ParaGraph benchmark kernels.

The original ParaGraph pipeline used Clang to parse OpenMP C/C++ kernels.
Clang is not available in this environment, so this module implements a
self-contained lexer producing a flat token stream that the recursive-descent
parser in :mod:`repro.clang.parser` consumes.

The lexer understands:

* identifiers and C keywords,
* integer / floating literals (decimal, hex, octal, exponents, suffixes),
* character and string literals with escape sequences,
* all C operators and punctuators used in expression/statement grammar,
* ``//`` and ``/* */`` comments (skipped),
* preprocessor lines: ``#pragma`` lines are emitted as :data:`TokenKind.PRAGMA`
  tokens carrying the raw pragma text (so OpenMP directives survive into the
  AST), every other ``#...`` line (``#include``, ``#define`` without use, …)
  is skipped.

Tokens carry their source location so the AST — and therefore ParaGraph —
can preserve the left-to-right token order required for ``NextToken`` edges.

The whole scanner is one compiled regular expression whose alternatives are
tried in priority order at each position; line and column come from match
offsets.  Every repeated part of a pattern has one way to consume each
character, so matching stays linear in the input length.  Numbers are
ASCII digits; identifiers start with any word character but a decimal
digit and continue with word characters (C11 Annex D allows Unicode
identifiers).
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import List, NamedTuple


class LexError(Exception):
    """Raised when the source text cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class TokenKind(Enum):
    """Classification of lexed tokens."""

    IDENTIFIER = auto()
    KEYWORD = auto()
    INT_LITERAL = auto()
    FLOAT_LITERAL = auto()
    CHAR_LITERAL = auto()
    STRING_LITERAL = auto()
    PUNCTUATOR = auto()
    PRAGMA = auto()
    EOF = auto()


#: Keywords of the supported C subset.  ``restrict`` and storage-class
#: specifiers are accepted so real benchmark sources parse unmodified.
KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default", "do",
        "double", "else", "enum", "extern", "float", "for", "goto", "if",
        "inline", "int", "long", "register", "restrict", "return", "short",
        "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
        "unsigned", "void", "volatile", "while", "_Bool", "bool", "size_t",
    }
)

#: Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


class Token(NamedTuple):
    """A single lexical token.

    Attributes
    ----------
    kind:
        The token classification.
    text:
        The exact source spelling (for :data:`TokenKind.PRAGMA` tokens the
        text is the pragma body without the leading ``#pragma``).
    line, column:
        1-based source position of the first character.
    index:
        Position of the token in the token stream; used by downstream code to
        impose the ``NextToken`` ordering.
    """

    kind: TokenKind
    text: str
    line: int
    column: int
    index: int = 0

    def is_punct(self, text: str) -> bool:
        """Return True when this token is the given punctuator."""
        return self.kind is TokenKind.PUNCTUATOR and self.text == text

    def is_keyword(self, text: str) -> bool:
        """Return True when this token is the given keyword."""
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"


#: (group name, pattern) in priority order; the first alternative that
#: matches at a position wins.  Group names ending in ``_ERROR`` raise.
_TOKEN_PATTERNS = [
    # whitespace and comments (skipped)
    ("SKIP", r"[ \t\r\n]+|//[^\n]*|/\*.*?\*/"),
    ("COMMENT_ERROR", r"/\*"),
    # a preprocessor line, with backslash-newline continuations
    ("DIRECTIVE", r"#(?:[^\\\n]|\\\n?)*"),
    # hex: float only through an ``f`` suffix after ``u``/``l`` (``0x1uf``)
    ("HEX", r"0[xX][0-9a-fA-F]*(?P<HEX_SUFFIX>[uUlLfF]*)"),
    # a decimal literal is a float with a ``.``, an exponent or an ``f`` suffix
    ("FLOAT", r"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[uUlLfF]*"
              r"|[0-9]+(?:[eE][+-]?[0-9]+[uUlLfF]*|[uUlL]*[fF][uUlLfF]*)"),
    ("INT", r"[0-9]+[uUlL]*"),
    ("NAME", r"[^\W\d]\w*"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"'),
    ("CHAR", r"'(?:[^'\\\n]|\\.)*'"),
    # a literal whose closing quote never comes: the match ends where the
    # scan stopped (an unescaped newline, or the end of the input)
    ("QUOTE_ERROR", r'"(?:[^"\\\n]|\\.)*' + r"|'(?:[^'\\\n]|\\.)*"),
    ("PUNCT", "|".join(map(re.escape, _PUNCTUATORS))),
    ("CHAR_ERROR", r"."),
]

_TOKEN_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_PATTERNS),
    re.DOTALL,
)

_KINDS = {
    "INT": TokenKind.INT_LITERAL,
    "FLOAT": TokenKind.FLOAT_LITERAL,
    "STRING": TokenKind.STRING_LITERAL,
    "CHAR": TokenKind.CHAR_LITERAL,
}

#: groups whose text can contain a newline
_MULTILINE = frozenset({"SKIP", "DIRECTIVE", "STRING", "CHAR"})


def _error_at(source: str, offset: int, message: str) -> LexError:
    line = source.count("\n", 0, offset) + 1
    return LexError(message, line, offset - source.rfind("\n", 0, offset))


def _lex_error(source: str, match: "re.Match[str]") -> LexError:
    group = match.lastgroup
    if group == "COMMENT_ERROR":
        return _error_at(source, len(source), "unterminated block comment")
    if group == "QUOTE_ERROR":
        stop = match.end()
        if not source.startswith("\n", stop):
            stop = len(source)      # ran out of input (maybe after a ``\``)
        return _error_at(source, stop, "unterminated literal")
    return _error_at(source, match.start(),
                     f"unexpected character {match.group()!r}")


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Tokenize *source* and return the token list (terminated by EOF)."""
    tokens: List[Token] = []
    line = 1
    line_start = 0                  # offset of the current line's first character
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        text = match.group()
        if group == "PUNCT":
            kind = TokenKind.PUNCTUATOR
        elif group == "NAME":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        elif group in _MULTILINE:
            start = match.start()
            if group == "DIRECTIVE":
                body = text[1:].replace("\\\n", " ").strip()
                if body.startswith("pragma"):
                    tokens.append(Token(TokenKind.PRAGMA, body[len("pragma"):].strip(),
                                        line, start - line_start + 1, len(tokens)))
            elif group != "SKIP":
                tokens.append(Token(_KINDS[group], text, line, start - line_start + 1,
                                    len(tokens)))
            newline = text.rfind("\n")
            if newline >= 0:
                line += text.count("\n")
                line_start = start + newline + 1
            continue
        elif group == "HEX":
            suffix = match.group("HEX_SUFFIX")
            kind = TokenKind.FLOAT_LITERAL if "f" in suffix or "F" in suffix \
                else TokenKind.INT_LITERAL
        else:
            kind = _KINDS.get(group)
            if kind is None:
                raise _lex_error(source, match)
        tokens.append(Token(kind, text, line, match.start() - line_start + 1, len(tokens)))
    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1,
                        len(tokens)))
    return tokens
