"""``repro.clang`` — a from-scratch C/OpenMP frontend (Clang substitute).

The original ParaGraph pipeline parses OpenMP C/C++ kernels with Clang and
works on the resulting AST.  This package provides the same capability
without external dependencies: a lexer, a recursive-descent parser producing
Clang-style AST nodes (including OpenMP directive nodes), semantic passes
(reference resolution, implicit-cast insertion, constant folding and loop
trip-count analysis) and traversal / dumping utilities.
"""

from .ast_nodes import *  # noqa: F401,F403 - re-export the node vocabulary
from .lexer import LexError, Token, TokenKind, tokenize
from .parser import ParseError, Parser, parse_snippet, parse_source
from .pragmas import PragmaError, parse_omp_pragma
from .semantics import (
    ConstantEnvironment,
    SemanticError,
    analyze,
    counter_range,
    estimate_trip_count,
    loop_counter_name,
    evaluate_constant,
    insert_implicit_casts,
    resolve_references,
)
from .traversal import (
    ASTVisitor,
    count_nodes,
    enclosing_loops,
    iter_for_loops,
    iter_loops,
    iter_omp_directives,
    loop_nest_depth,
    perfectly_nested_for_loops,
    postorder,
    preorder,
    terminals_in_token_order,
)
from .dumper import dump, summarize

__all__ = [name for name in dir() if not name.startswith("_")]
