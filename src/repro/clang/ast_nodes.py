"""Clang-style AST node classes.

ParaGraph (paper §III) is built on top of the Clang AST: nodes keep their
Clang spelling (``CompoundStmt``, ``ForStmt``, ``BinaryOperator``,
``DeclRefExpr`` …) so that the graphs produced here are structurally
equivalent to the graphs the original pipeline obtained from Clang for the
same kernels.

Every node derives from :class:`ASTNode` which provides:

* ``kind`` — the Clang node name used as the node label in ParaGraph,
* ``children`` — ordered child list (AST / ``Child`` edges, and the source of
  the ``NextSib`` ordering),
* ``spelling`` — the token / name text for terminal nodes,
* ``location`` — (line, column) of the defining token,
* ``token_index`` — the lexer token index for terminals, used to impose the
  left-to-right ``NextToken`` ordering,
* ``parent`` — back pointer filled in by :func:`set_parents`.

Node identity (``id(node)``) is used as the graph vertex key; nodes are
deliberately *not* value-comparable.

A tree holds only downward references: ``parent`` is a weak reference, so
reference counting frees a tree as soon as its last outside reference goes,
without waiting for the cyclic garbage collector.  A subtree kept after its
ancestors are dropped reports ``parent`` as ``None``.
"""

from __future__ import annotations

import weakref
from typing import Iterator, List, Optional, Sequence, Tuple


class ASTNode:
    """Base class for every AST node."""

    #: Nodes whose ``spelling`` is a literal/identifier and which never have
    #: children are *syntax tokens* in the paper's terminology.
    is_terminal_kind = False

    def __init__(
        self,
        children: Optional[Sequence[Optional["ASTNode"]]] = None,
        spelling: str = "",
        location: Tuple[int, int] = (0, 0),
        token_index: int = -1,
    ) -> None:
        self.children: List[ASTNode] = [c for c in (children or []) if c is not None]
        self.spelling = spelling
        self.location = location
        self.token_index = token_index
        self._parent: Optional[weakref.ref] = None

    # ------------------------------------------------------------------ #
    @property
    def parent(self) -> Optional["ASTNode"]:
        """The enclosing node, or ``None`` at the root (or once it is freed)."""
        ref = self._parent
        return None if ref is None else ref()

    @parent.setter
    def parent(self, node: Optional["ASTNode"]) -> None:
        self._parent = None if node is None else weakref.ref(node)

    @property
    def kind(self) -> str:
        """Clang-style node kind name (the class name)."""
        return type(self).__name__

    @property
    def is_terminal(self) -> bool:
        """True for syntax tokens (no children)."""
        return len(self.children) == 0 and self.is_terminal_kind

    def add_child(self, node: Optional["ASTNode"]) -> None:
        """Append a child node (``None`` children are dropped)."""
        if node is not None:
            self.children.append(node)

    def replace_child(self, old: "ASTNode", new: "ASTNode") -> None:
        """Replace an existing child in place (used by the cast-insertion pass)."""
        for i, child in enumerate(self.children):
            if child is old:
                self.children[i] = new
                return
        raise ValueError("node is not a child of this parent")

    def walk(self) -> Iterator["ASTNode"]:
        """Pre-order traversal of this subtree (including ``self``)."""
        stack: List[ASTNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find_all(self, kind: str) -> List["ASTNode"]:
        """Return every descendant (including self) whose kind matches."""
        return [n for n in self.walk() if n.kind == kind]

    def __repr__(self) -> str:
        extra = f" {self.spelling!r}" if self.spelling else ""
        return f"<{self.kind}{extra} children={len(self.children)}>"


def set_parents(root: ASTNode) -> ASTNode:
    """Fill in ``parent`` back-pointers for an entire tree and return *root*."""
    for node in root.walk():
        if node.children:
            ref = weakref.ref(node)
            for child in node.children:
                child._parent = ref
    root._parent = None
    return root


# ---------------------------------------------------------------------- #
# Declarations
# ---------------------------------------------------------------------- #
class TranslationUnitDecl(ASTNode):
    """Root of a parsed source file."""


class FunctionDecl(ASTNode):
    """A function definition or declaration.

    Children: the parameter ``ParmVarDecl`` nodes followed by the body
    ``CompoundStmt`` (when it is a definition).
    """

    def __init__(self, name: str, return_type: str, params, body=None, **kw) -> None:
        children = list(params) + ([body] if body is not None else [])
        super().__init__(children, spelling=name, **kw)
        self.name = name
        self.return_type = return_type
        self.params = list(params)
        self.body = body


class ParmVarDecl(ASTNode):
    """A function parameter declaration."""

    is_terminal_kind = True

    def __init__(self, name: str, type_name: str, **kw) -> None:
        super().__init__(None, spelling=name, **kw)
        self.name = name
        self.type_name = type_name


class VarDecl(ASTNode):
    """A variable declaration; the initializer (if any) is the only child."""

    def __init__(self, name: str, type_name: str, init=None, array_dims=None, **kw) -> None:
        super().__init__([init] if init is not None else None, spelling=name, **kw)
        self.name = name
        self.type_name = type_name
        self.init = init
        #: expressions giving array dimensions, e.g. ``double a[N][M]``.
        self.array_dims: List[ASTNode] = list(array_dims or [])
        for dim in self.array_dims:
            self.add_child(dim)

    @property
    def is_terminal(self) -> bool:  # VarDecl with no init acts as a token
        return len(self.children) == 0


# ---------------------------------------------------------------------- #
# Statements
# ---------------------------------------------------------------------- #
class CompoundStmt(ASTNode):
    """A ``{ ... }`` block."""


class DeclStmt(ASTNode):
    """A declaration statement wrapping one or more ``VarDecl`` children."""


class NullStmt(ASTNode):
    """An empty statement (lone ``;``)."""

    is_terminal_kind = True


class IfStmt(ASTNode):
    """An if statement.

    Children (in order): condition, then-branch, optional else-branch —
    exactly the three children the paper's ``ConTrue`` / ``ConFalse`` edges
    connect.
    """

    def __init__(self, cond, then_branch, else_branch=None, **kw) -> None:
        super().__init__([cond, then_branch, else_branch], **kw)
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch


class ForStmt(ASTNode):
    """A for loop.

    Children (in order): init, condition, body, increment.

    .. note::
       Clang orders the children ``init, cond, inc, body``; the paper's
       Fig. 2 and the ``ForExec`` / ``ForNext`` edge description number them
       *init (1), condition (2), body (3), modifier (4)*.  We follow the
       paper's ordering because the ParaGraph builder's edge construction is
       specified in those terms; only the relative order of body/increment
       differs and no downstream consumer depends on Clang's order.
    """

    def __init__(self, init, cond, body, inc, **kw) -> None:
        super().__init__([init, cond, body, inc], **kw)
        self.init = init
        self.cond = cond
        self.body = body
        self.inc = inc


class WhileStmt(ASTNode):
    """A while loop: children are condition and body."""

    def __init__(self, cond, body, **kw) -> None:
        super().__init__([cond, body], **kw)
        self.cond = cond
        self.body = body


class DoStmt(ASTNode):
    """A do-while loop: children are body and condition."""

    def __init__(self, body, cond, **kw) -> None:
        super().__init__([body, cond], **kw)
        self.body = body
        self.cond = cond


class ReturnStmt(ASTNode):
    """A return statement with an optional value child."""

    def __init__(self, value=None, **kw) -> None:
        super().__init__([value] if value is not None else None, **kw)
        self.value = value


class BreakStmt(ASTNode):
    is_terminal_kind = True


class ContinueStmt(ASTNode):
    is_terminal_kind = True


# ---------------------------------------------------------------------- #
# Expressions
# ---------------------------------------------------------------------- #
class Expr(ASTNode):
    """Base class for expression nodes."""


class BinaryOperator(Expr):
    """A binary (or assignment) operator; ``opcode`` holds the spelling."""

    def __init__(self, opcode: str, lhs, rhs, **kw) -> None:
        super().__init__([lhs, rhs], spelling=opcode, **kw)
        self.opcode = opcode
        self.lhs = lhs
        self.rhs = rhs

    @property
    def is_assignment(self) -> bool:
        return self.opcode in {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class CompoundAssignOperator(BinaryOperator):
    """Compound assignments such as ``+=`` (kept distinct, as Clang does)."""


class UnaryOperator(Expr):
    """A unary operator (prefix or postfix)."""

    def __init__(self, opcode: str, operand, prefix: bool = True, **kw) -> None:
        super().__init__([operand], spelling=opcode, **kw)
        self.opcode = opcode
        self.operand = operand
        self.prefix = prefix


class ConditionalOperator(Expr):
    """The ternary ``?:`` operator with cond/true/false children."""

    def __init__(self, cond, true_expr, false_expr, **kw) -> None:
        super().__init__([cond, true_expr, false_expr], **kw)
        self.cond = cond
        self.true_expr = true_expr
        self.false_expr = false_expr


class CallExpr(Expr):
    """A call expression; children are the callee reference then arguments."""

    def __init__(self, callee, args, **kw) -> None:
        super().__init__([callee] + list(args), **kw)
        self.callee = callee
        self.args = list(args)


class ArraySubscriptExpr(Expr):
    """``base[index]`` with the base and index as children."""

    def __init__(self, base, index, **kw) -> None:
        super().__init__([base, index], **kw)
        self.base = base
        self.index = index


class MemberExpr(Expr):
    """``base.member`` or ``base->member``."""

    def __init__(self, base, member: str, is_arrow: bool, **kw) -> None:
        super().__init__([base], spelling=member, **kw)
        self.base = base
        self.member = member
        self.is_arrow = is_arrow


class DeclRefExpr(Expr):
    """A reference to a declared variable or function.

    Terminal node; :mod:`repro.clang.semantics` resolves ``referenced_decl``
    so the ParaGraph builder can add ``Ref`` edges back to the declaration.
    """

    is_terminal_kind = True

    def __init__(self, name: str, **kw) -> None:
        super().__init__(None, spelling=name, **kw)
        self.name = name
        self.referenced_decl: Optional[ASTNode] = None


class IntegerLiteral(Expr):
    is_terminal_kind = True

    def __init__(self, value: int, text: str = "", **kw) -> None:
        super().__init__(None, spelling=text or str(value), **kw)
        self.value = value


class FloatingLiteral(Expr):
    is_terminal_kind = True

    def __init__(self, value: float, text: str = "", **kw) -> None:
        super().__init__(None, spelling=text or repr(value), **kw)
        self.value = value


class CharacterLiteral(Expr):
    is_terminal_kind = True

    def __init__(self, text: str, **kw) -> None:
        super().__init__(None, spelling=text, **kw)


class StringLiteral(Expr):
    is_terminal_kind = True

    def __init__(self, text: str, **kw) -> None:
        super().__init__(None, spelling=text, **kw)


class ParenExpr(Expr):
    """A parenthesized sub-expression."""

    def __init__(self, inner, **kw) -> None:
        super().__init__([inner], **kw)
        self.inner = inner


class ImplicitCastExpr(Expr):
    """An lvalue-to-rvalue (or similar) implicit conversion.

    Clang inserts these around ``DeclRefExpr`` nodes used as rvalues; the
    paper's Fig. 2 shows them explicitly, so the semantics pass reproduces
    the insertion (:func:`repro.clang.semantics.insert_implicit_casts`).
    """

    def __init__(self, operand, cast_kind: str = "LValueToRValue", **kw) -> None:
        super().__init__([operand], spelling=cast_kind, **kw)
        self.operand = operand
        self.cast_kind = cast_kind


class CStyleCastExpr(Expr):
    """An explicit ``(type) expr`` cast."""

    def __init__(self, type_name: str, operand, **kw) -> None:
        super().__init__([operand], spelling=type_name, **kw)
        self.type_name = type_name
        self.operand = operand


class SizeOfExpr(Expr):
    """``sizeof(type)`` or ``sizeof expr``."""

    def __init__(self, argument=None, type_name: str = "", **kw) -> None:
        super().__init__([argument] if argument is not None else None,
                         spelling=type_name, **kw)
        self.type_name = type_name
        self.argument = argument


class InitListExpr(Expr):
    """A brace-enclosed initializer list."""

    def __init__(self, inits, **kw) -> None:
        super().__init__(list(inits), **kw)
        self.inits = list(inits)


# ---------------------------------------------------------------------- #
# OpenMP
# ---------------------------------------------------------------------- #
class OMPClause(ASTNode):
    """An OpenMP clause such as ``collapse(2)`` or ``map(to: a[0:n])``.

    Children are the clause argument expressions (when parseable).
    ``clause_name`` is the clause keyword, ``arguments_text`` the raw textual
    arguments (kept for clauses like ``map`` whose arguments are not plain C
    expressions).
    """

    def __init__(self, clause_name: str, args=None, arguments_text: str = "", **kw) -> None:
        super().__init__(list(args or []), spelling=clause_name, **kw)
        self.clause_name = clause_name
        self.arguments_text = arguments_text


class OMPExecutableDirective(ASTNode):
    """Base class for OpenMP directives attached to a statement.

    Children are the clauses followed by the associated (captured) statement.
    """

    directive_name = "omp"

    def __init__(self, clauses, body=None, **kw) -> None:
        super().__init__(list(clauses) + ([body] if body is not None else None or []),
                         spelling=self.directive_name, **kw)
        self.clauses: List[OMPClause] = list(clauses)
        self.body = body

    def clause(self, name: str) -> Optional[OMPClause]:
        """Return the first clause with the given name, or None."""
        for clause in self.clauses:
            if clause.clause_name == name:
                return clause
        return None

    def clause_int(self, name: str, default: Optional[int] = None) -> Optional[int]:
        """Return the integer argument of a clause like ``collapse(2)``."""
        clause = self.clause(name)
        if clause is None:
            return default
        for child in clause.children:
            if isinstance(child, IntegerLiteral):
                return child.value
        text = clause.arguments_text.strip()
        try:
            return int(text)
        except ValueError:
            return default


class OMPParallelForDirective(OMPExecutableDirective):
    directive_name = "parallel for"


class OMPParallelDirective(OMPExecutableDirective):
    directive_name = "parallel"


class OMPForDirective(OMPExecutableDirective):
    directive_name = "for"


class OMPSimdDirective(OMPExecutableDirective):
    directive_name = "simd"


class OMPTargetDirective(OMPExecutableDirective):
    directive_name = "target"


class OMPTargetDataDirective(OMPExecutableDirective):
    directive_name = "target data"


class OMPTargetEnterDataDirective(OMPExecutableDirective):
    directive_name = "target enter data"


class OMPTargetExitDataDirective(OMPExecutableDirective):
    directive_name = "target exit data"


class OMPTargetUpdateDirective(OMPExecutableDirective):
    directive_name = "target update"


class OMPTeamsDistributeParallelForDirective(OMPExecutableDirective):
    directive_name = "teams distribute parallel for"


class OMPTargetTeamsDistributeParallelForDirective(OMPExecutableDirective):
    directive_name = "target teams distribute parallel for"


class OMPCriticalDirective(OMPExecutableDirective):
    directive_name = "critical"


class OMPAtomicDirective(OMPExecutableDirective):
    directive_name = "atomic"


class OMPBarrierDirective(OMPExecutableDirective):
    directive_name = "barrier"


class OMPGenericDirective(OMPExecutableDirective):
    """Fallback for directives without a dedicated class."""

    def __init__(self, name: str, clauses, body=None, **kw) -> None:
        self.directive_name = name
        super().__init__(clauses, body, **kw)


#: Kinds treated as loop constructs when computing edge weights.
LOOP_KINDS = frozenset({"ForStmt", "WhileStmt", "DoStmt"})

#: Kinds of OpenMP directives that parallelize the associated loop nest.
OMP_LOOP_DIRECTIVE_KINDS = frozenset(
    {
        "OMPParallelForDirective",
        "OMPForDirective",
        "OMPTeamsDistributeParallelForDirective",
        "OMPTargetTeamsDistributeParallelForDirective",
        "OMPSimdDirective",
    }
)
