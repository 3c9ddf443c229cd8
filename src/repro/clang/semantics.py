"""Semantic passes over the Clang-style AST.

Three passes are implemented, mirroring the pieces of Clang's semantic
analysis that ParaGraph actually depends on:

* :func:`resolve_references` — scoped symbol-table resolution that links every
  ``DeclRefExpr`` to its declaring ``VarDecl`` / ``ParmVarDecl`` /
  ``FunctionDecl``; this is what makes ``Ref`` edges possible.
* :func:`insert_implicit_casts` — wraps ``DeclRefExpr`` nodes used as rvalues
  in ``ImplicitCastExpr`` nodes, reproducing the Clang AST shape shown in
  Fig. 2 of the paper.
* :func:`evaluate_constant` / :func:`ConstantEnvironment` — a small constant
  folder used to extract loop trip counts for the edge-weight computation and
  array sizes for the data-transfer model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .ast_nodes import (
    ASTNode,
    ArraySubscriptExpr,
    BinaryOperator,
    CStyleCastExpr,
    CallExpr,
    CompoundStmt,
    ConditionalOperator,
    DeclRefExpr,
    DeclStmt,
    FloatingLiteral,
    ForStmt,
    FunctionDecl,
    IfStmt,
    ImplicitCastExpr,
    IntegerLiteral,
    ParenExpr,
    ParmVarDecl,
    SizeOfExpr,
    UnaryOperator,
    VarDecl,
)
from .parser import MAX_DEPTH

Number = Union[int, float]


class SemanticError(Exception):
    """Raised by strict resolution when a reference cannot be bound.

    The message carries the ``line:column`` of the offending reference so
    users (and the :mod:`repro.analysis` checkers) get a source anchor.
    """

    def __init__(self, message: str, location: tuple = (0, 0)) -> None:
        line, column = location
        if line or column:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)
        self.location = (line, column)


# ---------------------------------------------------------------------- #
# scoped symbol table
# ---------------------------------------------------------------------- #
class Scope:
    """A lexical scope in the symbol table chain."""

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.symbols: Dict[str, ASTNode] = {}

    def declare(self, name: str, node: ASTNode) -> None:
        self.symbols[name] = node

    def lookup(self, name: str) -> Optional[ASTNode]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


def _declare_node(scope: Scope, node: ASTNode) -> None:
    if isinstance(node, (VarDecl, ParmVarDecl)):
        scope.declare(node.spelling, node)
    elif isinstance(node, FunctionDecl):
        scope.declare(node.name, node)


def resolve_references(root: ASTNode, strict: bool = False) -> int:
    """Bind every ``DeclRefExpr`` to its declaration.

    Returns the number of references that were successfully resolved.  With
    ``strict=True`` an unresolved reference raises :class:`SemanticError`
    (library calls such as ``sqrt`` stay unresolved in non-strict mode, which
    matches Clang producing a reference to an implicitly declared function).
    """
    resolved = 0

    def visit(node: ASTNode, scope: Scope) -> int:
        nonlocal resolved
        if isinstance(node, FunctionDecl):
            _declare_node(scope, node)
            inner = Scope(scope)
            for param in node.params:
                _declare_node(inner, param)
            for child in node.children:
                if child not in node.params:
                    visit(child, inner)
            return resolved
        if isinstance(node, (CompoundStmt, ForStmt)):
            inner = Scope(scope)
            for child in node.children:
                visit(child, inner)
            return resolved
        if isinstance(node, DeclStmt):
            for child in node.children:
                visit(child, scope)
                _declare_node(scope, child)
            return resolved
        if isinstance(node, VarDecl):
            for child in node.children:
                visit(child, scope)
            _declare_node(scope, node)
            return resolved
        if isinstance(node, DeclRefExpr):
            decl = scope.lookup(node.name)
            if decl is not None:
                node.referenced_decl = decl
                resolved += 1
            elif strict:
                raise SemanticError(f"unresolved reference to {node.name!r}",
                                    location=node.location)
            return resolved
        for child in node.children:
            visit(child, scope)
        return resolved

    visit(root, Scope())
    return resolved


# ---------------------------------------------------------------------- #
# implicit cast insertion
# ---------------------------------------------------------------------- #
def _needs_cast(node: DeclRefExpr, parent: ASTNode) -> bool:
    """Decide whether a DeclRefExpr is used as an rvalue."""
    if isinstance(parent, BinaryOperator) and parent.is_assignment and parent.lhs is node:
        return False
    if isinstance(parent, UnaryOperator) and parent.opcode in {"&", "++", "--"}:
        return False
    if isinstance(parent, CallExpr) and parent.callee is node:
        return False
    if isinstance(parent, ArraySubscriptExpr) and parent.base is node:
        # the array base decays to a pointer; Clang emits an ArrayToPointer
        # cast, which we also model.
        return True
    if isinstance(parent, ImplicitCastExpr):
        return False
    return True


def insert_implicit_casts(root: ASTNode) -> int:
    """Wrap rvalue ``DeclRefExpr`` uses in ``ImplicitCastExpr`` nodes.

    Returns the number of casts inserted.  The pass finds each reference's
    parent by walking the tree itself, so it also works on trees without
    ``parent`` links; it sets the two links each insertion changes (cast →
    parent, reference → cast).
    """
    inserted = 0
    stack = [(child, root) for child in reversed(root.children)]
    while stack:
        node, parent = stack.pop()
        if not isinstance(node, DeclRefExpr):
            stack.extend((child, node) for child in reversed(node.children))
            continue
        if not _needs_cast(node, parent):
            continue
        is_array_base = isinstance(parent, ArraySubscriptExpr) and parent.base is node
        cast_kind = "ArrayToPointerDecay" if is_array_base else "LValueToRValue"
        cast = ImplicitCastExpr(node, cast_kind, location=node.location,
                                token_index=node.token_index)
        parent.replace_child(node, cast)
        cast.parent = parent
        node.parent = cast
        # keep the structured accessors in sync with the children list
        for attr in ("lhs", "rhs", "operand", "cond", "base", "index", "init",
                     "inc", "body", "callee", "true_expr", "false_expr", "inner",
                     "value", "then_branch", "else_branch"):
            if getattr(parent, attr, None) is node:
                setattr(parent, attr, cast)
        if isinstance(parent, CallExpr):
            parent.args = [cast if a is node else a for a in parent.args]
        inserted += 1
    return inserted


# ---------------------------------------------------------------------- #
# constant folding
# ---------------------------------------------------------------------- #
class ConstantEnvironment:
    """Maps variable names to known compile-time values.

    ParaGraph computes loop-iteration counts statically; for loops bounded by
    a problem-size variable (``for (i = 0; i < N; i++)``) the bound is taken
    from this environment, which the data pipeline fills with the kernel's
    problem-size parameters.
    """

    def __init__(self, values: Optional[Mapping[str, Number]] = None) -> None:
        self.values: Dict[str, Number] = dict(values or {})

    def get(self, name: str) -> Optional[Number]:
        return self.values.get(name)

    def with_values(self, extra: Mapping[str, Number]) -> "ConstantEnvironment":
        merged = dict(self.values)
        merged.update(extra)
        return ConstantEnvironment(merged)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConstantEnvironment({self.values!r})"


#: Folded constants must fit a 64-bit integer (signed or unsigned).  A
#: value outside this range — or a NaN or infinity — is "not statically
#: evaluable", so a loop bounded by it falls back to the default trip
#: count, and no fold ever works on numbers wider than 128 bits.
_MIN_CONSTANT = -(2 ** 63)
_MAX_CONSTANT = 2 ** 64 - 1


def _shift(value: Number, count: Number, left: bool) -> Optional[int]:
    # shift counts outside 0..63 leave 64 bits (and ``1 << 8000000`` would
    # allocate a megabyte); a negative count raises in Python
    count = int(count)
    if not 0 <= count <= 63:
        return None
    return int(value) << count if left else int(value) >> count


_FOLDABLE_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    # ``//`` / ``%`` raise ZeroDivisionError on a zero denominator, which
    # evaluate_constant turns into "not statically evaluable" (None) — a
    # folded ``x / 0`` must never pretend to be 0.
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else a // b,
    "%": lambda a, b: a % b,
    "<<": lambda a, b: _shift(a, b, left=True),
    ">>": lambda a, b: _shift(a, b, left=False),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
}


def _bounded(value: Number) -> Optional[Number]:
    return value if _MIN_CONSTANT <= value <= _MAX_CONSTANT else None   # NaN fails


#: Deepest constant fold.  Each expression level and each hop from a name to
#: its declaration's initializer spend one level of one budget, so every
#: expression the parser accepts (at most ``MAX_DEPTH`` levels deep) still
#: folds on its own, while a longer chain of declarations (``int x1 = x0 + 1;
#: int x2 = x1 + 1; ...``) is "not evaluable" instead of a ``RecursionError``.
_FOLD_DEPTH = MAX_DEPTH


def evaluate_constant(
    node: Optional[ASTNode],
    env: Optional[ConstantEnvironment] = None,
) -> Optional[Number]:
    """Try to evaluate *node* to a numeric constant.

    Returns ``None`` when the expression is not statically evaluable with the
    provided environment, when its value (or any value folded on the way)
    is not a finite number that fits 64 bits, or when folding it would
    descend more than :data:`_FOLD_DEPTH` expression levels and declaration
    hops.
    """
    return _fold(node, env or ConstantEnvironment(), 0)


def _fold(node: Optional[ASTNode], env: ConstantEnvironment,
          depth: int) -> Optional[Number]:
    if node is None or depth > _FOLD_DEPTH:
        return None
    depth += 1
    if isinstance(node, (IntegerLiteral, FloatingLiteral)):
        return _bounded(node.value)
    if isinstance(node, (ParenExpr, ImplicitCastExpr, CStyleCastExpr)):
        return _fold(node.children[0] if node.children else None, env, depth)
    if isinstance(node, DeclRefExpr):
        value = env.get(node.name)
        if value is not None:
            return _bounded(value)
        decl = node.referenced_decl
        if isinstance(decl, VarDecl) and decl.init is not None:
            return _fold(decl.init, env, depth)
        return None
    if isinstance(node, UnaryOperator):
        value = _fold(node.operand, env, depth)
        if value is None:
            return None
        if node.opcode == "-":
            return _bounded(-value)
        if node.opcode == "+":
            return value
        if node.opcode == "!":
            return int(not value)
        if node.opcode == "~":
            return _bounded(~int(value))
        return None
    if isinstance(node, BinaryOperator):
        lhs = _fold(node.lhs, env, depth)
        rhs = _fold(node.rhs, env, depth)
        if lhs is None or rhs is None:
            return None
        folder = _FOLDABLE_BINOPS.get(node.opcode)
        if folder is None:
            return None
        try:
            value = folder(lhs, rhs)
        except ZeroDivisionError:
            return None
        return None if value is None else _bounded(value)
    if isinstance(node, ConditionalOperator):
        cond = _fold(node.cond, env, depth)
        if cond is None:
            return None
        branch = node.true_expr if cond else node.false_expr
        return _fold(branch, env, depth)
    if isinstance(node, SizeOfExpr):
        sizes = {"char": 1, "short": 2, "int": 4, "float": 4, "long": 8,
                 "double": 8, "size_t": 8}
        for name, size in sizes.items():
            if name in node.type_name:
                return size
        return 8
    return None


# ---------------------------------------------------------------------- #
# loop trip-count analysis
# ---------------------------------------------------------------------- #
def loop_counter_name(loop: ForStmt) -> Optional[str]:
    """Return the induction-variable name of a canonical for loop."""
    init = loop.init
    if isinstance(init, DeclStmt) and init.children:
        first = init.children[0]
        if isinstance(first, VarDecl):
            return first.name
    node: Optional[ASTNode] = init
    if isinstance(node, BinaryOperator) and node.is_assignment:
        target = node.lhs
        while isinstance(target, (ImplicitCastExpr, ParenExpr)):
            target = target.children[0]
        if isinstance(target, DeclRefExpr):
            return target.name
    return None


def _initial_value(loop: ForStmt, env: ConstantEnvironment) -> Optional[Number]:
    init = loop.init
    if isinstance(init, DeclStmt) and init.children:
        first = init.children[0]
        if isinstance(first, VarDecl):
            return evaluate_constant(first.init, env)
    if isinstance(init, BinaryOperator) and init.is_assignment:
        return evaluate_constant(init.rhs, env)
    return None


def _bound_and_op(loop: ForStmt, counter: str, env: ConstantEnvironment):
    cond = loop.cond
    while isinstance(cond, (ParenExpr, ImplicitCastExpr)):
        cond = cond.children[0]
    if not isinstance(cond, BinaryOperator):
        return None, None
    lhs, rhs, op = cond.lhs, cond.rhs, cond.opcode

    def base_name(expr: ASTNode) -> Optional[str]:
        while isinstance(expr, (ImplicitCastExpr, ParenExpr)):
            expr = expr.children[0]
        return expr.name if isinstance(expr, DeclRefExpr) else None

    if base_name(lhs) == counter:
        return evaluate_constant(rhs, env), op
    if base_name(rhs) == counter:
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        return evaluate_constant(lhs, env), flipped
    return None, None


def _step(loop: ForStmt, counter: str, env: ConstantEnvironment) -> Optional[Number]:
    inc = loop.inc
    while isinstance(inc, (ParenExpr,)):
        inc = inc.children[0]
    if isinstance(inc, UnaryOperator) and inc.opcode in {"++", "--"}:
        return 1 if inc.opcode == "++" else -1
    if isinstance(inc, BinaryOperator):
        if inc.opcode in {"+=", "-="}:
            step = evaluate_constant(inc.rhs, env)
            if step is None:
                return None
            return step if inc.opcode == "+=" else -step
        if inc.opcode == "=" :
            rhs = inc.rhs
            while isinstance(rhs, (ParenExpr, ImplicitCastExpr)):
                rhs = rhs.children[0]
            if isinstance(rhs, BinaryOperator) and rhs.opcode in {"+", "-"}:
                step = evaluate_constant(rhs.rhs, env)
                if step is None:
                    return None
                return step if rhs.opcode == "+" else -step
    return None


def estimate_trip_count(
    loop: ForStmt,
    env: Optional[ConstantEnvironment] = None,
    default: int = 1,
) -> int:
    """Statically estimate the number of iterations of a ``for`` loop.

    The analysis handles the canonical OpenMP loop forms
    ``for (i = a; i (<|<=|>|>=) b; i (++|--|+=c|-=c))``.  When the bounds are
    not statically known the *default* is returned — the paper applies the
    same idea ("we first observe the number of iterations in a loop"), with
    the problem size supplied by the dataset generator.
    """
    env = env or ConstantEnvironment()
    counter = loop_counter_name(loop)
    if counter is None:
        return default
    start = _initial_value(loop, env)
    bound, op = _bound_and_op(loop, counter, env)
    step = _step(loop, counter, env)
    if start is None or bound is None or step is None or op is None or step == 0:
        return default
    if op in {"<", "<="} and step > 0:
        span = bound - start + (1 if op == "<=" else 0)
    elif op in {">", ">="} and step < 0:
        span = start - bound + (1 if op == ">=" else 0)
        step = -step
    else:
        return default
    if span <= 0:
        return 0
    trips = (span + step - 1) // step
    if not trips <= _MAX_CONSTANT:      # past 64 bits (or inf from a tiny float step)
        return default
    return max(int(trips), 0)


def counter_range(
    loop: ForStmt,
    env: Optional[ConstantEnvironment] = None,
) -> Optional[Tuple[int, int]]:
    """Statically bound the induction variable of a canonical ``for`` loop.

    Returns ``(minimum, maximum)`` — the inclusive range of values the
    counter takes *inside the loop body* — or ``None`` when the loop is not
    in canonical form or its bounds are not statically known.  The array
    bounds checker uses this to compare a subscript's reachable values
    against the declared array extent.
    """
    env = env or ConstantEnvironment()
    counter = loop_counter_name(loop)
    if counter is None:
        return None
    start = _initial_value(loop, env)
    bound, op = _bound_and_op(loop, counter, env)
    step = _step(loop, counter, env)
    if start is None or bound is None or step is None or op is None or step == 0:
        return None
    if op in {"<", "<="} and step > 0:
        last = bound if op == "<=" else bound - 1
        if last < start:
            return None                 # zero-trip loop: body never runs
        # the counter only hits start + k*step; clamp last onto the lattice
        last = start + ((last - start) // step) * step
        return (int(start), int(last)) if _MIN_CONSTANT <= last <= _MAX_CONSTANT else None
    if op in {">", ">="} and step < 0:
        last = bound if op == ">=" else bound + 1
        if last > start:
            return None
        last = start + ((start - last) // (-step)) * step
        return (int(last), int(start)) if _MIN_CONSTANT <= last <= _MAX_CONSTANT else None
    return None


def analyze(root: ASTNode, env: Optional[ConstantEnvironment] = None) -> ASTNode:
    """Run the full semantic pipeline (casts + reference resolution)."""
    insert_implicit_casts(root)
    resolve_references(root)
    return root
