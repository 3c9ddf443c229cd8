"""Static kernel analysis (the Advisor's "Kernel Analysis" module).

OpenMP Advisor's first stage inspects a kernel and extracts the facts the
cost model and the code-transformation module need.  This reproduction
performs the same analysis on the :mod:`repro.clang` AST:

* the outermost loop nest and how many levels are perfectly nested
  (collapsible),
* statically-estimated trip counts per nest level and the total iteration
  count,
* dynamic operation counts (floating-point ops, integer ops, memory
  accesses, comparisons, math-library calls), computed by weighting each
  AST operator node with its execution count from
  :func:`repro.paragraph.weights.compute_execution_counts`,
* the arrays referenced and whether the innermost loop carries a reduction.

The result (:class:`KernelAnalysis`) feeds three consumers: the variant
generator (legality of ``collapse``), the hardware performance model
(compute vs. memory balance) and the COMPOFF baseline features (operation
counts — exactly the hand-engineered features §II-D describes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..clang import analyze
from ..clang.ast_nodes import (
    ASTNode,
    ArraySubscriptExpr,
    BinaryOperator,
    CallExpr,
    CompoundAssignOperator,
    DeclRefExpr,
    FunctionDecl,
    IfStmt,
    UnaryOperator,
)
from ..clang.semantics import ConstantEnvironment, estimate_trip_count
from ..clang.traversal import iter_for_loops, perfectly_nested_for_loops, preorder
from ..kernels.base import KernelDefinition
from ..paragraph.weights import WeightConfig, compute_execution_counts

#: operators counted as floating-point arithmetic
_ARITH_OPS = frozenset({"+", "-", "*", "/", "%"})
_COMPARE_OPS = frozenset({"<", ">", "<=", ">=", "==", "!="})
_MATH_FUNCTIONS = frozenset({"sqrt", "exp", "log", "sin", "cos", "pow", "fabs", "tanh"})


@dataclass
class OperationCounts:
    """Dynamic (execution-count weighted) operation totals for one kernel."""

    arithmetic: float = 0.0
    comparisons: float = 0.0
    memory_accesses: float = 0.0
    math_calls: float = 0.0
    branches: float = 0.0

    @property
    def total_flops(self) -> float:
        """Arithmetic plus the (more expensive) math-library calls."""
        return self.arithmetic + 8.0 * self.math_calls

    @property
    def memory_bytes(self) -> float:
        """Bytes touched, assuming 8-byte elements per access."""
        return 8.0 * self.memory_accesses


@dataclass
class KernelAnalysis:
    """Full static analysis of one kernel at one problem size."""

    kernel_name: str
    sizes: Dict[str, int]
    loop_nest_depth: int
    collapsible_depth: int
    trip_counts: Tuple[int, ...]
    total_iterations: int
    parallel_iterations: int
    operations: OperationCounts
    arrays_referenced: Tuple[str, ...]
    has_reduction: bool
    has_branches: bool

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of memory traffic (roofline x-axis)."""
        bytes_touched = max(self.operations.memory_bytes, 1.0)
        return self.operations.total_flops / bytes_touched

    def parallel_iterations_with_collapse(self, collapse: int) -> int:
        """Iteration count of the parallelized (possibly collapsed) loops."""
        collapse = max(1, min(collapse, len(self.trip_counts)))
        total = 1
        for trips in self.trip_counts[:collapse]:
            total *= max(trips, 1)
        return total


def _count_operations(root: ASTNode, counts_by_node: Mapping[int, float]) -> OperationCounts:
    """Accumulate execution-count weighted operation totals."""
    totals = OperationCounts()
    for node in preorder(root):
        weight = counts_by_node.get(id(node), 1.0)
        if isinstance(node, (BinaryOperator, CompoundAssignOperator)):
            if node.opcode in _ARITH_OPS or isinstance(node, CompoundAssignOperator):
                totals.arithmetic += weight
            elif node.opcode in _COMPARE_OPS:
                totals.comparisons += weight
        elif isinstance(node, UnaryOperator) and node.opcode in {"-", "+", "++", "--"}:
            totals.arithmetic += weight
        elif isinstance(node, ArraySubscriptExpr):
            totals.memory_accesses += weight
        elif isinstance(node, CallExpr):
            callee = node.callee
            while callee is not None and not isinstance(callee, DeclRefExpr) and callee.children:
                callee = callee.children[0]
            if isinstance(callee, DeclRefExpr) and callee.name in _MATH_FUNCTIONS:
                totals.math_calls += weight
        elif isinstance(node, IfStmt):
            totals.branches += weight
    return totals


def _detect_reduction(function: FunctionDecl) -> bool:
    """Heuristic reduction detection: ``x += ...`` on a scalar in a loop body."""
    for node in preorder(function):
        if isinstance(node, CompoundAssignOperator) and node.opcode in {"+=", "*="}:
            target = node.lhs
            while target is not None and target.children and not isinstance(target, DeclRefExpr):
                target = target.children[0]
            if isinstance(target, DeclRefExpr):
                return True
    return False


def analyze_kernel(
    kernel: KernelDefinition,
    sizes: Optional[Mapping[str, int]] = None,
) -> KernelAnalysis:
    """Run the full static analysis of *kernel* at the given problem sizes."""
    concrete_sizes = kernel.sizes_with_defaults(sizes)
    env = ConstantEnvironment(dict(concrete_sizes))
    function = kernel.function()
    analyze(function)

    for_loops = list(iter_for_loops(function))
    if not for_loops:
        raise ValueError(f"kernel {kernel.full_name} contains no for loop")
    outer = for_loops[0]
    nest = perfectly_nested_for_loops(outer)
    trip_counts = tuple(estimate_trip_count(loop, env, default=1) for loop in nest)

    # total dynamic iterations of the whole nest (including imperfect inner loops)
    counts = compute_execution_counts(
        function, WeightConfig(num_threads=1, num_teams=1, env=env, default_trip_count=16))
    operations = _count_operations(function, counts)

    # total dynamic iterations: execution count of the hottest loop body
    # (covers imperfectly nested inner loops such as matmul's k-reduction)
    total_iterations = int(max(
        (counts.get(id(loop.body), 1.0) for loop in for_loops), default=1.0))
    total_iterations = max(total_iterations, 1)

    collapsible = min(kernel.collapsible_loops, len(nest))
    parallel_iterations = 1
    for trips in trip_counts[:1]:
        parallel_iterations *= max(trips, 1)

    arrays = tuple(sorted({array.name for array in kernel.arrays}))

    return KernelAnalysis(
        kernel_name=kernel.full_name,
        sizes=dict(concrete_sizes),
        loop_nest_depth=len(for_loops),
        collapsible_depth=collapsible,
        trip_counts=trip_counts,
        total_iterations=total_iterations,
        parallel_iterations=parallel_iterations,
        operations=operations,
        arrays_referenced=arrays,
        has_reduction=_detect_reduction(function),
        has_branches=bool(function.find_all("IfStmt")),
    )


# --------------------------------------------------------------------- #
# caching
# --------------------------------------------------------------------- #
_ANALYSIS_CACHE: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], KernelAnalysis] = {}


def analyze_kernel_cached(
    kernel: KernelDefinition,
    sizes: Optional[Mapping[str, int]] = None,
) -> KernelAnalysis:
    """Memoized :func:`analyze_kernel`.

    The dataset pipeline analyzes the same (kernel, problem size) pair for
    every variant, platform and parallelism configuration; the analysis is
    pure, so caching it removes the dominant cost of dataset generation.
    """
    concrete = kernel.sizes_with_defaults(sizes)
    key = (kernel.full_name, tuple(sorted(concrete.items())))
    cached = _ANALYSIS_CACHE.get(key)
    if cached is None:
        cached = analyze_kernel(kernel, concrete)
        _ANALYSIS_CACHE[key] = cached
    return cached


def clear_analysis_cache() -> None:
    """Drop all memoized kernel analyses (used by tests)."""
    _ANALYSIS_CACHE.clear()
