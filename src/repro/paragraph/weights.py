"""Edge-weight computation for ParaGraph (§III-A.3 of the paper).

Weights are attached to ``Child`` edges only and encode how many times the
target node is expected to execute:

* the default weight is 1 (each statement executes once),
* statements inside a loop body inherit the loop's iteration count as a
  multiplicative factor; when the loop is statically scheduled across OpenMP
  threads the iteration count is divided by the number of threads (the
  paper's 100-iterations / 4-threads → weight-25 example),
* the two branches of an ``if`` statement are each assumed to execute with
  probability 1/2, so weights below a branch are halved.

The computation is purely static.  Loop trip counts come from
:func:`repro.clang.semantics.estimate_trip_count` with the kernel's
problem-size bindings supplied through a
:class:`~repro.clang.semantics.ConstantEnvironment`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..clang.ast_nodes import (
    ASTNode,
    DoStmt,
    ForStmt,
    IfStmt,
    OMPExecutableDirective,
    OMP_LOOP_DIRECTIVE_KINDS,
    WhileStmt,
)
from ..clang.semantics import ConstantEnvironment, estimate_trip_count
from ..clang.traversal import perfectly_nested_for_loops, preorder


@dataclass
class WeightConfig:
    """Parameters of the static weight model.

    Attributes
    ----------
    num_threads:
        Threads sharing a statically-scheduled parallel loop (OpenMP
        ``parallel for``); the parallelized iteration space is divided by
        this value.
    num_teams:
        Teams for target offloading directives; for
        ``target teams distribute parallel for`` the iteration space is
        divided by ``num_teams * num_threads``.
    default_trip_count:
        Iteration count assumed for loops whose bounds cannot be determined
        statically (``while`` loops, data-dependent ``for`` bounds).
    branch_probability:
        Probability assigned to each branch of an ``if`` (the paper fixes
        this to 1/2).
    env:
        Problem-size variable bindings used by the trip-count analysis.
    """

    num_threads: int = 1
    num_teams: int = 1
    default_trip_count: int = 16
    branch_probability: float = 0.5
    env: ConstantEnvironment = field(default_factory=ConstantEnvironment)

    def parallelism_for(self, directive: OMPExecutableDirective) -> int:
        """Degree of parallelism a loop directive distributes iterations over."""
        kind = directive.kind
        if kind == "OMPTargetTeamsDistributeParallelForDirective" or \
                kind == "OMPTeamsDistributeParallelForDirective":
            teams = directive.clause_int("num_teams", self.num_teams) or self.num_teams
            threads = directive.clause_int("thread_limit", self.num_threads) or self.num_threads
            return max(1, teams * threads)
        if kind in OMP_LOOP_DIRECTIVE_KINDS:
            threads = directive.clause_int("num_threads", self.num_threads) or self.num_threads
            return max(1, threads)
        return 1


#: minimum multiplier so Child-edge weights stay strictly positive.
_MIN_WEIGHT = 1e-6

#: execution counts saturate at the largest float: twenty nested loops of
#: 2**62 iterations would otherwise overflow to ``inf`` (and the model to
#: ``nan``).
_MAX_COUNT = sys.float_info.max


def compute_execution_counts(
    root: ASTNode,
    config: Optional[WeightConfig] = None,
) -> Dict[int, float]:
    """Return a map ``id(ast node) -> expected execution count``.

    The count of a node is the product of the iteration counts of its
    enclosing loops (adjusted for OpenMP work sharing) and the branch
    probabilities of its enclosing ``if`` branches, saturated at the
    largest finite float.  The Child edge pointing *to* a node carries that
    node's count as its weight.
    """
    config = config or WeightConfig()
    counts: Dict[int, float] = {}

    def loop_trip(loop: ASTNode) -> float:
        if isinstance(loop, ForStmt):
            trips = estimate_trip_count(loop, config.env, config.default_trip_count)
        else:
            trips = config.default_trip_count
        return float(max(trips, 1))

    def visit(node: ASTNode, multiplier: float,
              pending_divisor: float, pending_levels: int) -> None:
        """Traverse assigning counts.

        ``pending_divisor``/``pending_levels`` carry the OpenMP work-sharing
        division across a ``collapse(n)`` loop nest: the divisor is applied
        to the first ``pending_levels`` loops encountered on this path (once
        in total — applied at the outermost pending loop).
        """
        counts[id(node)] = min(max(multiplier, _MIN_WEIGHT), _MAX_COUNT)

        if isinstance(node, OMPExecutableDirective):
            divisor = float(config.parallelism_for(node))
            levels = node.clause_int("collapse", 1) or 1
            for child in node.children:
                if child is node.body and divisor > 1.0:
                    visit(child, multiplier, divisor, levels)
                else:
                    visit(child, multiplier, 1.0, 0)
            return

        if isinstance(node, ForStmt):
            trips = loop_trip(node)
            body_multiplier = multiplier * trips
            child_divisor = 1.0
            child_levels = 0
            if pending_divisor > 1.0 and pending_levels > 0:
                # Work sharing across the collapsed nest: the total iteration
                # space of the collapsed loops is divided by the parallelism
                # degree.  Applying the full divisor at the outermost loop is
                # equivalent (weights multiply down the nest).
                body_multiplier = body_multiplier / pending_divisor
                if pending_levels > 1:
                    # keep propagating collapse bookkeeping (no further division)
                    child_levels = pending_levels - 1
            body_multiplier = max(body_multiplier, _MIN_WEIGHT)
            # child order: init, cond, body, inc
            visit(node.init, multiplier, 1.0, 0)
            visit(node.cond, body_multiplier, 1.0, 0)
            visit(node.body, body_multiplier, child_divisor, child_levels)
            visit(node.inc, body_multiplier, 1.0, 0)
            return

        if isinstance(node, (WhileStmt, DoStmt)):
            trips = loop_trip(node)
            body_multiplier = max(multiplier * trips, _MIN_WEIGHT)
            if isinstance(node, WhileStmt):
                visit(node.cond, body_multiplier, 1.0, 0)
                visit(node.body, body_multiplier, 1.0, 0)
            else:
                visit(node.body, body_multiplier, 1.0, 0)
                visit(node.cond, body_multiplier, 1.0, 0)
            return

        if isinstance(node, IfStmt):
            visit(node.cond, multiplier, 1.0, 0)
            branch_multiplier = max(multiplier * config.branch_probability, _MIN_WEIGHT)
            if node.then_branch is not None:
                visit(node.then_branch, branch_multiplier, 1.0, 0)
            if node.else_branch is not None:
                visit(node.else_branch, branch_multiplier, 1.0, 0)
            return

        for child in node.children:
            visit(child, multiplier, pending_divisor, pending_levels)

    visit(root, 1.0, 1.0, 0)
    return counts


def child_edge_weights(
    root: ASTNode,
    config: Optional[WeightConfig] = None,
) -> List[float]:
    """The ``Child``-edge weights of the tree at *root*, in edge order.

    The builder emits one ``Child`` edge per parent/child pair, parents in
    pre-order and each parent's children left to right; the edge pointing
    *to* a node carries that node's execution count.  This is the one place
    that mapping lives: :class:`~repro.paragraph.builder.ParaGraphBuilder`
    weights its edges from it, and re-weighting an already encoded graph
    for another execution context (problem sizes, teams, threads) reads it
    too, so both give the same weights bit for bit.
    """
    counts = compute_execution_counts(root, config)
    return [counts.get(id(child), 1.0)
            for node in preorder(root) for child in node.children]
