"""Construction of ParaGraph from a Clang-style AST (paper §III-A).

Given an analyzed AST (references resolved, implicit casts inserted) the
builder emits:

* one graph node per AST node,
* ``Child`` edges for every parent→child relation, weighted with the child's
  statically-estimated execution count,
* ``NextToken`` edges chaining the syntax tokens left-to-right,
* ``NextSib`` edges chaining the children of each node left-to-right,
* ``Ref`` edges from each ``DeclRefExpr`` to the declaration it references,
* ``ForExec`` edges (loop init → condition, condition → body) and
  ``ForNext`` edges (body → increment, increment → condition),
* ``ConTrue`` / ``ConFalse`` edges from an ``if`` condition to its branches.

The :class:`~repro.paragraph.variants.GraphVariant` argument selects the
ablation level: the Raw AST keeps only unweighted Child edges, the Augmented
AST adds the seven new edge types, and full ParaGraph also adds the weights.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional

from ..clang.ast_nodes import ASTNode, DeclRefExpr, ForStmt, IfStmt
from ..clang.semantics import ConstantEnvironment
from ..clang.traversal import preorder, terminals_in_token_order
from .edges import EdgeType
from .graph import ParaGraph
from .variants import GraphVariant
from .weights import WeightConfig, child_edge_weights


class ParaGraphBuilder:
    """Stateful builder turning one AST into one :class:`ParaGraph`."""

    def __init__(
        self,
        variant: GraphVariant = GraphVariant.PARAGRAPH,
        weight_config: Optional[WeightConfig] = None,
        name: str = "",
    ) -> None:
        self.variant = variant
        self.weight_config = weight_config or WeightConfig()
        self.name = name

    # ------------------------------------------------------------------ #
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


def build_paragraph(
    root: ASTNode,
    variant: GraphVariant = GraphVariant.PARAGRAPH,
    num_threads: int = 1,
    num_teams: int = 1,
    env: Optional[ConstantEnvironment] = None,
    default_trip_count: int = 16,
    name: str = "",
) -> ParaGraph:
    """Convenience wrapper around :class:`ParaGraphBuilder`.

    Parameters mirror the pieces of the paper's pipeline: the ablation
    *variant*, the OpenMP parallelism (*num_threads*, *num_teams*) used both
    for the weight division and as auxiliary model features, and the
    problem-size environment *env* used for the loop trip-count analysis.
    """
    config = WeightConfig(
        num_threads=num_threads,
        num_teams=num_teams,
        default_trip_count=default_trip_count,
        env=env or ConstantEnvironment(),
    )
    return ParaGraphBuilder(variant, config, name=name).build(root)
