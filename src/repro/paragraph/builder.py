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
from typing import List, Optional, Tuple

from ..clang.ast_nodes import ASTNode, DeclRefExpr, ForStmt, IfStmt
from ..clang.semantics import ConstantEnvironment
from ..clang.traversal import preorder
from .edges import Edge, EdgeType
from .graph import GraphNode, ParaGraph
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
        """Build the graph for the subtree rooted at *root*.

        Node ids follow pre-order, so parents get smaller ids than children.
        One pass over that order collects every edge kind; the edge list is
        Child, NextToken, NextSib, Ref, ForExec/ForNext, ConTrue/ConFalse,
        each kind in pre-order (Child and NextSib: parents in pre-order,
        children left to right; NextToken: source token order).
        """
        order = list(preorder(root))
        node_ids = {id(node): node_id for node_id, node in enumerate(order)}
        augment = self.variant.includes_augmentation_edges
        nodes: List[GraphNode] = []
        child_src: List[int] = []
        child_dst: List[int] = []
        terminals: List[Tuple[int, int]] = []       # (token order key, node id)
        next_sib: List[Edge] = []
        refs: List[Edge] = []
        loops: List[Edge] = []
        branches: List[Edge] = []
        for node_id, node in enumerate(order):
            is_terminal = node.is_terminal
            nodes.append(GraphNode(node_id, node.kind, node.spelling, is_terminal, node))
            if node.children:
                child_ids = [node_ids[id(child)] for child in node.children]
                child_src.extend(repeat(node_id, len(child_ids)))
                child_dst.extend(child_ids)
                if augment:
                    next_sib.extend(map(Edge, child_ids, child_ids[1:],
                                        repeat(EdgeType.NEXT_SIB)))
            if not augment:
                continue
            if is_terminal:
                # synthetic terminals (no token index) keep pre-order place
                key = node.token_index if node.token_index >= 0 else 10**9 + node_id
                terminals.append((key, node_id))
            if isinstance(node, DeclRefExpr):
                # no edge to a declaration outside this tree (or to none)
                decl_id = node_ids.get(id(node.referenced_decl))
                if decl_id is not None:
                    refs.append(Edge(node_id, decl_id, EdgeType.REF))
            elif isinstance(node, ForStmt):
                init_id = node_ids[id(node.init)]
                cond_id = node_ids[id(node.cond)]
                body_id = node_ids[id(node.body)]
                inc_id = node_ids[id(node.inc)]
                # ForExec: flow into the next execution of the loop body;
                # ForNext: flow deciding/starting the next iteration
                loops += [Edge(init_id, cond_id, EdgeType.FOR_EXEC),
                          Edge(cond_id, body_id, EdgeType.FOR_EXEC),
                          Edge(body_id, inc_id, EdgeType.FOR_NEXT),
                          Edge(inc_id, cond_id, EdgeType.FOR_NEXT)]
            elif isinstance(node, IfStmt):
                cond_id = node_ids[id(node.cond)]
                if node.then_branch is not None:
                    branches.append(Edge(cond_id, node_ids[id(node.then_branch)],
                                         EdgeType.CON_TRUE))
                if node.else_branch is not None:
                    branches.append(Edge(cond_id, node_ids[id(node.else_branch)],
                                         EdgeType.CON_FALSE))

        if self.variant.includes_weights:
            weights = child_edge_weights(root, self.weight_config)
        else:
            weights = repeat(1.0)
        edges = list(map(Edge, child_src, child_dst, repeat(EdgeType.CHILD), weights))
        if augment:
            tokens = [node_id for _, node_id in sorted(terminals)]
            edges += map(Edge, tokens, tokens[1:], repeat(EdgeType.NEXT_TOKEN))
            edges += next_sib + refs + loops + branches

        graph = ParaGraph(name=self.name)
        graph.nodes = nodes
        graph.edges = edges
        graph._ast_to_id = node_ids     # the builder's own map, not a copy
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
