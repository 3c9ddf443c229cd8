"""``repro.paragraph`` — the ParaGraph weighted graph representation.

This package is the paper's primary contribution: the construction of a
typed, weighted program graph from the AST of an OpenMP kernel (§III), the
ablation variants used in §V-C, and the numeric encoding consumed by the
GNN model.
"""

from .builder import ParaGraphBuilder, build_paragraph
from .edges import AUGMENTATION_EDGE_TYPES, Edge, EdgeType, NUM_EDGE_TYPES
from .encoders import EncodedGraph, GraphBatch, GraphEncoder
from .graph import GraphNode, ParaGraph
from .variants import ABLATION_ORDER, GraphVariant
from .vocab import DEFAULT_NODE_KINDS, UNK_TOKEN, Vocabulary, default_vocabulary
from .weights import WeightConfig, child_edge_weights, compute_execution_counts

__all__ = [
    "ABLATION_ORDER",
    "AUGMENTATION_EDGE_TYPES",
    "DEFAULT_NODE_KINDS",
    "Edge",
    "EdgeType",
    "EncodedGraph",
    "GraphBatch",
    "GraphEncoder",
    "GraphNode",
    "GraphVariant",
    "NUM_EDGE_TYPES",
    "ParaGraph",
    "ParaGraphBuilder",
    "UNK_TOKEN",
    "Vocabulary",
    "WeightConfig",
    "build_paragraph",
    "child_edge_weights",
    "compute_execution_counts",
    "default_vocabulary",
]
