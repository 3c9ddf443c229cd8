"""Numeric encoding of ParaGraphs for the GNN (the dataset's ``x`` side).

A :class:`ParaGraph` is converted into an :class:`EncodedGraph` holding the
arrays the model consumes:

* ``node_features`` — one-hot node-kind matrix (optionally with an extra
  is-terminal column),
* ``edge_index`` — 2×E array of (source, destination) vertex ids,
* ``edge_type`` — per-edge relation index for the relational convolutions,
* ``edge_weight`` — per-edge Child weights (log-scaled option available
  because trip counts span many orders of magnitude),
* ``aux_features`` — the two auxiliary scalars the paper feeds next to the
  graph embedding: the number of teams and the number of threads.

Mini-batching follows the PyTorch-Geometric convention of concatenating the
graphs into one block-diagonal graph with a ``batch`` vector mapping every
node to its graph index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .edges import EdgeType
from .graph import ParaGraph
from .vocab import Vocabulary, default_vocabulary


@dataclass
class EncodedGraph:
    """Arrays describing one ParaGraph instance for the model."""

    node_features: np.ndarray          # (num_nodes, feature_dim) float64
    edge_index: np.ndarray             # (2, num_edges) int64
    edge_type: np.ndarray              # (num_edges,) int64
    edge_weight: np.ndarray            # (num_edges,) float64
    aux_features: np.ndarray           # (num_aux,) float64  [teams, threads]
    target: float = 0.0                # runtime (label); 0 when unknown
    name: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])


@dataclass
class GraphBatch:
    """A block-diagonal batch of encoded graphs."""

    node_features: np.ndarray
    edge_index: np.ndarray
    edge_type: np.ndarray
    edge_weight: np.ndarray
    aux_features: np.ndarray           # (batch, num_aux)
    batch: np.ndarray                  # (num_nodes,) graph id per node
    targets: np.ndarray                # (batch,)
    num_graphs: int


class GraphEncoder:
    """Encodes :class:`ParaGraph` objects into numeric arrays."""

    def __init__(
        self,
        vocabulary: Optional[Vocabulary] = None,
        include_terminal_flag: bool = True,
        log_scale_weights: bool = True,
    ) -> None:
        self.vocabulary = vocabulary or default_vocabulary()
        self.include_terminal_flag = include_terminal_flag
        self.log_scale_weights = log_scale_weights

    # ------------------------------------------------------------------ #
    @property
    def feature_dim(self) -> int:
        """Dimensionality of the node-feature vectors."""
        return self.vocabulary.size + (1 if self.include_terminal_flag else 0)

    def encode(
        self,
        graph: ParaGraph,
        num_teams: int = 1,
        num_threads: int = 1,
        target: float = 0.0,
        name: str = "",
        metadata: Optional[dict] = None,
    ) -> EncodedGraph:
        """Encode one graph together with its auxiliary features and label."""
        features = self.vocabulary.one_hot(graph.node_labels())
        if self.include_terminal_flag:
            terminal = np.array([[1.0 if n.is_terminal else 0.0] for n in graph.nodes])
            if features.shape[0] == 0:
                terminal = np.zeros((0, 1))
            features = np.concatenate([features, terminal], axis=1)
        return EncodedGraph(
            node_features=features,
            edge_index=graph.edge_index(),
            edge_type=graph.edge_types(),
            edge_weight=self.edge_weight(graph.edge_weights()),
            aux_features=self.aux_features(num_teams, num_threads),
            target=float(target),
            name=name or graph.name,
            metadata=dict(metadata or {}),
        )

    def reweight(
        self,
        structure: EncodedGraph,
        child_weights,
        num_teams: int = 1,
        num_threads: int = 1,
        name: str = "",
    ) -> EncodedGraph:
        """*structure*'s graph under another execution context.

        Nodes and edges come from the source text alone; the context
        (problem sizes, teams, threads) only sets the ``Child``-edge
        weights and the aux features.  So the returned graph shares
        ``node_features``, ``edge_index`` and ``edge_type`` with
        *structure* (the same array objects) and gets its own
        ``aux_features`` and its own ``edge_weight`` from
        *child_weights*: the raw ``Child``-edge weights in edge order
        (:func:`~repro.paragraph.weights.child_edge_weights`), or one
        scalar for the unweighted variants.  Equal, array for array, to
        encoding a fresh build under that context.
        """
        weights = np.zeros(structure.num_edges)
        weights[structure.edge_type == EdgeType.CHILD] = child_weights
        return EncodedGraph(
            node_features=structure.node_features,
            edge_index=structure.edge_index,
            edge_type=structure.edge_type,
            edge_weight=self.edge_weight(weights),
            aux_features=self.aux_features(num_teams, num_threads),
            name=name,
        )

    def edge_weight(self, weights: np.ndarray) -> np.ndarray:
        """Raw per-edge weights → the ``edge_weight`` array the model reads
        (``log1p`` when ``log_scale_weights``; trip counts span many orders
        of magnitude)."""
        if self.log_scale_weights:
            return np.log1p(np.maximum(weights, 0.0))
        return weights

    @staticmethod
    def aux_features(num_teams: int, num_threads: int) -> np.ndarray:
        """The two auxiliary scalars fed next to the graph embedding."""
        return np.array([float(num_teams), float(num_threads)])

    # ------------------------------------------------------------------ #
    @staticmethod
    def collate(graphs: Sequence[EncodedGraph]) -> GraphBatch:
        """Concatenate encoded graphs into a single block-diagonal batch."""
        if not graphs:
            raise ValueError("cannot collate an empty list of graphs")
        node_features: List[np.ndarray] = []
        edge_indices: List[np.ndarray] = []
        edge_types: List[np.ndarray] = []
        edge_weights: List[np.ndarray] = []
        aux: List[np.ndarray] = []
        batch_ids: List[np.ndarray] = []
        targets: List[float] = []
        offset = 0
        for graph_id, graph in enumerate(graphs):
            node_features.append(graph.node_features)
            edge_indices.append(graph.edge_index + offset)
            edge_types.append(graph.edge_type)
            edge_weights.append(graph.edge_weight)
            aux.append(graph.aux_features)
            batch_ids.append(np.full(graph.num_nodes, graph_id, dtype=np.int64))
            targets.append(graph.target)
            offset += graph.num_nodes
        return GraphBatch(
            node_features=np.concatenate(node_features, axis=0),
            edge_index=np.concatenate(edge_indices, axis=1)
            if edge_indices else np.zeros((2, 0), dtype=np.int64),
            edge_type=np.concatenate(edge_types),
            edge_weight=np.concatenate(edge_weights),
            aux_features=np.stack(aux, axis=0),
            batch=np.concatenate(batch_ids) if batch_ids else np.zeros(0, dtype=np.int64),
            targets=np.array(targets, dtype=np.float64),
            num_graphs=len(graphs),
        )
