"""Message-passing scaffolding shared by the GNN convolution layers.

The convolutions in this package follow the standard gather → message →
aggregate → update scheme over an edge list:

1. gather the source / destination node states for every edge,
2. compute per-edge messages (possibly modulated by attention coefficients
   and by the ParaGraph edge weights),
3. aggregate messages per destination node (sum or mean),
4. update node states.

:class:`MessagePassing` provides the shared plumbing; concrete layers
(:class:`~repro.gnn.rgat.RGATConv`, :class:`~repro.gnn.rgcn.RGCNConv`,
:class:`~repro.gnn.gat.GATConv`) override :meth:`forward`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.module import Module
from ..nn.tensor import Tensor


def validate_edge_index(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Check an edge-index array and return it as int64 of shape (2, E)."""
    edge_index = np.asarray(edge_index, dtype=np.int64)
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
    if edge_index.size and (edge_index.min() < 0 or edge_index.max() >= num_nodes):
        raise ValueError("edge_index references nodes outside [0, num_nodes)")
    return edge_index


def add_self_loops(edge_index: np.ndarray, num_nodes: int,
                   edge_type: Optional[np.ndarray] = None,
                   self_loop_type: int = 0,
                   edge_weight: Optional[np.ndarray] = None,
                   self_loop_weight: float = 0.0) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Append one self-loop per node to the edge list.

    Self-loops let a node keep its own state during aggregation; they are
    given their own relation id (``self_loop_type``) so the relational layers
    learn a separate transformation for them.
    """
    loops = np.arange(num_nodes, dtype=np.int64)
    loop_index = np.stack([loops, loops])
    new_index = np.concatenate([edge_index, loop_index], axis=1)
    new_type = None
    if edge_type is not None:
        new_type = np.concatenate([np.asarray(edge_type, dtype=np.int64),
                                   np.full(num_nodes, self_loop_type, dtype=np.int64)])
    new_weight = None
    if edge_weight is not None:
        new_weight = np.concatenate([np.asarray(edge_weight, dtype=np.float64),
                                     np.full(num_nodes, self_loop_weight)])
    return new_index, new_type, new_weight


class MessagePassing(Module):
    """Base class holding common aggregation helpers."""

    def aggregate_sum(self, messages: Tensor, dst: np.ndarray, num_nodes: int) -> Tensor:
        """Sum messages per destination node."""
        return F.segment_sum(messages, dst, num_nodes)

    def aggregate_mean(self, messages: Tensor, dst: np.ndarray, num_nodes: int) -> Tensor:
        """Average messages per destination node."""
        return F.segment_mean(messages, dst, num_nodes)

    def forward(self, x: Tensor, edge_index: np.ndarray, **kwargs) -> Tensor:
        raise NotImplementedError
