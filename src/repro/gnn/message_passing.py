"""Message-passing scaffolding shared by the GNN convolution layers.

The convolutions in this package follow the standard gather → message →
aggregate → update scheme over an edge list:

1. gather the source / destination node states for every edge,
2. compute per-edge messages (possibly modulated by attention coefficients
   and by the ParaGraph edge weights),
3. aggregate messages per destination node (sum or mean),
4. update node states.

:class:`MessagePassing` provides the shared plumbing; the concrete layers
(:class:`~repro.gnn.rgat.RGATConv`, :class:`~repro.gnn.rgcn.RGCNConv`)
override :meth:`forward` and add a ``forward_packed`` inference kernel.
"""

from __future__ import annotations

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
