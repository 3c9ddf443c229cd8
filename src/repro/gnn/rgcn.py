"""Relational Graph Convolution (RGCN, Schlichtkrull et al. 2018).

Not used by the headline ParaGraph model (which is RGAT-based) but provided
as an alternative relational encoder for the design-choice ablations: RGCN
replaces attention with a per-relation mean aggregation, which makes it a
natural "no attention" baseline.

Like :class:`~repro.gnn.rgat.RGATConv`, the layer has three forwards:
:meth:`RGCNConv.forward` (autodiff training), :meth:`RGCNConv.forward_packed`
(the inference kernel over a packed block of graphs) and
:meth:`RGCNConv.forward_reference` (the seed per-relation loop, ground truth
for the parity tests).  The first two run through a cached
:class:`~repro.gnn.edge_layout.RelationalEdgeLayout`: messages are projected
per relation block (gathered rows only — never all nodes per relation),
normalized by per-(relation, destination) edge counts, and aggregated with a
single scatter-add.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import functional as F
from ..nn import init
from ..nn.module import Parameter
from ..nn.tensor import Tensor
from .edge_layout import RelationalEdgeLayout, get_edge_layout
from .message_passing import MessagePassing, validate_edge_index


class RGCNConv(MessagePassing):
    """One relational graph-convolution layer with mean aggregation."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        num_relations: int,
        use_edge_weight: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.num_relations = num_relations
        self.use_edge_weight = use_edge_weight
        self.weight = Parameter(
            init.xavier_uniform((num_relations, in_channels, out_channels), rng))
        self.root_weight = Parameter(init.xavier_uniform((in_channels, out_channels), rng))
        self.bias = Parameter(np.zeros(out_channels))

    @property
    def output_dim(self) -> int:
        return self.out_channels

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_type: Optional[np.ndarray] = None,
        edge_weight: Optional[np.ndarray] = None,
        layout: Optional[RelationalEdgeLayout] = None,
    ) -> Tensor:
        num_nodes = x.shape[0]
        if (layout is None or layout.num_relations != self.num_relations
                or layout.num_nodes != num_nodes):
            layout = get_edge_layout(edge_index, edge_type, num_nodes,
                                     self.num_relations)
        num_edges = layout.num_edges

        out = x @ self.root_weight
        if num_edges:
            src, dst = layout.src, layout.dst
            messages = F.segment_matmul(x.index_select(src), self.weight,
                                        layout.offsets)       # (E, O)
            scale = np.ones(num_edges, dtype=x.data.dtype)
            if self.use_edge_weight and edge_weight is not None:
                scale += layout.sort(edge_weight, dtype=x.data.dtype)
            # fold the per-(relation, destination) mean normalization into the
            # per-edge scale, then aggregate everything with one scatter-add
            counts = np.bincount(
                layout.cell_dst,
                minlength=num_nodes * self.num_relations).astype(x.data.dtype)
            scale /= counts[layout.cell_dst]
            messages = messages * Tensor(scale[:, None], dtype=x.data.dtype)
            out = out + messages.scatter_add(dst, num_nodes)
        return out + self.bias

    def forward_packed(self, x: np.ndarray, packed,
                       edge_weight: Optional[np.ndarray] = None) -> np.ndarray:
        """The inference kernel over a merged block-diagonal layout.

        Same bit-identity discipline as :meth:`RGATConv.forward_packed`: the
        root projection runs per graph and the message projections per
        (graph, relation) chunk, so every GEMM keeps the shape it has when
        the graph is packed alone, while the per-edge mean/weight scaling and
        the scatter-add run once over the merged layout.  Inference-only.
        """
        layout = packed.layout
        num_nodes = layout.num_nodes
        num_edges = layout.num_edges
        node_offsets = packed.node_offsets
        root = self.root_weight.data
        weight = self.weight.data
        out = np.empty((num_nodes, self.out_channels),
                       dtype=np.result_type(x, root))
        for g in range(packed.num_graphs):
            n0, n1 = int(node_offsets[g]), int(node_offsets[g + 1])
            np.matmul(x[n0:n1], root, out=out[n0:n1])
        if num_edges:
            # chunks partition every graph's edges: each message row is
            # written exactly once, so the buffer starts uninitialised
            messages = np.empty((num_edges, self.out_channels),
                                dtype=np.result_type(x, weight))
            for chunks in packed.chunks:
                F.packed_segment_matmul_data(x, layout.src, weight, chunks,
                                             messages)
            scale = np.ones(num_edges, dtype=x.dtype)
            if self.use_edge_weight and edge_weight is not None:
                scale += layout.sort(edge_weight, dtype=x.dtype)
            counts = np.bincount(
                layout.cell_dst,
                minlength=num_nodes * self.num_relations).astype(x.dtype)
            scale /= counts[layout.cell_dst]
            messages *= scale[:, None]
            out += layout.scatter_sum(messages)
        return out + self.bias.data

    def forward_reference(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_type: Optional[np.ndarray] = None,
        edge_weight: Optional[np.ndarray] = None,
        layout: Optional[RelationalEdgeLayout] = None,
    ) -> Tensor:
        """The seed per-relation-loop forward (*layout* is ignored); ground
        truth for the parity regression tests and the micro-benchmark."""
        num_nodes = x.shape[0]
        edge_index = validate_edge_index(edge_index, num_nodes)
        num_edges = edge_index.shape[1]
        if edge_type is None:
            edge_type = np.zeros(num_edges, dtype=np.int64)
        else:
            edge_type = np.asarray(edge_type, dtype=np.int64)
        if edge_weight is None:
            edge_weight = np.zeros(num_edges, dtype=np.float64)
        else:
            edge_weight = np.asarray(edge_weight, dtype=np.float64)

        out = x @ self.root_weight
        for relation in range(self.num_relations):
            mask = edge_type == relation
            if not mask.any():
                continue
            src = edge_index[0, mask]
            dst = edge_index[1, mask]
            projected = x @ self.weight[relation]
            messages = projected.index_select(src)
            if self.use_edge_weight:
                messages = messages * Tensor((1.0 + edge_weight[mask])[:, None])
            out = out + self.aggregate_mean(messages, dst, num_nodes)
        return out + self.bias

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RGCNConv({self.in_channels}, {self.out_channels}, "
                f"relations={self.num_relations})")
