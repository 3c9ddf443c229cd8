"""Relational Graph Attention convolution (RGAT, Busbridge et al. 2019).

The ParaGraph model uses three RGAT layers as its graph encoder (§IV-B of the
paper: "the model uses three graph convolution layers based on RGAT").  RGAT
extends GAT to multi-relational graphs: every relation (edge type) has its own
projection matrix and its own attention parameters, and "attention logits are
computed per each edge type" (§III-B).

This implementation follows the ARGAT (across-relation) normalization: the
attention coefficients of *all* edges entering a node — regardless of their
relation — are normalized jointly with a softmax.  ParaGraph's Child-edge
weights enter the layer multiplicatively: each message is scaled by
``1 + w_e`` where ``w_e`` is the (scaled) edge weight, so heavier edges (hot
loop bodies) contribute proportionally more to the embedding, while the
weightless augmentation edges (w = 0) are unaffected.

The layer has three forwards over a cached, relation-bucketed
:class:`~repro.gnn.edge_layout.RelationalEdgeLayout`:

* :meth:`RGATConv.forward` — autodiff training, and the collated ``no_grad``
  reference :meth:`~repro.gnn.models.ParaGraphModel.predict`.  It projects
  only the rows each relation touches (one GEMM per relation block):
  ParaGraph graphs have about two edges per node, far too few for an
  all-node projection to pay.
* :meth:`RGATConv.forward_packed` — the one inference kernel, over a packed
  block of graphs (:mod:`repro.gnn.packing`; a single graph is a pack of
  one).  It scores attention on each graph's node block with the attention
  vectors folded into the projection and projects messages per relation
  block, the same one body for every graph shape.
* :meth:`RGATConv.forward_reference` — the seed per-relation loop, kept as
  the ground truth for the parity tests and the
  ``benchmarks/test_perf_gnn_forward.py`` micro-benchmark.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn import functional as F
from ..nn import init
from ..nn.module import Parameter
from ..nn.tensor import Tensor, concatenate
from .edge_layout import RelationalEdgeLayout, get_edge_layout
from .message_passing import MessagePassing, validate_edge_index


class RGATConv(MessagePassing):
    """One relational graph-attention layer.

    Parameters
    ----------
    in_channels, out_channels:
        Input / output node-feature dimensionality.
    num_relations:
        Number of edge types (8 for ParaGraph; 1 collapses to plain GAT).
    heads:
        Number of attention heads; head outputs are concatenated, so the
        effective output width is ``out_channels * heads``.
    negative_slope:
        Slope of the LeakyReLU applied to attention logits.
    use_edge_weight:
        Whether to modulate messages with the ParaGraph edge weights (this is
        the switch the ablation study flips between Augmented AST and full
        ParaGraph).
    add_self_messages:
        Add a learned self-transformation of each node to the aggregated
        messages (keeps information flowing for isolated nodes).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        num_relations: int,
        heads: int = 1,
        negative_slope: float = 0.2,
        use_edge_weight: bool = True,
        add_self_messages: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.num_relations = num_relations
        self.heads = heads
        self.negative_slope = negative_slope
        self.use_edge_weight = use_edge_weight
        self.add_self_messages = add_self_messages

        # one projection and one attention vector pair per relation
        self.weight = Parameter(
            init.xavier_uniform((num_relations, in_channels, heads * out_channels), rng))
        self.att_src = Parameter(
            init.xavier_uniform((num_relations, heads, out_channels), rng))
        self.att_dst = Parameter(
            init.xavier_uniform((num_relations, heads, out_channels), rng))
        if add_self_messages:
            self.self_weight = Parameter(
                init.xavier_uniform((in_channels, heads * out_channels), rng))
        else:
            self.self_weight = None
        self.bias = Parameter(np.zeros(heads * out_channels))

    # ------------------------------------------------------------------ #
    @property
    def output_dim(self) -> int:
        return self.heads * self.out_channels

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
            # validation (edge_index shape/range, edge_type range) happens
            # once inside the cached layout build, not per layer per forward
            layout = get_edge_layout(edge_index, edge_type, num_nodes,
                                     self.num_relations)
        num_edges = layout.num_edges

        heads, out_channels = self.heads, self.out_channels

        if num_edges == 0:
            aggregated = Tensor(np.zeros((num_nodes, heads * out_channels)),
                                dtype=x.data.dtype)
        else:
            src, dst, rel = layout.src, layout.dst, layout.rel

            # project only the gathered source/destination rows, one GEMM
            # per relation block
            h_src = F.segment_matmul(x.index_select(src), self.weight,
                                     layout.offsets)         # (E, H*C)
            h_dst = F.segment_matmul(x.index_select(dst), self.weight,
                                     layout.offsets)
            h_src = h_src.reshape(num_edges, heads, out_channels)
            h_dst = h_dst.reshape(num_edges, heads, out_channels)
            att_src = self.att_src.index_select(rel)         # (E, H, C)
            att_dst = self.att_dst.index_select(rel)
            logit = (h_src * att_src).sum(axis=2) \
                + (h_dst * att_dst).sum(axis=2)              # (E, H)
            logit = F.leaky_relu(logit, self.negative_slope)

            # across-relation attention normalization per destination node,
            # fused with the ParaGraph edge-weight modulation into a single
            # per-edge coefficient so h_src is scaled exactly once
            alpha = F.segment_softmax(logit, dst, num_nodes)  # (E, H)
            if self.use_edge_weight and edge_weight is not None:
                weights = layout.sort(edge_weight, dtype=x.data.dtype)
                alpha = alpha * Tensor((1.0 + weights)[:, None],
                                       dtype=x.data.dtype)
            weighted = h_src * alpha.reshape(num_edges, heads, 1)
            aggregated = self.aggregate_sum(weighted, dst, num_nodes)
            aggregated = aggregated.reshape(num_nodes, heads * out_channels)

        if self.self_weight is not None:
            aggregated = aggregated + (x @ self.self_weight)
        return aggregated + self.bias

    def _folded_attention(self):
        """The attention vectors folded into the projection, for
        :meth:`forward_packed`'s node-block scores.

        ``A_src`` / ``A_dst`` hold ``W_r · att_r`` for every relation, shape
        ``(F, R*H)`` with column ``r*H + h``: ``x @ A_src`` scores every node
        as a source under every relation in one GEMM, and an edge's
        ``(node, relation)`` cell indexes the ``(N*R, H)`` view of it.
        Cached per conv, keyed by the identity of the parameter arrays (the
        optimizers and ``load_state_dict`` rebind ``.data``), so the fold
        lives until the weights change; building is idempotent, so racing
        builders are safe without a lock.
        """
        weight, att_src, att_dst = self.weight.data, self.att_src.data, self.att_dst.data
        cached = self.__dict__.get("_folded_attention_cache")
        if cached is not None and cached[0] is weight and cached[1] is att_src \
                and cached[2] is att_dst:
            return cached[3:]
        num_relations, in_channels = weight.shape[0], weight.shape[1]
        w4 = weight.reshape(num_relations, in_channels, self.heads,
                            self.out_channels)
        a_src, a_dst = (np.ascontiguousarray(
            np.einsum("rfhc,rhc->rfh", w4, att)
            .transpose(1, 0, 2).reshape(in_channels, -1))
            for att in (att_src, att_dst))
        self.__dict__["_folded_attention_cache"] = (weight, att_src, att_dst,
                                                    a_src, a_dst)
        return a_src, a_dst

    def forward_packed(self, x: np.ndarray, packed,
                       edge_weight: Optional[np.ndarray] = None) -> np.ndarray:
        """The inference kernel: many graphs, one block-diagonal pass.

        *packed* is a :class:`~repro.gnn.packing.PackedLayout` (one graph is
        a pack of one); *x* is the concatenated node features, *edge_weight*
        the concatenated weights in original per-graph edge order.
        Bit-identity contract (see :mod:`repro.gnn.packing`): every BLAS call
        runs on one graph's rows — the graph's node block for the attention
        scores (``x_g @ (W_r · att_r)``, :meth:`_folded_attention`), a
        (graph, relation) chunk of gathered source rows for the messages —
        so its shape never depends on what else is packed, while the
        composition-stable per-edge work (the score gathers, leaky-relu,
        segment softmax, edge-weight scaling, scatter aggregation) runs once
        over the merged layout.  Inference-only: raw arrays, no autodiff.
        """
        layout = packed.layout
        heads, out_channels = self.heads, self.out_channels
        num_nodes = layout.num_nodes
        num_edges = layout.num_edges
        node_offsets = packed.node_offsets
        weight = self.weight.data
        out_dtype = np.result_type(x, weight)
        if num_edges == 0:
            aggregated = np.zeros((num_nodes, heads * out_channels),
                                  dtype=out_dtype)
        else:
            a_src, a_dst = self._folded_attention()
            # chunks partition every graph's edges, so each message row is
            # written exactly once, and the score rows of edgeless graphs are
            # never gathered — the buffers start uninitialised
            score_src = np.empty((num_nodes, a_src.shape[1]), dtype=out_dtype)
            score_dst = np.empty_like(score_src)
            h = np.empty((num_edges, heads, out_channels), dtype=out_dtype)
            flat = h.reshape(num_edges, heads * out_channels)
            for g, chunks in enumerate(packed.chunks):
                if not chunks:
                    continue
                n0, n1 = int(node_offsets[g]), int(node_offsets[g + 1])
                np.matmul(x[n0:n1], a_src, out=score_src[n0:n1])
                np.matmul(x[n0:n1], a_dst, out=score_dst[n0:n1])
                F.packed_segment_matmul_data(x, layout.src, weight, chunks,
                                             flat)
            dst = layout.dst
            logit = score_src.reshape(-1, heads)[layout.cell_src] \
                + score_dst.reshape(-1, heads)[layout.cell_dst]   # (E, H)
            logit = np.where(logit > 0, logit, self.negative_slope * logit)
            seg_max = layout.segment_reduce(logit, op="max")
            logit -= seg_max[dst]
            np.exp(logit, out=logit)
            denom = layout.segment_reduce(logit, op="sum")
            logit /= (denom + 1e-16)[dst]
            if self.use_edge_weight and edge_weight is not None:
                logit *= (1.0 + layout.sort(edge_weight,
                                            dtype=logit.dtype))[:, None]
            h *= logit[:, :, None]
            aggregated = layout.scatter_sum(flat)
        if self.self_weight is not None:
            self_w = self.self_weight.data
            for g in range(packed.num_graphs):
                n0, n1 = int(node_offsets[g]), int(node_offsets[g + 1])
                aggregated[n0:n1] += x[n0:n1] @ self_w
        aggregated += self.bias.data
        return aggregated

    def forward_reference(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_type: Optional[np.ndarray] = None,
        edge_weight: Optional[np.ndarray] = None,
        layout: Optional[RelationalEdgeLayout] = None,
    ) -> Tensor:
        """The seed per-relation-loop forward (*layout* is ignored).

        Kept as the ground truth for the vectorized kernel: parity regression
        tests assert ``forward == forward_reference`` to float64 precision,
        and the GNN micro-benchmark measures the speedup against it.
        """
        num_nodes = x.shape[0]
        edge_index = validate_edge_index(edge_index, num_nodes)
        num_edges = edge_index.shape[1]
        if edge_type is None:
            edge_type = np.zeros(num_edges, dtype=np.int64)
        else:
            edge_type = np.asarray(edge_type, dtype=np.int64)
        if edge_type.shape != (num_edges,):
            raise ValueError("edge_type must have one entry per edge")
        if edge_type.size and (edge_type.min() < 0 or edge_type.max() >= self.num_relations):
            raise ValueError("edge_type outside [0, num_relations)")
        if edge_weight is None:
            edge_weight = np.zeros(num_edges, dtype=np.float64)
        else:
            edge_weight = np.asarray(edge_weight, dtype=np.float64)

        heads, out_channels = self.heads, self.out_channels

        if num_edges == 0:
            aggregated = Tensor(np.zeros((num_nodes, heads * out_channels)))
        else:
            logits_parts: List[Tensor] = []
            messages_parts: List[Tensor] = []
            dst_parts: List[np.ndarray] = []
            for relation in range(self.num_relations):
                mask = edge_type == relation
                if not mask.any():
                    continue
                src = edge_index[0, mask]
                dst = edge_index[1, mask]
                weights = edge_weight[mask]
                # project all nodes with this relation's matrix, then gather
                projected = (x @ self.weight[relation]).reshape(num_nodes, heads, out_channels)
                h_src = projected.index_select(src)          # (e_r, H, C)
                h_dst = projected.index_select(dst)
                logit = (h_src * self.att_src[relation]).sum(axis=2) \
                    + (h_dst * self.att_dst[relation]).sum(axis=2)   # (e_r, H)
                logit = F.leaky_relu(logit, self.negative_slope)
                message = h_src
                if self.use_edge_weight:
                    scale = (1.0 + weights)[:, None, None]
                    message = message * Tensor(scale)
                logits_parts.append(logit)
                messages_parts.append(message)
                dst_parts.append(dst)

            logits = concatenate(logits_parts, axis=0)          # (E, H)
            messages = concatenate(messages_parts, axis=0)      # (E, H, C)
            dst_all = np.concatenate(dst_parts)
            # across-relation attention normalization per destination node
            alpha = F.segment_softmax(logits, dst_all, num_nodes)   # (E, H)
            weighted = messages * alpha.reshape(alpha.shape[0], heads, 1)
            aggregated = self.aggregate_sum(weighted, dst_all, num_nodes)
            aggregated = aggregated.reshape(num_nodes, heads * out_channels)

        if self.self_weight is not None:
            aggregated = aggregated + (x @ self.self_weight)
        return aggregated + self.bias

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RGATConv({self.in_channels}, {self.out_channels}, "
                f"relations={self.num_relations}, heads={self.heads})")
