"""The ParaGraph runtime-prediction model (paper §IV-B).

Architecture, following the paper:

* three RGAT graph-convolution layers with ReLU activations embed the graph,
* a global mean pooling produces one vector per kernel graph,
* a fully-connected layer embeds the two auxiliary features (number of teams
  and number of threads used to execute the kernel),
* the graph embedding and the feature embedding are concatenated and passed
  through fully-connected layers ending in a single runtime prediction.

The model consumes :class:`~repro.paragraph.encoders.GraphBatch` objects and
predicts the (scaled) runtime for each graph in the batch.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..api.registries import conv_registry, register_conv
from ..nn import functional as F
from ..nn.layers import Dropout, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor, concatenate, no_grad
from ..paragraph.encoders import GraphBatch
from ..paragraph.edges import NUM_EDGE_TYPES
from .edge_layout import get_edge_layout
from .pooling import (global_mean_max_pool, global_mean_pool, global_sum_pool,
                      packed_readout)
from .rgat import RGATConv
from .rgcn import RGCNConv


# --------------------------------------------------------------------- #
# convolution registry: every factory takes the same keyword signature so
# model-selection code can treat the kinds uniformly (repro.api.register_conv
# adds new kinds without touching this module).  A factory returns a conv
# with a training ``forward`` and a ``forward_packed`` inference kernel.
# --------------------------------------------------------------------- #
@register_conv("rgat")
def _make_rgat(in_dim, hidden_dim, *, num_relations, heads, use_edge_weight, rng):
    return RGATConv(in_dim, hidden_dim, num_relations, heads=heads,
                    use_edge_weight=use_edge_weight, rng=rng)


@register_conv("rgcn")
def _make_rgcn(in_dim, hidden_dim, *, num_relations, heads, use_edge_weight, rng):
    return RGCNConv(in_dim, hidden_dim, num_relations,
                    use_edge_weight=use_edge_weight, rng=rng)


class ParaGraphModel(Module):
    """RGAT-based GNN predicting kernel runtime from a ParaGraph.

    Parameters
    ----------
    node_feature_dim:
        Width of the one-hot node features (``GraphEncoder.feature_dim``).
    hidden_dim:
        Width of the graph-convolution layers.
    num_relations:
        Number of edge types (8 for ParaGraph, 1 for the Raw AST ablation).
    num_aux_features:
        Number of auxiliary scalars (2: teams, threads).
    aux_dim:
        Width of the auxiliary-feature embedding.
    head_dims:
        Widths of the fully-connected layers applied after concatenation.
    conv:
        Which relational convolution to use: ``"rgat"`` (paper), ``"rgcn"``
        (the design-ablation alternative), or any kind added with
        :func:`repro.api.register_conv` whose conv has a ``forward_packed``
        inference kernel (:class:`TypeError` otherwise).
    use_edge_weight:
        Forwarded to the convolution layers; switching it off turns the model
        into the Augmented-AST ablation even when weights are present.
    readout:
        Graph-level pooling: ``"mean_max"`` (default — concatenated mean and
        max keeps both the average structure and the hot-spot magnitudes that
        the weighted edges produce), ``"mean"`` or ``"sum"``.
    dropout:
        Dropout probability applied after each convolution (0 disables).
    """

    def __init__(
        self,
        node_feature_dim: int,
        hidden_dim: int = 64,
        num_relations: int = NUM_EDGE_TYPES,
        num_aux_features: int = 2,
        aux_dim: int = 16,
        head_dims: Sequence[int] = (64, 32),
        num_conv_layers: int = 3,
        conv: str = "rgat",
        heads: int = 1,
        use_edge_weight: bool = True,
        readout: str = "mean_max",
        dropout: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.node_feature_dim = node_feature_dim
        self.hidden_dim = hidden_dim
        self.num_relations = num_relations
        self.conv_kind = conv

        if conv not in conv_registry:
            raise ValueError(f"unknown convolution kind {conv!r}; "
                             f"registered kinds: {conv_registry.keys()}")
        factory = conv_registry.get(conv)

        def make_conv(in_dim: int) -> Module:
            layer = factory(in_dim, hidden_dim, num_relations=num_relations,
                            heads=heads, use_edge_weight=use_edge_weight, rng=rng)
            if not hasattr(layer, "forward_packed"):
                raise TypeError(
                    f"convolution kind {conv!r} built a {type(layer).__name__}, "
                    "which has no forward_packed inference kernel")
            return layer

        self.convs = []
        in_dim = node_feature_dim
        for i in range(num_conv_layers):
            layer = make_conv(in_dim)
            self.register_module(f"conv{i}", layer)
            self.convs.append(layer)
            in_dim = layer.output_dim

        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        if readout not in {"mean", "sum", "mean_max"}:
            raise ValueError(f"unknown readout {readout!r}")
        self.readout = readout
        self.graph_dim = in_dim * (2 if readout == "mean_max" else 1)

        # graph embedding head: two FC layers with ReLU (paper §IV-B)
        self.graph_fc1 = Linear(self.graph_dim, head_dims[0], rng=rng)
        self.graph_fc2 = Linear(head_dims[0], head_dims[1], rng=rng)

        # auxiliary feature branch (teams, threads)
        self.aux_fc = Linear(num_aux_features, aux_dim, rng=rng)

        # final prediction layer over the concatenated embeddings
        self.out_fc = Linear(head_dims[1] + aux_dim, 1, rng=rng)

    # ------------------------------------------------------------------ #
    def encode_graphs(self, batch: GraphBatch) -> Tensor:
        """Return the pooled per-graph embedding (before the head layers)."""
        x = Tensor(batch.node_features)
        # relation-bucketed edge layout: built (or fetched from the content-
        # addressed cache) once per forward and shared by every conv layer,
        # so sorting + validation never repeat across the 3-layer stack
        layout = get_edge_layout(batch.edge_index, batch.edge_type,
                                 int(batch.node_features.shape[0]),
                                 self.num_relations)
        for conv_layer in self.convs:
            x = F.relu(conv_layer(x, batch.edge_index,
                                  edge_type=batch.edge_type,
                                  edge_weight=batch.edge_weight, layout=layout))
            if self.dropout is not None:
                x = self.dropout(x)
        if self.readout == "sum":
            return global_sum_pool(x, batch.batch, batch.num_graphs)
        if self.readout == "mean_max":
            return global_mean_max_pool(x, batch.batch, batch.num_graphs)
        return global_mean_pool(x, batch.batch, batch.num_graphs)

    def forward(self, batch: GraphBatch) -> Tensor:
        """Predict one (scaled) runtime per graph; returns shape (batch,)."""
        pooled = self.encode_graphs(batch)
        g = F.relu(self.graph_fc1(pooled))
        g = F.relu(self.graph_fc2(g))
        aux = F.relu(self.aux_fc(Tensor(batch.aux_features)))
        joined = concatenate([g, aux], axis=1)
        prediction = self.out_fc(joined)
        return prediction.reshape(-1)

    def predict(self, batch: GraphBatch) -> np.ndarray:
        """:meth:`forward` under :class:`repro.nn.no_grad`, as a float64 array.

        This is the collated path: every GEMM sees the whole batch.  Serving
        and :meth:`repro.ml.trainer.Trainer.predict` run
        :meth:`predict_packed` instead; this path stays the independent
        reference the packed kernel is checked against, to rounding (the
        ``packed-forward-parity`` scenario and the GNN micro-benchmark).

        No autodiff graph is recorded, and the flag is context-local, so
        concurrent ``predict`` calls on a shared model don't interfere.  The
        shared ``training`` flag is deliberately left untouched (``Dropout``
        is identity under ``no_grad``), so serving never mutates module
        state a concurrent thread observes.
        """
        with no_grad():
            return self.forward(batch).data.copy()

    # ------------------------------------------------------------------ #
    def forward_packed(self, batch) -> np.ndarray:
        """The inference forward over a packed batch of one or more graphs.

        Raw-array twin of :meth:`forward` for a
        :class:`~repro.gnn.packing.PackedBatch`: the conv layers run their
        packed kernels over the merged block-diagonal layout, the readout
        pools over the packed batch vector, and the head layers run one
        graph row at a time so every GEMV keeps the exact shapes of a
        one-graph pack — float64 results are bit-identical to packing each
        graph alone (dropout is identity at inference, so skipping it here
        changes nothing).  Returns shape ``(num_graphs,)``.
        """
        packed = batch.layout
        x = np.asarray(batch.node_features, dtype=np.float64)
        for conv_layer in self.convs:
            # the conv hands back a fresh buffer, so the ReLU runs in place
            x = conv_layer.forward_packed(x, packed, batch.edge_weight)
            np.maximum(x, 0.0, out=x)
        pooled = packed_readout(x, packed.batch, packed.num_graphs,
                                self.readout)
        aux = np.asarray(batch.aux_features, dtype=np.float64)
        w1, b1 = self.graph_fc1.weight.data, self.graph_fc1.bias.data
        w2, b2 = self.graph_fc2.weight.data, self.graph_fc2.bias.data
        wa, ba = self.aux_fc.weight.data, self.aux_fc.bias.data
        wo, bo = self.out_fc.weight.data, self.out_fc.bias.data
        out = np.empty(packed.num_graphs, dtype=pooled.dtype)
        for g in range(packed.num_graphs):
            row = np.maximum(pooled[g:g + 1] @ w1 + b1, 0.0)
            row = np.maximum(row @ w2 + b2, 0.0)
            aux_row = np.maximum(aux[g:g + 1] @ wa + ba, 0.0)
            joined = np.concatenate([row, aux_row], axis=1)
            out[g] = (joined @ wo + bo)[0, 0]
        return out

    def predict_packed(self, batch) -> np.ndarray:
        """Packed inference helper; same context semantics as :meth:`predict`."""
        with no_grad():
            return self.forward_packed(batch)

