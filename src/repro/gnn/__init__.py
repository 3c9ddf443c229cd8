"""``repro.gnn`` — graph neural-network layers and the ParaGraph model.

Substitute for PyTorch-Geometric: relational graph attention (RGAT) and
RGCN convolutions, global pooling readouts, and the full
:class:`ParaGraphModel` (3×RGAT + auxiliary-feature branch + FC head).

The relational convolutions are vectorized over relations via the cached
:class:`RelationalEdgeLayout` (relation-bucketed CSR-style edge layout,
validated and sorted once per distinct graph).  ``RGATConv`` and
``RGCNConv`` each have three forwards: ``forward`` for autodiff training,
``forward_packed`` as the one inference kernel, and the seed
per-relation-loop ``forward_reference`` for the parity regression tests and
``benchmarks/test_perf_gnn_forward.py``.

:mod:`repro.gnn.packing` packs graphs into one block-diagonal
``PackedLayout`` so a whole serving micro-batch costs a single forward
(``ParaGraphModel.predict_packed``) that is float64 bit-identical to
predicting each graph alone; a single graph is a pack of one.  Every model
predicts through its convs' packed kernels: ``ParaGraphModel`` rejects a
registered conv kind without one.
"""

from .edge_layout import (
    EdgeLayoutCache,
    RelationalEdgeLayout,
    edge_layout_cache_info,
    get_edge_layout,
    layout_content_key,
)
from .message_passing import MessagePassing, validate_edge_index
from .models import ParaGraphModel
from .packing import (
    PACK_NODE_BUDGET,
    PackedBatch,
    PackedLayout,
    PackedLayoutCache,
    merge_layouts,
    pack_graphs,
    packed_layout_cache_info,
    split_packs,
)
from .pooling import (
    global_max_pool,
    global_mean_max_pool,
    global_mean_pool,
    global_sum_pool,
    packed_readout,
)
from .rgat import RGATConv
from .rgcn import RGCNConv

__all__ = [
    "EdgeLayoutCache",
    "PACK_NODE_BUDGET",
    "MessagePassing",
    "PackedBatch",
    "PackedLayout",
    "PackedLayoutCache",
    "ParaGraphModel",
    "RGATConv",
    "RGCNConv",
    "RelationalEdgeLayout",
    "edge_layout_cache_info",
    "get_edge_layout",
    "global_max_pool",
    "global_mean_max_pool",
    "global_mean_pool",
    "global_sum_pool",
    "layout_content_key",
    "merge_layouts",
    "pack_graphs",
    "packed_layout_cache_info",
    "packed_readout",
    "split_packs",
    "validate_edge_index",
]
