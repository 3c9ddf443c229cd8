"""Block-diagonal packing: many graphs, one fused multi-graph forward.

The serving hot path used to run one GNN forward per graph even after the
server coalesced requests, so coalescing bought nothing.  Packing turns a
whole batch into a single block-diagonal graph: node features
concatenate, edge indices shift by per-graph node offsets, and the cached
per-graph :class:`~repro.gnn.edge_layout.RelationalEdgeLayout` objects merge
into one relation-bucketed layout in O(E) — no re-sort, no re-validation,
no per-composition ``argsort``.

**Bit-identity contract.**  A packed forward is float64 bit-identical to
predicting each graph alone — a pack of one — for *any* packing order or
composition.  BLAS kernels are not bit-stable across matrix shapes (OpenBLAS
picks micro-kernels by row count), so the packed kernels in
:mod:`repro.gnn.rgat` / :mod:`repro.gnn.rgcn` run every GEMM on one graph's
rows — a (graph, relation) chunk of edges or a graph's node block — while
everything that *is* composition-stable fuses across the merged layout: edge
gathers, the leaky-relu / segment-softmax / edge-weight tail, ``reduceat``
reductions, scatter aggregation, and pooling.  The
``packed-forward-parity`` scenario in :mod:`repro.synth.harness` sweeps this
contract under random packing orders.

**Cache keyspace.**  Merged layouts are cached in their own LRU
(:class:`PackedLayoutCache`), keyed by the ordered composition of the
per-graph content digests.  Packed compositions are combinatorial (every
micro-batch shuffle is a new key), so letting them share the
``edge_layout`` LRU would thrash the hot single-graph layouts serving also
needs; the per-graph lookups still go through that main cache, keeping
single-graph entries hot.  One-graph packs — every served single, every
``Trainer.predict`` over a one-graph dataset — stay out of the packed LRU,
where they would evict the multi-graph compositions: a one-graph pack is
the solo layout itself plus three small parts memoized on it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .edge_layout import (CacheInfo, EdgeLayoutCache, RelationalEdgeLayout,
                          get_edge_layout, layout_content_key)

__all__ = [
    "PACK_NODE_BUDGET",
    "PackedBatch",
    "PackedLayout",
    "PackedLayoutCache",
    "merge_layouts",
    "pack_graphs",
    "packed_layout_cache_info",
    "split_packs",
]

#: default node budget per sub-pack (see :func:`split_packs`): big enough to
#: amortise per-forward overhead over many small graphs, small enough that a
#: pack's per-edge buffers stay cache-resident — one giant merged pack is
#: *slower* than the per-graph loop once its working set spills the LLC
PACK_NODE_BUDGET = 4096


def split_packs(graphs: Sequence, node_budget: int = PACK_NODE_BUDGET) -> List[list]:
    """Split *graphs* into consecutive sub-packs of bounded total node count.

    Packing is bit-transparent per graph, so splitting a batch changes
    nothing numerically — it only bounds each fused forward's working set.
    Order is preserved, every pack is non-empty, and a single graph larger
    than the budget still packs (alone), so any batch splits successfully.
    """
    packs: List[list] = []
    pack: list = []
    nodes = 0
    for graph in graphs:
        count = int(graph.node_features.shape[0])
        if pack and nodes + count > node_budget:
            packs.append(pack)
            pack, nodes = [], 0
        pack.append(graph)
        nodes += count
    if pack:
        packs.append(pack)
    return packs

#: per-graph chunk: ``(relation, start, stop)`` in merged-layout coordinates
Chunk = Tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class PackedLayout:
    """One block-diagonal layout covering a whole micro-batch of graphs.

    ``layout`` is a full :class:`RelationalEdgeLayout` over the merged graph
    (relation-major edge order; within a relation the edges of graph 0 come
    first, then graph 1, ...), so every fused per-edge kernel — segment
    softmax, scatter matrices, ``sort`` of concatenated edge weights — works
    unchanged.  The extra arrays recover per-graph structure:

    * ``node_offsets`` — ``(G+1,)`` prefix sums; graph ``g`` owns nodes
      ``node_offsets[g]:node_offsets[g+1]``.
    * ``batch`` — ``(N_total,)`` sorted graph id per node, the pooling vector.
    * ``chunks`` — per graph, the ``(relation, lo, hi)`` runs its edges
      occupy in the merged layout, in its own layout's order; the packed
      conv kernels iterate these so every BLAS call keeps solo shapes.
    """

    layout: RelationalEdgeLayout
    num_graphs: int
    node_offsets: np.ndarray     # (G+1,)
    batch: np.ndarray            # (N_total,) sorted graph id per node
    chunks: Tuple[Tuple[Chunk, ...], ...]

    @property
    def num_nodes(self) -> int:
        return self.layout.num_nodes

    @property
    def num_edges(self) -> int:
        return self.layout.num_edges


@dataclass
class PackedBatch:
    """The per-call payload for one packed forward.

    The layout is cached and shared; the arrays here are request data:
    concatenated raw node features, edge weights in *original* (pre-layout)
    edge order — ``layout.layout.sort`` reorders them exactly as each solo
    forward would — and one row of auxiliary features / targets per graph.
    """

    node_features: np.ndarray    # (N_total, F)
    edge_weight: np.ndarray      # (E_total,) original per-graph edge order
    aux_features: np.ndarray     # (G, A)
    targets: np.ndarray          # (G,)
    layout: PackedLayout

    @property
    def num_graphs(self) -> int:
        return self.layout.num_graphs


def merge_layouts(layouts: Sequence[RelationalEdgeLayout]) -> PackedLayout:
    """Merge per-graph layouts into one block-diagonal layout in O(E).

    Reuses everything the per-graph builds already paid for (stable relation
    sort, dst-major views, validation): the merged arrays are computed by
    offset arithmetic alone.  Per relation, graph order and each graph's
    internal (solo) edge order are preserved, so per-destination reductions
    run in exactly the order the solo layouts produce — the floating-point
    guarantee the packed forward's bit-identity contract rests on.
    """
    if not layouts:
        raise ValueError("merge_layouts needs at least one layout")
    if len(layouts) == 1:
        return _solo_pack(layouts[0])
    num_relations = layouts[0].num_relations
    if any(l.num_relations != num_relations for l in layouts):
        raise ValueError("all layouts must share num_relations")
    num_graphs = len(layouts)
    nodes = np.array([l.num_nodes for l in layouts], dtype=np.int64)
    node_offsets = np.zeros(num_graphs + 1, dtype=np.int64)
    np.cumsum(nodes, out=node_offsets[1:])
    batch = np.repeat(np.arange(num_graphs, dtype=np.int64), nodes)

    edges = np.array([l.num_edges for l in layouts], dtype=np.int64)
    edge_offsets = np.zeros(num_graphs + 1, dtype=np.int64)
    np.cumsum(edges, out=edge_offsets[1:])
    counts = np.stack([np.diff(l.offsets) for l in layouts])        # (G, R)
    offsets = np.zeros(num_relations + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=offsets[1:])
    # start[g, r]: where graph g's relation-r run begins in the merged order
    start = offsets[:-1] + np.cumsum(counts, axis=0) - counts       # (G, R)

    total_edges = int(edge_offsets[-1])
    src = np.empty(total_edges, dtype=np.int64)
    dst = np.empty(total_edges, dtype=np.int64)
    rel = np.empty(total_edges, dtype=np.int64)
    perm = np.empty(total_edges, dtype=np.int64)
    dst_order_parts: List[np.ndarray] = []
    dst_starts_parts: List[np.ndarray] = []
    dst_unique_parts: List[np.ndarray] = []
    chunks: List[Tuple[Chunk, ...]] = []
    for g, l in enumerate(layouts):
        e0, e1 = int(edge_offsets[g]), int(edge_offsets[g + 1])
        if e0 == e1:
            chunks.append(())
            continue
        # merged position of each solo edge: its relation run's start plus
        # its within-relation rank; strictly increasing over solo positions,
        # so the solo edge order survives inside every merged view
        map_g = (start[g] - l.offsets[:-1])[l.rel] + np.arange(e1 - e0)
        src[map_g] = l.src + node_offsets[g]
        dst[map_g] = l.dst + node_offsets[g]
        rel[map_g] = l.rel
        perm[map_g] = l.perm + e0
        # node offsets make merged dst graph-major and map_g preserves the
        # within-graph tie order, so the solo dst-major machinery composes
        # by concatenation
        dst_order_parts.append(map_g[l.dst_order])
        dst_starts_parts.append(l.dst_starts + e0)
        dst_unique_parts.append(l.dst_unique + node_offsets[g])
        chunks.append(tuple(
            (r, int(start[g, r]), int(start[g, r] + counts[g, r]))
            for r in range(num_relations) if counts[g, r]))

    def concat(parts: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    merged = RelationalEdgeLayout(
        num_nodes=int(node_offsets[-1]),
        num_relations=num_relations,
        perm=perm,
        src=src,
        dst=dst,
        rel=rel,
        offsets=offsets,
        dst_order=concat(dst_order_parts),
        dst_starts=concat(dst_starts_parts),
        dst_unique=concat(dst_unique_parts),
        cell_src=src * num_relations + rel,
        cell_dst=dst * num_relations + rel,
    )
    packed = PackedLayout(layout=merged, num_graphs=num_graphs,
                          node_offsets=node_offsets, batch=batch,
                          chunks=tuple(chunks))
    for array in (merged.perm, merged.src, merged.dst, merged.rel,
                  merged.offsets, merged.dst_order, merged.dst_starts,
                  merged.dst_unique, merged.cell_src, merged.cell_dst,
                  packed.node_offsets, packed.batch):
        array.setflags(write=False)
    return packed


def _solo_pack(solo: RelationalEdgeLayout) -> PackedLayout:
    """A one-graph pack: the solo layout object itself, sharing its
    scatter-matrix memo with every other pack of that graph alone.

    Its parts (``node_offsets``, ``batch``, ``chunks``) are memoized on
    *solo* as plain arrays and tuples; memoizing the ``PackedLayout``
    itself would point back at *solo* and make every layout a reference
    cycle.
    """
    memo = solo._solo_pack
    if not memo:                 # lock-free fast path (GIL-atomic read)
        with solo._matrix_lock:
            if not memo:
                node_offsets = np.array([0, solo.num_nodes], dtype=np.int64)
                batch = np.zeros(solo.num_nodes, dtype=np.int64)
                node_offsets.setflags(write=False)
                batch.setflags(write=False)
                memo.append((node_offsets, batch, (tuple(solo.blocks()),)))
    node_offsets, batch, chunks = memo[0]
    return PackedLayout(layout=solo, num_graphs=1, node_offsets=node_offsets,
                        batch=batch, chunks=chunks)


class PackedLayoutCache:
    """Content-addressed LRU for merged :class:`PackedLayout` objects.

    Keyed by the *ordered composition* of per-graph layout digests
    (:func:`~repro.gnn.edge_layout.layout_content_key`), so the same
    micro-batch composition — regardless of which array objects carry it —
    reuses one merged layout (and its cached scatter matrices).  Deliberately
    separate from the ``edge_layout`` LRU: compositions are combinatorial and
    would otherwise evict the hot single-graph layouts.

    One-graph packs never enter the LRU (see :func:`_solo_pack`); they
    count as a hit when the solo layout already carries its pack's parts,
    and as a miss when they are built.

    Same locking discipline as :class:`EdgeLayoutCache`: counters and the
    LRU order are lock-protected, merges run outside the lock, first insert
    wins on concurrent misses.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = max(int(capacity), 0)
        self._entries: "OrderedDict[bytes, PackedLayout]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(graph_keys: Sequence[bytes]) -> bytes:
        digest = hashlib.blake2b(digest_size=16)
        for graph_key in graph_keys:        # fixed-size digests: order-exact
            digest.update(graph_key)
        return digest.digest()

    def get(self, graph_keys: Sequence[bytes],
            layouts: Sequence[RelationalEdgeLayout]) -> PackedLayout:
        if len(layouts) == 1:
            hit = bool(layouts[0]._solo_pack)
            with self._lock:
                self.hits += hit
                self.misses += not hit
            return _solo_pack(layouts[0])
        key = self._key(graph_keys)
        with self._lock:
            packed = self._entries.get(key)
            if packed is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return packed
            self.misses += 1
        packed = merge_layouts(layouts)
        if self.capacity:
            with self._lock:
                existing = self._entries.get(key)
                if existing is not None:
                    self._entries.move_to_end(key)
                    return existing
                self._entries[key] = packed
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return packed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(hits=self.hits, misses=self.misses,
                             size=len(self._entries), capacity=self.capacity,
                             evictions=self.evictions)


#: process-wide packed-layout cache — its own keyspace, see the module
#: docstring; sized for a serving tier's working set of hot compositions.
_PACKED_CACHE = PackedLayoutCache(capacity=64)


def packed_layout_cache_info() -> CacheInfo:
    """Hit/miss statistics of the process-wide packed-layout cache."""
    return _PACKED_CACHE.info()


def pack_graphs(graphs: Iterable, num_relations: int,
                cache: Optional[PackedLayoutCache] = None,
                layout_cache: Optional[EdgeLayoutCache] = None) -> PackedBatch:
    """Pack encoded graphs into one block-diagonal :class:`PackedBatch`.

    Per-graph layouts come from the main ``edge_layout`` LRU (*layout_cache*,
    defaulting to the process-wide one) — those are the entries single-graph
    serving keeps hot — while the merged layout lives in the separate packed
    cache (*cache*).  Node features and edge weights concatenate in graph
    order; ``aux_features`` / ``targets`` stack one row per graph.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("pack_graphs needs at least one graph")
    # tracing hook: one global read when no collector is active
    from ..obs.tracing import span
    with span("engine.pack", num_graphs=len(graphs)):
        return _pack_graphs(graphs, num_relations, cache, layout_cache)


def _pack_graphs(graphs: List, num_relations: int,
                 cache: Optional[PackedLayoutCache],
                 layout_cache: Optional[EdgeLayoutCache]) -> PackedBatch:
    layouts = []
    keys = []
    for graph in graphs:
        num_nodes = int(graph.node_features.shape[0])
        key = layout_content_key(graph.edge_index, graph.edge_type,
                                 num_nodes, num_relations)
        keys.append(key)
        layouts.append(get_edge_layout(graph.edge_index, graph.edge_type,
                                       num_nodes, num_relations,
                                       cache=layout_cache, key=key))
    packed_cache = _PACKED_CACHE if cache is None else cache
    layout = packed_cache.get(keys, layouts)

    node_features = np.concatenate([g.node_features for g in graphs], axis=0)
    weights = [np.zeros(l.num_edges, dtype=np.float64) if g.edge_weight is None
               else np.asarray(g.edge_weight, dtype=np.float64)
               for g, l in zip(graphs, layouts)]
    edge_weight = (np.concatenate(weights) if layout.num_edges
                   else np.zeros(0, dtype=np.float64))
    aux_features = np.stack(
        [np.asarray(g.aux_features, dtype=np.float64) for g in graphs])
    targets = np.array([float(g.target) for g in graphs], dtype=np.float64)
    return PackedBatch(node_features=node_features, edge_weight=edge_weight,
                       aux_features=aux_features, targets=targets,
                       layout=layout)
