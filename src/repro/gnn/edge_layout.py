"""Relation-bucketed edge layout for the vectorized relational GNN kernels.

The seed implementation of :class:`~repro.gnn.rgat.RGATConv` /
:class:`~repro.gnn.rgcn.RGCNConv` looped over the relations in Python,
masking the edge list and projecting **all** nodes once per relation on
every forward pass of every layer.  :class:`RelationalEdgeLayout` computes,
once per (edge_index, edge_type) pair, everything those loops re-derived:

* the edges stably sorted by relation (``perm``, ``src``, ``dst``, ``rel``),
  so each relation's edges form one contiguous block — the CSR-style layout
  :func:`repro.nn.functional.segment_matmul` consumes,
* ``offsets`` — the ``(R + 1,)`` block boundaries per relation,
* a destination-major view (``dst_order``, ``dst_starts``, ``dst_unique``)
  for per-node ``reduceat`` reductions, the flat (node, relation) cell of
  each edge's endpoints (``cell_src``, ``cell_dst``), and a memoized sparse
  scatter matrix behind :meth:`RelationalEdgeLayout.scatter_sum`,
* validation — ``validate_edge_index`` and the edge-type range check run
  here exactly once instead of in every layer of a 3-layer stack.

Layouts are memoized in a content-addressed LRU cache (:class:`EdgeLayoutCache`)
keyed by a digest of the arrays, so repeated inference over the same graph —
the :class:`repro.api.Session` serving path, whose construction cache returns
identical encoded graphs — never re-sorts or re-validates, regardless of
which batch object the arrays travel in.  The cache (and each layout's
scatter-matrix memo) is lock-protected: one process-wide instance is shared
by every thread that serves.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..nn.tensor import scatter_matrix as _build_scatter_matrix
from .message_passing import validate_edge_index

__all__ = [
    "EdgeLayoutCache",
    "RelationalEdgeLayout",
    "edge_layout_cache_info",
    "get_edge_layout",
    "layout_content_key",
]


@dataclass(frozen=True, eq=False)
class RelationalEdgeLayout:
    """Edges of one graph sorted by relation, with CSR-style offsets.

    All arrays are ordered relation-major (stable within a relation, i.e. the
    original edge order is preserved inside each block), matching the order
    the seed per-relation loop visited edges in — which keeps floating-point
    aggregation bit-for-bit comparable.
    """

    num_nodes: int
    num_relations: int
    perm: np.ndarray      # (E,)   stable argsort of edge_type
    src: np.ndarray       # (E,)   source node per edge, sorted by relation
    dst: np.ndarray       # (E,)   destination node per edge, sorted by relation
    rel: np.ndarray       # (E,)   relation per edge (non-decreasing)
    offsets: np.ndarray   # (R+1,) block boundaries: relation r spans
    #                              offsets[r]:offsets[r+1]
    # destination-major view for per-node aggregation (segment max / sum via
    # ``reduceat`` instead of the much slower unbuffered ``ufunc.at``)
    dst_order: np.ndarray    # (E,) stable argsort of dst (over layout order)
    dst_starts: np.ndarray   # (U,) reduceat segment starts in dst_order
    dst_unique: np.ndarray   # (U,) destination node id of each segment
    # flat row indices into (node, relation)-major matrices of shape
    # (N * R, ...): one fancy gather instead of 2-index arithmetic per call
    cell_src: np.ndarray     # (E,) == src * num_relations + rel
    cell_dst: np.ndarray     # (E,) == dst * num_relations + rel
    #: memoized sparse scatter matrix for the message aggregation (a
    #: one-element list so the frozen dataclass can fill it in later)
    _matrix: list = field(default_factory=list, compare=False, repr=False)
    #: memoized parts of this graph's one-graph pack (see
    #: :func:`repro.gnn.packing.merge_layouts`), kept here rather than in
    #: the packed-layout LRU
    _solo_pack: list = field(default_factory=list, compare=False, repr=False)
    #: guards ``_matrix`` and ``_solo_pack`` — layouts are shared across
    #: serving workers
    _matrix_lock: threading.Lock = field(default_factory=threading.Lock,
                                         compare=False, repr=False)

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    @classmethod
    def build(cls, edge_index: np.ndarray, edge_type: Optional[np.ndarray],
              num_nodes: int, num_relations: int) -> "RelationalEdgeLayout":
        """Validate the arrays and build the sorted layout (no caching)."""
        edge_index = validate_edge_index(edge_index, num_nodes)
        num_edges = edge_index.shape[1]
        if edge_type is None:
            edge_type = np.zeros(num_edges, dtype=np.int64)
        else:
            edge_type = np.asarray(edge_type, dtype=np.int64)
        if edge_type.shape != (num_edges,):
            raise ValueError("edge_type must have one entry per edge")
        if edge_type.size and (edge_type.min() < 0 or edge_type.max() >= num_relations):
            raise ValueError("edge_type outside [0, num_relations)")
        perm = np.argsort(edge_type, kind="stable")
        rel = edge_type[perm]
        counts = np.bincount(rel, minlength=num_relations)
        offsets = np.zeros(num_relations + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        dst = edge_index[1, perm]
        dst_order = np.argsort(dst, kind="stable")
        dst_sorted = dst[dst_order]
        if dst_sorted.size:
            dst_starts = np.concatenate(
                [[0], np.flatnonzero(np.diff(dst_sorted)) + 1])
            dst_unique = dst_sorted[dst_starts]
        else:
            dst_starts = np.zeros(0, dtype=np.int64)
            dst_unique = np.zeros(0, dtype=np.int64)
        src = edge_index[0, perm]
        layout = cls(
            num_nodes=int(num_nodes),
            num_relations=int(num_relations),
            perm=perm,
            src=src,
            dst=dst,
            rel=rel,
            offsets=offsets,
            dst_order=dst_order,
            dst_starts=dst_starts,
            dst_unique=dst_unique,
            cell_src=src * num_relations + rel,
            cell_dst=dst * num_relations + rel,
        )
        for array in (layout.perm, layout.src, layout.dst, layout.rel,
                      layout.offsets, layout.dst_order, layout.dst_starts,
                      layout.dst_unique, layout.cell_src, layout.cell_dst):
            array.setflags(write=False)
        return layout

    # ------------------------------------------------------------------ #
    def sort(self, per_edge: np.ndarray, dtype=None) -> np.ndarray:
        """Reorder a per-edge array (e.g. edge weights) into layout order."""
        per_edge = np.asarray(per_edge)
        if per_edge.shape[:1] != (self.num_edges,):
            raise ValueError("per-edge array must have one entry per edge")
        ordered = per_edge[self.perm]
        return ordered if dtype is None else ordered.astype(dtype, copy=False)

    def blocks(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(relation, start, stop)`` for every non-empty relation."""
        for relation in range(self.num_relations):
            start, stop = int(self.offsets[relation]), int(self.offsets[relation + 1])
            if start != stop:
                yield relation, start, stop

    def segment_reduce(self, values: np.ndarray, op: str = "sum",
                       fill: float = 0.0) -> np.ndarray:
        """Reduce per-edge *values* per destination node via ``reduceat``.

        ``values`` is ``(E, ...)`` in layout order; the result is
        ``(num_nodes, ...)`` with *fill* for edge-less nodes.  Within a
        destination the reduction runs in layout (relation-major) order, so
        sums are bit-identical to a sequential ``np.add.at``.
        """
        ufunc = {"sum": np.add, "max": np.maximum}[op]
        out = np.full((self.num_nodes,) + values.shape[1:], fill,
                      dtype=values.dtype)
        if self.dst_starts.size:
            out[self.dst_unique] = ufunc.reduceat(
                values[self.dst_order], self.dst_starts, axis=0)
        return out

    def scatter_sum(self, messages: np.ndarray) -> np.ndarray:
        """Sum per-edge *messages* ``(E, D)``, in layout order, per node.

        One product with the memoized float64 sparse scatter matrix, or
        ``np.add.at`` when scipy is unavailable.  Both add each node's
        messages one at a time in layout order, starting from zero, so a
        merged block-diagonal layout sums every graph's nodes bit for bit as
        that graph's own layout does.
        """
        memo = self._matrix
        if not memo:                 # lock-free fast path (GIL-atomic read)
            with self._matrix_lock:
                if not memo:
                    memo.append(_build_scatter_matrix(self.dst, self.num_nodes,
                                                      np.float64))
        matrix = memo[0]
        if matrix is None:
            out = np.zeros((self.num_nodes,) + messages.shape[1:],
                           dtype=messages.dtype)
            np.add.at(out, self.dst, messages)
            return out
        return np.asarray(matrix @ messages)


class CacheInfo(NamedTuple):
    """Hit/miss/eviction statistics of an :class:`EdgeLayoutCache`.

    ``evictions`` is appended with a default so the tuple stays
    positionally compatible with its pre-observability four-field shape.
    """

    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int = 0


class EdgeLayoutCache:
    """Content-addressed LRU cache of :class:`RelationalEdgeLayout` objects.

    Keys are digests of the raw ``edge_index`` / ``edge_type`` bytes plus the
    node/relation counts, so the cache works across distinct array or batch
    objects carrying the same graph (hashing ~3k edges costs microseconds;
    the sort + validation it saves costs much more, three layers per forward).

    Thread-safe: lookup, insertion, eviction and the hit/miss counters are
    lock-protected, so one cache instance (including the process-wide
    default) is shared by every serving worker.  Layout construction itself
    runs outside the lock; concurrent misses on the same graph build
    duplicate layouts and the first insert wins, keeping "same content →
    same object" true for later callers.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = max(int(capacity), 0)
        self._entries: "OrderedDict[bytes, RelationalEdgeLayout]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(edge_index: np.ndarray, edge_type: Optional[np.ndarray],
             num_nodes: int, num_relations: int) -> bytes:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(edge_index, dtype=np.int64).tobytes())
        digest.update(b"|")
        if edge_type is not None:
            digest.update(np.ascontiguousarray(edge_type, dtype=np.int64).tobytes())
        digest.update(f"|{int(num_nodes)}|{int(num_relations)}".encode())
        return digest.digest()

    def get(self, edge_index: np.ndarray, edge_type: Optional[np.ndarray],
            num_nodes: int, num_relations: int) -> RelationalEdgeLayout:
        key = self._key(edge_index, edge_type, num_nodes, num_relations)
        return self.get_keyed(key, edge_index, edge_type, num_nodes,
                              num_relations)

    def get_keyed(self, key: bytes, edge_index: np.ndarray,
                  edge_type: Optional[np.ndarray], num_nodes: int,
                  num_relations: int) -> RelationalEdgeLayout:
        """Lookup with a precomputed :func:`layout_content_key` digest.

        Callers that need the digest anyway (the packed-layout keyspace
        composes per-graph keys) hash the edge arrays once instead of twice.
        """
        with self._lock:
            layout = self._entries.get(key)
            if layout is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return layout
            self.misses += 1
        layout = RelationalEdgeLayout.build(edge_index, edge_type,
                                            num_nodes, num_relations)
        if self.capacity:
            with self._lock:
                existing = self._entries.get(key)
                if existing is not None:
                    self._entries.move_to_end(key)
                    return existing
                self._entries[key] = layout
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return layout

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> CacheInfo:
        """A coherent snapshot of the counters and size (taken under the lock)."""
        with self._lock:
            return CacheInfo(hits=self.hits, misses=self.misses,
                             size=len(self._entries), capacity=self.capacity,
                             evictions=self.evictions)


#: process-wide default cache; sized for a serving tier's working set of
#: distinct (batched) graphs — alongside the Session's construction cache.
_GLOBAL_CACHE = EdgeLayoutCache(capacity=128)


def get_edge_layout(edge_index: np.ndarray, edge_type: Optional[np.ndarray],
                    num_nodes: int, num_relations: int,
                    cache: Optional[EdgeLayoutCache] = None,
                    key: Optional[bytes] = None) -> RelationalEdgeLayout:
    """Fetch (or build) the layout for a graph through an LRU cache.

    *key*, when given, must be the graph's :func:`layout_content_key` — it
    skips re-hashing the edge arrays for callers that computed it already.
    """
    cache = _GLOBAL_CACHE if cache is None else cache
    if key is not None:
        return cache.get_keyed(key, edge_index, edge_type, num_nodes,
                               num_relations)
    return cache.get(edge_index, edge_type, num_nodes, num_relations)


def edge_layout_cache_info() -> CacheInfo:
    """Hit/miss statistics of the process-wide layout cache."""
    return _GLOBAL_CACHE.info()


def layout_content_key(edge_index: np.ndarray, edge_type: Optional[np.ndarray],
                       num_nodes: int, num_relations: int) -> bytes:
    """The content digest one graph's layout is cached under.

    Exposed so other cache keyspaces (e.g. the packed-layout cache in
    :mod:`repro.gnn.packing`) can compose per-graph identities without
    re-deriving the hashing scheme — two graphs share a key exactly when
    they would share a cached layout.
    """
    return EdgeLayoutCache._key(edge_index, edge_type, num_nodes, num_relations)
