"""Functional building blocks on top of the autograd :class:`Tensor`.

Higher-level differentiable operations used by the layers and the GNN
convolutions: activations, softmax, dropout, segment (per-group) softmax for
graph attention, and global pooling helpers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU used by the attention logits in (R)GAT."""
    return x.leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along *axis*."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: identity at evaluation time."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)


def segment_softmax(logits: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of *logits* normalized within each segment.

    Used for graph attention: ``segment_ids`` is the destination node of each
    edge and the attention coefficients of all edges entering the same node
    sum to one.  ``logits`` may be (E,) or (E, H) for multi-head attention;
    normalization is independent per head.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    data = logits.data
    squeeze = False
    if data.ndim == 1:
        data = data[:, None]
        logits = logits.reshape(-1, 1)
        squeeze = True
    # subtract the per-segment max for numerical stability (constant wrt grad)
    seg_max = np.full((num_segments, data.shape[1]), -np.inf, dtype=data.dtype)
    np.maximum.at(seg_max, segment_ids, data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = logits - Tensor(seg_max[segment_ids], dtype=data.dtype)
    exp = shifted.exp()
    denom = exp.scatter_add(segment_ids, num_segments)
    # avoid division by zero for segments with no incoming edges
    denom = denom + Tensor(np.full(denom.shape, 1e-16), dtype=data.dtype)
    out = exp / denom.index_select(segment_ids)
    if squeeze:
        out = out.reshape(-1)
    return out


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of *values* per segment (thin wrapper over ``scatter_add``)."""
    return values.scatter_add(segment_ids, num_segments)


def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Average rows of *values* per segment; empty segments yield zeros."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    totals = values.scatter_add(segment_ids, num_segments)
    counts = np.zeros((num_segments,) + (1,) * (values.data.ndim - 1),
                      dtype=values.data.dtype)
    np.add.at(counts, segment_ids, 1.0)
    counts = np.maximum(counts, 1.0)
    return totals * Tensor(1.0 / counts, dtype=values.data.dtype)


def segment_matmul(x: Tensor, weight: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment matrix multiplication over contiguous row blocks.

    ``out[offsets[r] : offsets[r + 1]] = x[offsets[r] : offsets[r + 1]] @
    weight[r]`` — the core of the vectorized relational GNN kernels: with
    edges sorted by relation (see :class:`repro.gnn.edge_layout.
    RelationalEdgeLayout`) the gathered source/destination rows of every
    relation form one contiguous block, so each relation costs a single BLAS
    call over exactly its own edges instead of a projection of *all* nodes.

    Parameters
    ----------
    x:
        ``(E, F)`` stacked per-segment rows.
    weight:
        ``(R, F, O)`` one projection matrix per segment.
    offsets:
        ``(R + 1,)`` monotone row offsets with ``offsets[0] == 0`` and
        ``offsets[-1] == E``; empty segments are skipped.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    num_segments = weight.data.shape[0]
    if offsets.shape != (num_segments + 1,):
        raise ValueError(f"offsets must have shape ({num_segments + 1},), "
                         f"got {offsets.shape}")
    if offsets[0] != 0 or offsets[-1] != x.data.shape[0] or np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be monotone from 0 to x.shape[0]")
    out_dtype = np.result_type(x.data, weight.data)
    data = np.zeros((x.data.shape[0], weight.data.shape[2]), dtype=out_dtype)
    for r in range(num_segments):
        lo, hi = offsets[r], offsets[r + 1]
        if lo == hi:
            continue
        np.matmul(x.data[lo:hi], weight.data[r], out=data[lo:hi])
    out = x._make(data, (x, weight), "segment_matmul")

    def _backward() -> None:
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            for r in range(num_segments):
                lo, hi = offsets[r], offsets[r + 1]
                if lo == hi:
                    continue
                np.add(x.grad[lo:hi], out.grad[lo:hi] @ weight.data[r].T,
                       out=x.grad[lo:hi])
        if weight.requires_grad:
            if weight.grad is None:
                weight.grad = np.zeros_like(weight.data)
            for r in range(num_segments):
                lo, hi = offsets[r], offsets[r + 1]
                if lo == hi:
                    continue
                np.add(weight.grad[r], x.data[lo:hi].T @ out.grad[lo:hi],
                       out=weight.grad[r])

    out._backward = _backward
    return out


def packed_segment_matmul_data(x: np.ndarray, rows: np.ndarray,
                               weight: np.ndarray, chunks,
                               out: np.ndarray) -> np.ndarray:
    """Raw-array per-chunk segment matmul for packed block-diagonal batches.

    For every ``(relation, lo, hi)`` chunk, projects the gathered rows
    ``x[rows[lo:hi]]`` with ``weight[relation]`` into ``out[lo:hi]``.  Each
    chunk is one (graph, relation) run of a merged
    :class:`~repro.gnn.packing.PackedLayout`, so every GEMM sees exactly the
    row count the corresponding per-graph forward would use — BLAS kernels
    are not bit-stable across row counts, and the packed path's bit-identity
    contract depends on keeping those shapes.  Inference-only: no autodiff.
    """
    for relation, lo, hi in chunks:
        np.matmul(x[rows[lo:hi]], weight[relation], out=out[lo:hi])
    return out


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - target
    return (diff * diff).mean()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    return (prediction - target).abs().mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber (smooth-L1) loss, useful for heavy-tailed runtime targets."""
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = diff * diff * 0.5
    linear = abs_diff * delta - 0.5 * delta * delta
    mask = (abs_diff.data <= delta).astype(np.float64)
    combined = quadratic * Tensor(mask) + linear * Tensor(1.0 - mask)
    return combined.mean()
