"""A small reverse-mode automatic-differentiation engine on NumPy arrays.

The original ParaGraph model is implemented with PyTorch / PyTorch-Geometric,
which are not available offline.  This module provides the subset of a tensor
library that the reproduction needs:

* :class:`Tensor` — wraps a ``numpy.ndarray``, records the operations applied
  to it and can back-propagate gradients through them,
* elementwise arithmetic with full broadcasting support,
* matrix multiplication (with batched/broadcast operands, which is what the
  stacked per-relation GNN projections ride on), reductions, reshaping,
  concatenation,
* the gather / scatter-add primitives required by message-passing GNNs,
* an **inference fast path**: inside :func:`no_grad` no operation records a
  backward closure or keeps references to its inputs, so a forward pass
  allocates only its output arrays.

Tensors default to float64 — training and serving share one precision, so
served predictions are bit-identical to training-time evaluation; an
explicit ``dtype=`` is honoured and preserved by every op.

The engine is eager, and the hot paths are tuned: the backward pass orders
the graph with an iterative topological sort (no recursion limit on deep
graphs), gradients accumulate into preallocated buffers in place, and the
gather/scatter primitives write straight into their destination buffers
instead of materialising intermediate copies.

The no-grad flag is **context-local** (a :mod:`contextvars` variable):
``no_grad`` scopes to the current thread/task, so any number of serving
threads can run concurrent forwards while a training loop keeps recording
gradients on another thread (on its own model: weights of a model being
actively optimized are not a stable snapshot to serve from).  The
process-wide caches (the scatter matrices below) are lock-protected.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextvars import ContextVar
from typing import (Callable, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

try:                                    # scipy is optional: scatter_add falls
    from scipy import sparse as _sparse  # back to np.add.at without it
except ImportError:                     # pragma: no cover - env without scipy
    _sparse = None

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]


# --------------------------------------------------------------------- #
# engine state: gradient recording (context-local)
# --------------------------------------------------------------------- #
#: ``True`` while a :class:`no_grad` block is active in the *current*
#: context — ops then skip closure/graph recording.  Context-local: a newly
#: started thread begins from the default, so other threads keep recording.
_INFERENCE: "ContextVar[bool]" = ContextVar("repro_nn_inference", default=False)


def is_grad_enabled() -> bool:
    """Whether operations record backward closures in the current context."""
    return not _INFERENCE.get()


def is_inference() -> bool:
    """Whether the current context is on the no-grad inference fast path."""
    return _INFERENCE.get()


class no_grad:
    """Context manager disabling autodiff recording (the inference fast path).

    Inside the block every operation skips closure/graph recording: outputs
    carry ``requires_grad=False``, keep no references to their inputs, and
    ``backward()`` on them is a no-op.  Nesting is supported, and the flag
    is context-local — other threads keep recording gradients.
    """

    def __init__(self) -> None:
        self._stacks = threading.local()

    def __enter__(self) -> "no_grad":
        stack = getattr(self._stacks, "tokens", None)
        if stack is None:
            stack = self._stacks.tokens = []
        stack.append(_INFERENCE.set(True))
        return self

    def __exit__(self, *exc) -> None:
        _INFERENCE.reset(self._stacks.tokens.pop())


def _noop() -> None:
    return None


# --------------------------------------------------------------------- #
# cached scatter matrices: segment-sum as a sparse matmul
# --------------------------------------------------------------------- #
#: LRU of CSR matrices mapping per-row indices to segment sums.  ``np.add.at``
#: is unbuffered and an order of magnitude slower than a sparse matmul for the
#: (edges × features) messages the GNN aggregates; the matrix for a given
#: index vector is built once and reused across layers/epochs/predictions.
#: Shared across serving workers, so every access holds the lock.
_SCATTER_MATRIX_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_SCATTER_MATRIX_CAPACITY = 64
_SCATTER_MATRIX_LOCK = threading.Lock()
# hit/miss/eviction accounting (mutated under the lock) — surfaced by
# scatter_matrix_cache_info() and the repro.obs snapshot document
_SCATTER_MATRIX_STATS = {"hits": 0, "misses": 0, "evictions": 0}


class ScatterMatrixCacheInfo(NamedTuple):
    """Hit/miss/eviction statistics of the scatter-matrix LRU."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int


def scatter_matrix_cache_info() -> ScatterMatrixCacheInfo:
    """A coherent snapshot of the process-wide scatter-matrix cache."""
    with _SCATTER_MATRIX_LOCK:
        return ScatterMatrixCacheInfo(
            hits=_SCATTER_MATRIX_STATS["hits"],
            misses=_SCATTER_MATRIX_STATS["misses"],
            evictions=_SCATTER_MATRIX_STATS["evictions"],
            size=len(_SCATTER_MATRIX_CACHE),
            capacity=_SCATTER_MATRIX_CAPACITY)

#: minimum number of scattered elements before the sparse-matmul path kicks
#: in — below this np.add.at wins because the matmul setup dominates.
_SCATTER_MATMUL_THRESHOLD = 16384


def scatter_matrix(indices: np.ndarray, num_segments: int, dtype) -> Optional[object]:
    """A cached ``(num_segments, len(indices))`` CSR summation matrix.

    ``scatter_matrix(i, S, d) @ values`` equals ``np.add.at``-style segment
    summation of ``values`` (2-D, one row per index).  Returns ``None`` when
    scipy is unavailable.  Keys are content digests, so equal index vectors
    share one matrix regardless of array identity.
    """
    if _sparse is None:
        return None
    dtype = np.dtype(dtype)
    digest = hashlib.blake2b(np.ascontiguousarray(indices, dtype=np.int64).tobytes(),
                             digest_size=16).digest()
    key = (digest, int(num_segments), dtype.str)
    with _SCATTER_MATRIX_LOCK:
        matrix = _SCATTER_MATRIX_CACHE.get(key)
        if matrix is not None:
            _SCATTER_MATRIX_CACHE.move_to_end(key)
            _SCATTER_MATRIX_STATS["hits"] += 1
            return matrix
        _SCATTER_MATRIX_STATS["misses"] += 1
    # build outside the lock: concurrent misses duplicate the (idempotent)
    # construction instead of serialising every worker behind one builder
    num_rows = int(indices.shape[0])
    matrix = _sparse.csr_matrix(
        (np.ones(num_rows, dtype=dtype), (indices, np.arange(num_rows))),
        shape=(int(num_segments), num_rows))
    with _SCATTER_MATRIX_LOCK:
        existing = _SCATTER_MATRIX_CACHE.get(key)
        if existing is not None:
            _SCATTER_MATRIX_CACHE.move_to_end(key)
            return existing
        _SCATTER_MATRIX_CACHE[key] = matrix
        while len(_SCATTER_MATRIX_CACHE) > _SCATTER_MATRIX_CAPACITY:
            _SCATTER_MATRIX_CACHE.popitem(last=False)
            _SCATTER_MATRIX_STATS["evictions"] += 1
    return matrix


def segment_sum_data(values: np.ndarray, indices: np.ndarray,
                     num_segments: int) -> np.ndarray:
    """Segment-sum a plain array: ``out[k] = sum_{i: indices[i]==k} values[i]``.

    Uses the cached sparse matmul for large inputs and ``np.add.at`` for
    small ones (or when scipy is missing).
    """
    out_shape = (int(num_segments),) + values.shape[1:]
    if values.size >= _SCATTER_MATMUL_THRESHOLD and values.ndim >= 2 and values.shape[0]:
        matrix = scatter_matrix(indices, num_segments, values.dtype)
        if matrix is not None:
            flat = values.reshape(values.shape[0], -1)
            return np.asarray(matrix @ flat).reshape(out_shape)
    out = np.zeros(out_shape, dtype=values.dtype)
    np.add.at(out, indices, values)
    return out


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* so it matches *shape* (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # sum over leading broadcast dimensions
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were broadcast from size 1
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable NumPy array."""

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_prev", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _children: Tuple["Tensor", ...] = (),
        _op: str = "",
        dtype=None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype or np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward_fn: Callable[[], None] = _noop
        self._prev: Tuple[Tensor, ...] = _children
        self._op = _op

    @property
    def _backward(self) -> Callable[[], None]:
        return self._backward_fn

    @_backward.setter
    def _backward(self, fn: Callable[[], None]) -> None:
        # ops assign their backward closure unconditionally; recording is
        # decided here, so non-recording tensors (inference mode / constant
        # subgraphs) never keep a closure — and therefore no reference to
        # their inputs — alive
        if self._prev:
            self._backward_fn = fn

    # ------------------------------------------------------------------ #
    # basics
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size else 0.0

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        # grads accumulate into one preallocated buffer (no copy per op);
        # callers pass grads broadcastable to self.shape
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        np.add(self.grad, grad, out=self.grad)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op!r})"

    # ------------------------------------------------------------------ #
    # autograd
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (defaults to d(self)/d(self)=1)."""
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
        # iterative topological sort over the recorded graph — deep chains
        # (long training graphs) must not hit the Python recursion limit
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self._accumulate(grad)
        for node in reversed(topo):
            node._backward()

    @staticmethod
    def _wrap(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, children: Tuple["Tensor", ...], op: str) -> "Tensor":
        if _INFERENCE.get():
            return Tensor(data, dtype=data.dtype)
        requires = any(c.requires_grad for c in children)
        return Tensor(data, requires_grad=requires, _children=children if requires else (),
                      _op=op, dtype=data.dtype)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out = self._make(self.data + other.data, (self, other), "add")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        out._backward = _backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out = self._make(self.data * other.data, (self, other), "mul")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out._backward = _backward
        return out

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) + (-self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return self * self._wrap(other).pow(-1.0)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) * self.pow(-1.0)

    __radd__ = __add__
    __rmul__ = __mul__

    def pow(self, exponent: float) -> "Tensor":
        out = self._make(np.power(self.data, exponent), (self,), "pow")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * np.power(self.data, exponent - 1))

        out._backward = _backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out = self._make(self.data @ other.data, (self, other), "matmul")

        def _backward() -> None:
            if self.requires_grad:
                grad = out.grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                grad = np.swapaxes(self.data, -1, -2) @ out.grad
                other._accumulate(_unbroadcast(grad, other.shape))

        out._backward = _backward
        return out

    def matmul(self, other: ArrayLike) -> "Tensor":
        return self @ other

    # ------------------------------------------------------------------ #
    # elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out = self._make(np.exp(self.data), (self,), "exp")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data)

        out._backward = _backward
        return out

    def log(self, eps: float = 1e-12) -> "Tensor":
        out = self._make(np.log(self.data + eps), (self,), "log")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / (self.data + eps))

        out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = self._make(np.maximum(self.data, 0.0), (self,), "relu")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (self.data > 0))

        out._backward = _backward
        return out

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        out = self._make(
            np.where(self.data > 0, self.data, negative_slope * self.data),
            (self,), "leaky_relu",
        )

        def _backward() -> None:
            if self.requires_grad:
                factor = np.where(self.data > 0, 1.0, negative_slope)
                self._accumulate(out.grad * factor)

        out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))
        out = self._make(value, (self,), "sigmoid")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data * (1.0 - out.data))

        out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make(value, (self,), "tanh")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data ** 2))

        out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), (self,), "abs")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * np.sign(self.data))

        out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        out = self._make(np.clip(self.data, low, high), (self,), "clip")

        def _backward() -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self._accumulate(out.grad * inside)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            # np.add broadcasts the view into the buffer — no materialised copy
            self._accumulate(np.broadcast_to(grad, self.shape))

        out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        denom = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.max(axis=axis, keepdims=keepdims), (self,), "max")

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            value = out.data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                value = np.expand_dims(value, axis)
            mask = (self.data == value)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(grad * mask / np.maximum(counts, 1))

        out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,), "reshape")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        out._backward = _backward
        return out

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out = self._make(np.transpose(self.data, axes), (self,), "transpose")

        def _backward() -> None:
            if self.requires_grad:
                if axes is None:
                    self._accumulate(np.transpose(out.grad))
                else:
                    inverse = np.argsort(axes)
                    self._accumulate(np.transpose(out.grad, inverse))

        out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,), "getitem")

        def _backward() -> None:
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                # scatter straight into the accumulation buffer
                np.add.at(self.grad, index, out.grad)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # graph primitives
    # ------------------------------------------------------------------ #
    def index_select(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (first axis) at integer *indices* (differentiable)."""
        indices = np.asarray(indices, dtype=np.int64)
        out = self._make(self.data[indices], (self,), "index_select")

        def _backward() -> None:
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                # scatter straight into the accumulation buffer
                np.add.at(self.grad, indices, out.grad)

        out._backward = _backward
        return out

    def scatter_add(self, indices: np.ndarray, num_segments: int) -> "Tensor":
        """Sum rows of ``self`` into ``num_segments`` buckets given by *indices*.

        ``out[k] = sum_{i : indices[i] == k} self[i]`` — the aggregation step
        of message passing and of global pooling.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = segment_sum_data(self.data, indices, num_segments)
        out = self._make(data, (self,), "scatter_add")

        def _backward() -> None:
            if self.requires_grad:
                if self.grad is None:
                    # fancy indexing already yields a fresh buffer we can own
                    self.grad = out.grad[indices]
                else:
                    np.add(self.grad, out.grad[indices], out=self.grad)

        out._backward = _backward
        return out


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along *axis*."""
    tensors = [Tensor._wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires,
                 _children=tuple(tensors) if requires else (), _op="concat",
                 dtype=data.dtype)

    def _backward() -> None:
        offset = 0
        for tensor in tensors:
            length = tensor.data.shape[axis]
            slicer = [slice(None)] * data.ndim
            slicer[axis] = slice(offset, offset + length)
            if tensor.requires_grad:
                tensor._accumulate(out.grad[tuple(slicer)])
            offset += length

    out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = [Tensor._wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires,
                 _children=tuple(tensors) if requires else (), _op="stack",
                 dtype=data.dtype)

    def _backward() -> None:
        grads = np.split(out.grad, len(tensors), axis=axis)
        for tensor, grad in zip(tensors, grads):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(grad, axis=axis))

    out._backward = _backward
    return out


def zeros(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: Tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
