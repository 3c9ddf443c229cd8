"""``repro.nn`` — a NumPy reverse-mode autograd neural-network substrate.

Substitute for PyTorch: tensors with automatic differentiation, standard
layers (Linear/MLP/Dropout/Embedding), MSE loss and the Adam optimizer — the
pieces the ParaGraph GNN and the COMPOFF baseline are built from.

Tensors default to float64, the one precision training and serving share.
Inference fast path: :func:`no_grad` disables closure/graph recording; the
flag is **context-local** (contextvar-backed), so concurrent serving threads
need no external lock and a training thread keeps recording gradients.
Segment reductions (``scatter_add``) route through lock-protected cached
sparse scatter matrices when scipy is present.
"""

from . import functional
from .init import kaiming_uniform, xavier_normal, xavier_uniform
from .layers import MLP, Dropout, Embedding, Linear, ReLU, Sequential
from .losses import HuberLoss, MAELoss, MSELoss
from .module import Module, Parameter
from .optim import Adam, Optimizer, SGD
from .tensor import (
    Tensor,
    concatenate,
    is_grad_enabled,
    is_inference,
    no_grad,
    ones,
    stack,
    zeros,
)

__all__ = [
    "Adam",
    "Dropout",
    "Embedding",
    "HuberLoss",
    "Linear",
    "MAELoss",
    "MLP",
    "MSELoss",
    "Module",
    "Optimizer",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Tensor",
    "concatenate",
    "functional",
    "is_grad_enabled",
    "is_inference",
    "kaiming_uniform",
    "no_grad",
    "ones",
    "stack",
    "xavier_normal",
    "xavier_uniform",
    "zeros",
]
