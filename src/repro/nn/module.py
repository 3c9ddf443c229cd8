"""Module / Parameter abstractions (the ``torch.nn.Module`` analogue).

A :class:`Module` owns :class:`Parameter` tensors, non-trainable *buffers*
(:meth:`register_buffer`) and child modules, exposes them through
:meth:`parameters` / :meth:`named_parameters` / :meth:`named_buffers`, and
supports ``train()`` / ``eval()`` mode switching plus ``state_dict``
round-trips for checkpointing.

Checkpoint semantics (what ``repro.store`` relies on):

* :meth:`state_dict` copies the stored arrays and preserves each entry's
  dtype (float64 parameters, buffers in whatever dtype they were
  registered with).
* :meth:`load_state_dict` validates instead of coercing: a checkpoint entry
  whose dtype differs from the module's is an error naming the offending
  entry (pass ``cast=True`` to convert explicitly), and non-finite values
  (NaN/Inf — the signature of a corrupted or truncated artifact) fail
  loudly before any state is mutated.

Serving reads parameters without mutating them, so any number of threads
can serve one model concurrently.  Optimizer steps reassign parameter
arrays one at a time, so training the *same* model that is being served
concurrently yields torn weight snapshots; serve from quiescent (trained)
models.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor


def _checked_buffer(name: str, value) -> np.ndarray:
    """Coerce a buffer value to a numeric/bool array, rejecting object
    dtype — pickled object arrays would save into a checkpoint cleanly but
    can never be loaded back (``np.load`` defaults to allow_pickle=False)."""
    array = np.asarray(value)
    if array.dtype == object:
        raise ValueError(
            f"buffer {name!r} would have object dtype (value {value!r}); "
            "buffers must be numeric or boolean arrays so checkpoints stay "
            "loadable")
    return array


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for every neural-network component."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------ #
    # attribute bookkeeping
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            if name in self.__dict__.get("_buffers", ()):
                raise ValueError(
                    f"{name!r} is already a buffer of this module; a name "
                    "cannot be both a buffer and a parameter")
            if name in self.__dict__.get("_modules", ()):
                raise ValueError(
                    f"{name!r} is already a child module; a name cannot be "
                    "both a child module and a parameter")
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            if name in self.__dict__.get("_buffers", ()):
                raise ValueError(
                    f"{name!r} is already a buffer of this module; a name "
                    "cannot be both a buffer and a child module")
            if name in self.__dict__.get("_parameters", ()):
                raise ValueError(
                    f"{name!r} is already a parameter of this module; a "
                    "name cannot be both a parameter and a child module")
            self.__dict__.setdefault("_modules", {})[name] = value
        elif name in self.__dict__.get("_parameters", ()):
            raise ValueError(
                f"cannot shadow parameter {name!r} with a non-Parameter "
                f"value; assign to `{name}.data` (or wrap the value in "
                "Parameter) so state_dict and the forward pass stay in sync")
        elif name in self.__dict__.get("_modules", ()):
            raise ValueError(
                f"cannot shadow child module {name!r} with a non-Module "
                "value; state_dict would keep serializing the orphaned "
                "child's parameters")
        elif name in self.__dict__.get("_buffers", ()):
            # keep a registered buffer's dict entry and attribute in sync
            self._buffers[name] = _checked_buffer(name, value)
            value = self._buffers[name]
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        # route through __setattr__ so the name-collision guards
        # (parameter/buffer shadowing) apply here too
        setattr(self, name, module)

    def register_buffer(self, name: str, value) -> None:
        """Attach a non-trainable array that travels with ``state_dict``.

        Buffers hold persistent non-parameter state (normalization
        statistics, cached integer layouts, step counters …): they are
        saved and restored by checkpointing, keep the exact dtype they
        were registered with, and are readable as ``self.<name>``.
        """
        if not name or "." in name:
            raise ValueError(
                f"invalid buffer name {name!r}: must be non-empty and must "
                "not contain '.' (dots delimit the module hierarchy in "
                "state_dict keys)")
        if name in self._parameters:
            raise ValueError(f"{name!r} is already a parameter of this module")
        if name in self._modules:
            raise ValueError(f"{name!r} is already a child module; a name "
                             "cannot be both a buffer and a child module")
        if name not in self._buffers and hasattr(self, name):
            # registering over `training`, `parameters`, `_buffers`, … would
            # shadow module machinery; re-registering a buffer is fine
            raise ValueError(
                f"cannot register buffer {name!r}: the module already has "
                "an attribute of that name")
        self._buffers[name] = _checked_buffer(name, value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # parameter access
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [parameter for _, parameter in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield (f"{prefix}{name}", buffer)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def buffers(self) -> List[np.ndarray]:
        return [buffer for _, buffer in self.named_buffers()]

    def _buffer_owners(self, prefix: str = "") -> Iterator[Tuple[str, "Module", str]]:
        """Yield ``(dotted_name, owning_module, local_name)`` per buffer."""
        for name in self._buffers:
            yield (f"{prefix}{name}", self, name)
        for name, module in self._modules.items():
            yield from module._buffer_owners(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(parameter.size for parameter in self.parameters()))

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.grad = None

    # ------------------------------------------------------------------ #
    # mode switching
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Stored parameters and buffers, each copied with its dtype intact."""
        state = {name: parameter.data.copy()
                 for name, parameter in self.named_parameters()}
        for name, buffer in self.named_buffers():
            state[name] = buffer.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], *,
                        cast: bool = False) -> None:
        """Restore parameters and buffers from a :meth:`state_dict` mapping.

        Every entry is validated *before* any state is mutated, so a bad
        checkpoint leaves the module untouched:

        * missing/unexpected names raise :class:`KeyError`,
        * shape mismatches raise :class:`ValueError` naming the entry,
        * dtype mismatches raise :class:`ValueError` naming the entry and
          both dtypes — the incoming dtype is preserved, never silently
          up-cast; pass ``cast=True`` to convert explicitly,
        * non-finite values (NaN/Inf — the signature of a corrupted or
          truncated checkpoint) raise :class:`ValueError` naming the entry.
        """
        parameters = dict(self.named_parameters())
        buffer_owners = {dotted: (owner, local)
                         for dotted, owner, local in self._buffer_owners()}
        own_dtypes = {name: parameter.data.dtype
                      for name, parameter in parameters.items()}
        own_dtypes.update((dotted, owner._buffers[local].dtype)
                          for dotted, (owner, local) in buffer_owners.items())
        missing = set(own_dtypes) - set(state)
        unexpected = set(state) - set(own_dtypes)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        prepared: Dict[str, np.ndarray] = {}
        for name, expected_dtype in own_dtypes.items():
            value = np.asarray(state[name])
            if name in parameters:
                expected_shape = parameters[name].data.shape
            else:
                owner, local = buffer_owners[name]
                expected_shape = owner._buffers[local].shape
            if value.shape != expected_shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{value.shape} vs {expected_shape}")
            if np.issubdtype(value.dtype, np.inexact) and \
                    not np.isfinite(value).all():
                raise ValueError(
                    f"state dict entry {name!r} contains non-finite values "
                    "(NaN/Inf); refusing to load a corrupted checkpoint")
            if value.dtype != expected_dtype:
                if not cast:
                    raise ValueError(
                        f"dtype mismatch for {name}: checkpoint has "
                        f"{value.dtype}, module expects {expected_dtype} "
                        "(pass cast=True to convert explicitly)")
                original = value
                with np.errstate(over="ignore"):   # overflow is detected and
                    value = value.astype(expected_dtype)   # rejected below
                if np.issubdtype(value.dtype, np.inexact) and \
                        not np.isfinite(value).all():
                    raise ValueError(
                        f"state dict entry {name!r} overflowed to "
                        f"non-finite values when cast to "
                        f"{expected_dtype}; refusing to load")
                # any cast into — or out of — an integer/bool dtype must be
                # value-preserving (no wrap, truncation or 0.7→True); only
                # in-kind float precision change is an accepted cast.  The
                # comparison runs on Python objects so exactly-invertible
                # wraps (int64 -1 ↔ uint64 max) still fail it.
                exact_kinds = "iub"
                if (value.dtype.kind in exact_kinds or
                        (original.dtype.kind in exact_kinds and
                         original.dtype.kind != value.dtype.kind)) and \
                        not np.array_equal(value.astype(object),
                                           original.astype(object)):
                    raise ValueError(
                        f"state dict entry {name!r} does not round-trip "
                        f"through {expected_dtype} (overflow, wrap or "
                        "truncation); refusing to load")
            prepared[name] = value.copy()
        for name, parameter in parameters.items():
            parameter.data = prepared[name]
        for dotted, (owner, local) in buffer_owners.items():
            owner._buffers[local] = prepared[dotted]
            object.__setattr__(owner, local, prepared[dotted])

    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
