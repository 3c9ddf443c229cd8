"""String-keyed registries for the pluggable pieces of the system.

The original code selected GNN convolutions with hard-coded ``if conv ==
"rgat"`` branches, enumerated benchmark kernels through a fixed tuple and
looked hardware platforms up in a private dict.  The three registries here
make those axes discoverable and extensible through one mechanism:

* :data:`conv_registry` — graph-convolution factories (``rgat``,
  ``rgcn``), extensible with :func:`register_conv`; a factory's conv must
  have a ``forward_packed`` inference kernel,
* :data:`kernel_registry` — the Table I benchmark kernels, extensible with
  :func:`register_kernel`,
* :data:`platform_registry` — the hardware platforms (with short aliases
  such as ``v100``), extensible with :func:`register_platform`.

Registries populate lazily on first lookup, so importing this module stays
cheap and the circular dependency between ``repro.gnn`` (which registers its
convolutions here) and the registry is resolved naturally.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Registry",
    "RegistryError",
    "conv_registry",
    "get_conv",
    "get_kernel",
    "get_platform",
    "kernel_registry",
    "platform_registry",
    "register_conv",
    "register_kernel",
    "register_platform",
    "resolve_platform",
]


class RegistryError(ValueError):
    """Raised on conflicting registrations (duplicate keys without override)."""


def _normalize(name: str) -> str:
    """Case/space/dash-insensitive lookup key (``"NVIDIA V100"`` ≡ ``"nvidia-v100"``)."""
    return name.replace(" ", "").replace("-", "").replace("_", "").lower()


class Registry:
    """A string-keyed registry with decorator registration and aliases.

    Parameters
    ----------
    kind:
        Human-readable name of what is registered (used in error messages).
    populate:
        Optional callable invoked once, lazily, before the first lookup.
        Default entries register themselves from inside it (typically by
        importing the module that carries the ``@register_*`` decorators).
    """

    def __init__(self, kind: str, populate: Optional[Callable[["Registry"], None]] = None) -> None:
        self.kind = kind
        self._entries: Dict[str, object] = {}
        self._lookup: Dict[str, str] = {}      # normalized key/alias -> canonical name
        self._populate = populate
        self._populated = populate is None

    # ------------------------------------------------------------------ #
    def _ensure_populated(self) -> None:
        if not self._populated:
            self._populated = True  # set first: populate() itself registers entries
            self._populate(self)  # type: ignore[misc]

    # ------------------------------------------------------------------ #
    def register(self, name: str, obj: object = None, *,
                 aliases: Iterable[str] = (), override: bool = False):
        """Register *obj* under *name*; usable directly or as a decorator::

            @registry.register("rgat")
            def make_rgat(...): ...
        """
        if obj is None:
            def decorator(target):
                self.register(name, target, aliases=aliases, override=override)
                return target
            return decorator
        key = _normalize(name)
        if not override and key in self._lookup:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered "
                f"(as {self._lookup[key]!r}); pass override=True to replace it")
        previous = self._lookup.get(key)
        if previous is not None and previous != name:
            # replacing under an equivalent spelling: drop the old entry and
            # every alias still pointing at it, so nothing dangles
            self._entries.pop(previous, None)
            self._lookup = {k: v for k, v in self._lookup.items() if v != previous}
        self._entries[name] = obj
        self._lookup[key] = name
        for alias in aliases:
            self.alias(alias, name, override=override)
        return obj

    def alias(self, alias: str, target: str, *, override: bool = False) -> None:
        """Make *alias* resolve to the already-registered *target* name."""
        key = _normalize(alias)
        if not override and key in self._lookup and self._lookup[key] != target:
            raise RegistryError(
                f"{self.kind} alias {alias!r} already points at {self._lookup[key]!r}")
        self._lookup[key] = target

    def unregister(self, name: str) -> None:
        """Remove an entry and every alias pointing at it (test/plugin cleanup)."""
        self._ensure_populated()
        canonical = self._lookup.get(_normalize(name))
        if canonical is None:
            return
        self._entries.pop(canonical, None)
        self._lookup = {k: v for k, v in self._lookup.items() if v != canonical}

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> object:
        """Look up an entry; raises ``KeyError`` naming the valid keys."""
        self._ensure_populated()
        canonical = self._lookup.get(_normalize(name))
        if canonical is None or canonical not in self._entries:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: {self.keys()}")
        return self._entries[canonical]

    def keys(self) -> List[str]:
        self._ensure_populated()
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, object]]:
        self._ensure_populated()
        return sorted(self._entries.items())

    def __contains__(self, name: str) -> bool:
        self._ensure_populated()
        return self._lookup.get(_normalize(name)) in self._entries

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Registry({self.kind!r}, keys={self.keys()!r})"


# --------------------------------------------------------------------- #
# default populations (lazy imports keep this module dependency-free)
# --------------------------------------------------------------------- #
def _populate_convs(registry: Registry) -> None:
    # the @register_conv decorators in repro.gnn.models run on import
    from .. import gnn  # noqa: F401


def _populate_kernels(registry: Registry) -> None:
    from ..kernels.registry import all_kernels
    for kernel in all_kernels():
        registry.register(kernel.kernel_name, kernel,
                          aliases=(f"{kernel.application}/{kernel.kernel_name}",),
                          override=True)


def _populate_platforms(registry: Registry) -> None:
    from ..hardware import specs
    aliases_by_name: Dict[str, List[str]] = {}
    for alias, full_name in specs._ALIASES.items():
        aliases_by_name.setdefault(full_name, []).append(alias)
    for spec in specs.ALL_PLATFORMS:
        registry.register(spec.name, spec,
                          aliases=aliases_by_name.get(spec.name, ()),
                          override=True)


#: Graph-convolution factories keyed by kind (``rgat`` / ``rgcn``); each
#: builds a conv with a ``forward_packed`` inference kernel.
conv_registry = Registry("convolution", populate=_populate_convs)
#: Benchmark kernels keyed by kernel name (``matmul``, ``pf_normalize``, …).
kernel_registry = Registry("kernel", populate=_populate_kernels)
#: Hardware platforms keyed by name or alias (``v100``, ``AMD MI50``, …).
platform_registry = Registry("platform", populate=_populate_platforms)

register_conv = conv_registry.register
register_kernel = kernel_registry.register
register_platform = platform_registry.register


def get_conv(name: str):
    """Factory for the convolution kind *name* (see :func:`register_conv`)."""
    return conv_registry.get(name)


def get_kernel(name: str):
    """Benchmark kernel definition for *name* (``matmul``, ``Matmul/matmul``, …)."""
    return kernel_registry.get(name)


def get_platform(name: str):
    """Hardware spec for *name* (full name or alias such as ``v100``)."""
    return platform_registry.get(name)


def resolve_platform(value):
    """Accept a :class:`~repro.hardware.specs.HardwareSpec` or a registry key."""
    from ..hardware.specs import HardwareSpec
    if isinstance(value, HardwareSpec):
        return value
    return platform_registry.get(value)
