"""Seeded fault injection for the serving + store stack.

The production code is threaded with named **hook points**::

    payload = fault_point("store.read", payload)

With no injector active (the default, and the only mode outside tests)
``fault_point`` is a single global read returning *payload* unchanged.
Inside an :func:`inject_faults` scope, each call consults the active
:class:`FaultInjector`: per (site, kind) a seeded rng stream decides
whether the fault fires, so a chaos run replays by seed — the same seed
produces the same fault decisions at the same call indices.

Fault *kinds* live in a string-keyed registry (the same
:class:`~repro.api.registries.Registry` mechanism as ``register_conv`` /
``register_checker``; extend with :func:`register_fault`):

* ``raise`` — raise :class:`~repro.reliability.errors.TransientFaultError`
  (the retry layer classifies it as retryable),
* ``delay`` — sleep ``delay_s`` (exercises deadlines and drain timeouts),
* ``corrupt-payload`` — return a corrupted copy of the payload (bytes get
  a flipped byte, arrays a perturbed element).

Not every kind is legal at every site: ``corrupt-payload`` is only allowed
where an integrity check sits downstream (the store's checksummed
payloads) — corrupting a payload nothing re-verifies would *create* the
silent-corruption failure mode this subsystem exists to exclude.
:data:`SITES` is the capability table;
:class:`FaultPlan` validates against it at construction time.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..api.registries import Registry
from .errors import TransientFaultError

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "SITES",
    "SITE_FORWARD",
    "SITE_STORE_READ",
    "SITE_STORE_WRITE",
    "SITE_SUBMIT",
    "SITE_WORKER",
    "active_injector",
    "fault_kind_registry",
    "fault_point",
    "inject_faults",
    "register_fault",
]

# ------------------------------------------------------------------ #
# hook-point sites and their legal fault kinds
# ------------------------------------------------------------------ #
SITE_SUBMIT = "serve.submit"          # request admission (caller's thread)
SITE_WORKER = "serve.worker"          # a leader, before it executes a batch
SITE_FORWARD = "engine.forward"       # the batched GNN forward
SITE_STORE_READ = "store.read"        # artifact payload read
SITE_STORE_WRITE = "store.write"      # artifact payload write

#: site → fault kinds that may legally fire there (see module docstring).
SITES: Dict[str, Tuple[str, ...]] = {
    SITE_SUBMIT: ("raise", "delay"),
    SITE_WORKER: ("raise", "delay"),
    SITE_FORWARD: ("raise", "delay"),
    SITE_STORE_READ: ("raise", "delay", "corrupt-payload"),
    SITE_STORE_WRITE: ("raise", "delay", "corrupt-payload"),
}


# ------------------------------------------------------------------ #
# fault kinds (string-keyed registry, extension point)
# ------------------------------------------------------------------ #
#: fault behaviours keyed by kind; a fault is ``fn(spec, rng, payload) ->
#: payload`` and may raise or block instead of returning.
fault_kind_registry = Registry("fault kind")
register_fault = fault_kind_registry.register


@register_fault("raise")
def _raise_fault(spec: "FaultSpec", rng: np.random.Generator, payload):
    raise TransientFaultError(
        f"injected fault at {spec.site!r} (seeded chaos, probability "
        f"{spec.probability:g})")


@register_fault("delay")
def _delay_fault(spec: "FaultSpec", rng: np.random.Generator, payload):
    time.sleep(spec.delay_s)
    return payload


@register_fault("corrupt-payload")
def _corrupt_fault(spec: "FaultSpec", rng: np.random.Generator, payload):
    if payload is None:
        return None
    if isinstance(payload, (bytes, bytearray)):
        if not len(payload):
            return payload
        corrupted = bytearray(payload)
        corrupted[int(rng.integers(0, len(corrupted)))] ^= 0xFF
        return bytes(corrupted)
    if isinstance(payload, np.ndarray):
        if not payload.size:
            return payload
        corrupted = payload.copy()
        flat = corrupted.reshape(-1)
        index = int(rng.integers(0, flat.size))
        if np.issubdtype(flat.dtype, np.inexact):
            flat[index] = np.nan
        else:
            flat[index] = ~flat[index] if np.issubdtype(flat.dtype, np.integer) \
                else flat[index]
        return corrupted
    raise TypeError(
        f"corrupt-payload fault at {spec.site!r} got an uncorruptible "
        f"payload of type {type(payload).__name__}")


# ------------------------------------------------------------------ #
# fault plans
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where, what, how often.

    Parameters
    ----------
    site:
        Hook-point name (a :data:`SITES` key).
    kind:
        Registered fault kind (``raise`` / ``delay`` / ``corrupt-payload``).
    probability:
        Per-call firing probability in ``[0, 1]``, drawn from the spec's
        own seeded rng stream.
    delay_s:
        Sleep duration for ``delay`` faults.
    max_fires:
        Optional cap on total fires (e.g. "fail the first two forwards,
        then heal" — the canonical transient-fault shape).
    """

    site: str
    kind: str
    probability: float
    delay_s: float = 0.002
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{sorted(SITES)}")
        if self.kind not in fault_kind_registry:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; registered kinds: "
                f"{fault_kind_registry.keys()}")
        if self.kind not in SITES[self.site]:
            raise ValueError(
                f"fault kind {self.kind!r} is not allowed at site "
                f"{self.site!r} (allowed: {SITES[self.site]}); see the "
                "capability table in repro.reliability.faults")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be >= 1 (or None)")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs it drives.

    Every spec gets its own rng stream derived from ``(seed, site, kind)``,
    so the decision sequence at each hook point is a pure function of the
    seed and that site's call order — chaos failures replay by seed.
    """

    seed: int
    specs: Tuple[FaultSpec, ...] = ()

    def __init__(self, seed: int, specs: Sequence[FaultSpec] = ()) -> None:
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "specs", tuple(specs))


class FaultInjector:
    """The live state of one chaos scope: rng streams + fire accounting.

    Thread-safe: every serving thread hits the same injector
    concurrently, so the rng draws and counters mutate under one lock.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._by_site: Dict[str, list] = {}
        self._fired: Dict[Tuple[str, str], int] = {}
        for spec in plan.specs:
            stream = np.random.default_rng(
                [plan.seed & 0x7FFFFFFF,
                 zlib.crc32(spec.site.encode("utf-8")),
                 zlib.crc32(spec.kind.encode("utf-8"))])
            self._by_site.setdefault(spec.site, []).append((spec, stream))

    # -------------------------------------------------------------- #
    def fired(self, site: Optional[str] = None) -> int:
        """Total fault fires (optionally of one site)."""
        with self._lock:
            return sum(count for (fire_site, _), count in self._fired.items()
                       if site is None or fire_site == site)

    def fire_counts(self) -> Dict[Tuple[str, str], int]:
        """``{(site, kind): fires}`` accounting snapshot."""
        with self._lock:
            return dict(self._fired)

    # -------------------------------------------------------------- #
    def apply(self, site: str, payload):
        """Run *site*'s due faults against *payload* (may raise / sleep)."""
        due = []
        with self._lock:
            for spec, stream in self._by_site.get(site, ()):
                key = (spec.site, spec.kind)
                if spec.max_fires is not None and \
                        self._fired.get(key, 0) >= spec.max_fires:
                    continue
                if stream.random() < spec.probability:
                    self._fired[key] = self._fired.get(key, 0) + 1
                    due.append((spec, stream))
        # execute outside the lock: delay faults must not serialize every
        # other thread's fault decisions behind one sleep
        for spec, stream in due:
            payload = fault_kind_registry.get(spec.kind)(spec, stream, payload)
        return payload


#: the active injector; ``None`` (the default) makes fault_point a no-op.
_ACTIVE: Optional[FaultInjector] = None
_ACTIVATION_LOCK = threading.Lock()


def active_injector() -> Optional[FaultInjector]:
    """The currently-active :class:`FaultInjector`, or ``None``.

    Read-only introspection for observability surfaces (``repro.obs``
    snapshots report whether a chaos experiment is live and its fire
    accounting); activation still goes through :func:`inject_faults`.
    """
    return _ACTIVE


def fault_point(site: str, payload=None):
    """Hook point: apply the active injector's faults at *site*.

    The clean-path contract: with no injector active this is one global
    read and a return — cheap enough to sit on the serving hot path
    (``benchmarks/test_serve_throughput.py`` guards the overhead).
    """
    injector = _ACTIVE
    if injector is None:
        return payload
    return injector.apply(site, payload)


@contextmanager
def inject_faults(plan_or_injector) -> Iterator[FaultInjector]:
    """Activate fault injection for the duration of the ``with`` block.

    Takes a :class:`FaultPlan` (an injector is built for it) or a prebuilt
    :class:`FaultInjector`; yields the injector so callers can assert on
    its fire accounting.  Scopes do not nest — chaos experiments must be
    explicit about which plan is live.
    """
    global _ACTIVE
    injector = plan_or_injector if isinstance(plan_or_injector, FaultInjector) \
        else FaultInjector(plan_or_injector)
    with _ACTIVATION_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError(
                "a FaultInjector is already active; fault scopes do not nest")
        _ACTIVE = injector
    try:
        yield injector
    finally:
        with _ACTIVATION_LOCK:
            _ACTIVE = None
