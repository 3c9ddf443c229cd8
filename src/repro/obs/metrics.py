"""String-keyed metrics: counters, gauges and streaming-quantile histograms.

Three instrument kinds live in a string-keyed registry (the same
:class:`~repro.api.registries.Registry` mechanism as ``register_conv`` /
``register_checker`` / ``register_fault``; extend with
:func:`register_metric_kind`):

* :class:`Counter` — a monotonic count (``serve.failures``),
* :class:`Gauge` — a last-value (or running-max) sample (``serve.peak_depth``),
* :class:`Histogram` — count/sum/min/max plus a :class:`QuantileSketch`
  yielding streaming p50/p95/p99 with bounded *relative* error
  (``serve.request_latency_s``).

A :class:`MetricsRegistry` maps metric names to instruments with
get-or-create semantics; every instrument is individually lock-protected,
so every serving thread records into one registry without
external serialization.  The :class:`~repro.serve.Server` owns one
registry per instance — its ``stats()`` / ``healthz()`` surfaces are thin
views over it (see SERVING.md) — and :func:`repro.obs.snapshot` folds
registries into the unified JSON document.

**Ambient recording** mirrors :func:`~repro.reliability.faults.fault_point`'s
no-injector fast path: module-level helpers (:func:`observe`,
:func:`add_count`, :func:`set_gauge`) consult one global — ``None`` (the
default) makes them a single global read and a return, cheap enough for
any hot path.  :func:`metrics_scope` installs a registry as that sink for
a ``with`` block; scopes do not nest.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, NamedTuple, Optional

from ..api.registries import Registry

__all__ = [
    "CacheStats",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "active_metrics",
    "add_count",
    "metric_kind_registry",
    "metrics_scope",
    "observe",
    "register_metric_kind",
    "set_gauge",
]


# ------------------------------------------------------------------ #
# streaming quantiles
# ------------------------------------------------------------------ #
class QuantileSketch:
    """Geometric-bucket quantile sketch with bounded relative error.

    Values land in buckets ``gamma**i`` (DDSketch-style, ``gamma`` derived
    from *relative_accuracy*), so :meth:`quantile` answers are within
    ``relative_accuracy`` of the exact order statistic while storing only a
    dict of bucket counts — constant memory per distinct magnitude, no
    sample retention.  Observations must be non-negative (latencies,
    sizes); values below 1e-12 share one zero bucket.

    Not thread-safe on its own: :class:`Histogram` wraps it in a lock.
    """

    __slots__ = ("relative_accuracy", "_gamma", "_log_gamma", "_buckets",
                 "_zero", "count", "sum", "min", "max")

    #: values below this are indistinguishable from zero for the sketch
    _MIN_INDEXABLE = 1e-12

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = float(relative_accuracy)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if not value >= 0.0:        # catches negatives and NaN in one test
            raise ValueError(
                f"QuantileSketch observes non-negative finite values, "
                f"got {value!r}")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self._MIN_INDEXABLE:
            self._zero += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        """The streaming *q*-quantile (``nan`` with no observations)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return math.nan
        # ceil-rank (numpy's method="higher"): p95 of three samples is the
        # third, not the second — sane small-sample answers, same DDSketch
        # relative-error bound at scale
        target = math.ceil(q * (self.count - 1))
        cumulative = self._zero
        if cumulative > target:
            return 0.0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative > target:
                # the bucket's midpoint estimate; clamp into the observed
                # range so tiny-sample answers never leave [min, max]
                value = 2.0 * self._gamma ** index / (self._gamma + 1.0)
                return min(max(value, self.min), self.max)
        return self.max

    def to_dict(self) -> dict:
        empty = not self.count
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else None,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "p50": None if empty else self.quantile(0.50),
            "p95": None if empty else self.quantile(0.95),
            "p99": None if empty else self.quantile(0.99),
        }


# ------------------------------------------------------------------ #
# instruments (string-keyed kind registry, extension point)
# ------------------------------------------------------------------ #
#: instrument kinds keyed by name; a kind is a zero/kwarg-arg factory
#: returning an object with ``value()``/``to_dict()``-style accessors.
metric_kind_registry = Registry("metric kind")
register_metric_kind = metric_kind_registry.register


@register_metric_kind("counter")
class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only count up; use a Gauge instead")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def to_dict(self) -> int:
        return self.value


@register_metric_kind("gauge")
class Gauge:
    """A last-value sample (with an explicit running-max mode)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    def set_max(self, value: float) -> None:
        """Keep the largest value ever seen (peak-depth style gauges)."""
        value = float(value)
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> float:
        return self.value


@register_metric_kind("histogram")
class Histogram:
    """A lock-protected :class:`QuantileSketch` with distribution accessors."""

    kind = "histogram"

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        self._lock = threading.Lock()
        self._sketch = QuantileSketch(relative_accuracy)

    def observe(self, value: float) -> None:
        with self._lock:
            self._sketch.observe(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._sketch.count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sketch.sum

    def quantile(self, q: float) -> float:
        with self._lock:
            return self._sketch.quantile(q)

    def percentiles(self, *qs: float) -> tuple:
        """Several quantiles from one coherent snapshot of the sketch."""
        with self._lock:
            return tuple(self._sketch.quantile(q) for q in qs)

    def to_dict(self) -> dict:
        with self._lock:
            return self._sketch.to_dict()


# ------------------------------------------------------------------ #
# the registry
# ------------------------------------------------------------------ #
class MetricsRegistry:
    """Thread-safe mapping of metric names to instruments.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` get-or-create;
    asking for an existing name under a different kind raises, so one
    namespace cannot silently hold two shapes of the same metric.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def instrument(self, name: str, kind: str, **kwargs):
        """Get-or-create the instrument *name* of registered *kind*."""
        if not name:
            raise ValueError("metric names must be non-empty strings")
        factory = metric_kind_registry.get(kind)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                have = getattr(existing, "kind", type(existing).__name__)
                if have != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {have!r}; "
                        f"cannot re-register as {kind!r}")
                return existing
            created = self._metrics[name] = factory(**kwargs)
            return created

    def counter(self, name: str) -> Counter:
        return self.instrument(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self.instrument(name, "gauge")

    def histogram(self, name: str,
                  relative_accuracy: float = 0.01) -> Histogram:
        return self.instrument(name, "histogram",
                               relative_accuracy=relative_accuracy)

    def get(self, name: str):
        """The instrument registered under *name* (``None`` when absent)."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def to_dict(self) -> dict:
        """``{"counters": ..., "gauges": ..., "histograms": ...}`` dump.

        Instruments of registered custom kinds land under ``"other"`` with
        whatever their ``to_dict`` returns.
        """
        with self._lock:
            items = sorted(self._metrics.items())
        dump: dict = {"counters": {}, "gauges": {}, "histograms": {},
                      "other": {}}
        section = {"counter": "counters", "gauge": "gauges",
                   "histogram": "histograms"}
        for name, metric in items:
            kind = getattr(metric, "kind", None)
            dump[section.get(kind, "other")][name] = metric.to_dict()
        return dump


# ------------------------------------------------------------------ #
# ambient recording (fault_point-style fast path)
# ------------------------------------------------------------------ #
#: the ambient sink; ``None`` (the default) makes the helpers no-ops.
_ACTIVE: Optional[MetricsRegistry] = None
_ACTIVATION_LOCK = threading.Lock()


def active_metrics() -> Optional[MetricsRegistry]:
    """The ambient :class:`MetricsRegistry` (``None`` outside a scope)."""
    return _ACTIVE


def observe(name: str, value: float) -> None:
    """Record *value* into the ambient histogram *name* (no-op when no
    scope is active — one global read, mirroring ``fault_point``)."""
    registry = _ACTIVE
    if registry is None:
        return
    registry.histogram(name).observe(value)


def add_count(name: str, n: int = 1) -> None:
    """Increment the ambient counter *name* (no-op without a scope)."""
    registry = _ACTIVE
    if registry is None:
        return
    registry.counter(name).inc(n)


def set_gauge(name: str, value: float) -> None:
    """Set the ambient gauge *name* (no-op without a scope)."""
    registry = _ACTIVE
    if registry is None:
        return
    registry.gauge(name).set(value)


@contextmanager
def metrics_scope(
        registry: Optional[MetricsRegistry] = None
) -> Iterator[MetricsRegistry]:
    """Install *registry* (default: a fresh one) as the ambient sink.

    Yields the registry so callers can read it back.  Scopes do not nest —
    like :func:`~repro.reliability.faults.inject_faults`, observability
    experiments must be explicit about which sink is live.
    """
    global _ACTIVE
    registry = registry if registry is not None else MetricsRegistry()
    with _ACTIVATION_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError(
                "a MetricsRegistry is already active; metrics scopes do "
                "not nest")
        _ACTIVE = registry
    try:
        yield registry
    finally:
        with _ACTIVATION_LOCK:
            _ACTIVE = None


# ------------------------------------------------------------------ #
# cache statistics (the one interface over all four LRUs)
# ------------------------------------------------------------------ #
class CacheStats(NamedTuple):
    """Uniform hit/miss/eviction statistics of one named LRU cache.

    The :func:`repro.obs.snapshot` document reports every process cache —
    edge-layout, packed-layout, scatter-matrix and the session's
    graph-construction cache — through this one shape.
    """

    name: str
    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any traffic)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }
