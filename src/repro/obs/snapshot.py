"""The unified observability document: one versioned JSON snapshot.

:func:`snapshot` folds every introspection surface the stack grew —
``Server.stats()``, ``healthz()``, the retry budget, circuit breakers,
request-latency percentiles and the hit/miss/eviction statistics of all
four LRU caches — into a single schema-versioned JSON-safe dict: the
document a future ``/stats`` endpoint serves and a fleet dispatcher
routes on.  :func:`validate_snapshot` enforces the schema (the CI
``obs-smoke`` job round-trips it through ``json``), and
``python -m repro.obs snapshot`` emits it from a demo serving workload.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

from .metrics import CacheStats, MetricsRegistry, active_metrics
from .tracing import active_collector

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotError",
    "collect_cache_stats",
    "snapshot",
    "snapshot_json",
    "validate_snapshot",
]

#: schema of :func:`snapshot` — bump on any breaking shape change.
SNAPSHOT_SCHEMA_VERSION = 2

#: the six integer fields every cache entry must carry (plus hit_rate).
_CACHE_FIELDS = ("hits", "misses", "evictions", "size", "capacity")


class SnapshotError(ValueError):
    """A snapshot document violated the schema."""


def collect_cache_stats(session=None) -> List[CacheStats]:
    """Every process-wide LRU (plus *session*'s graph cache when given)
    through the one :class:`~repro.obs.metrics.CacheStats` interface."""
    # imported lazily: the obs package must stay importable without
    # dragging in the whole gnn/nn stack at module-import time
    from ..gnn.edge_layout import edge_layout_cache_info
    from ..gnn.packing import packed_layout_cache_info
    from ..nn.tensor import scatter_matrix_cache_info

    stats = [
        _cache_stats("edge-layout", edge_layout_cache_info()),
        _cache_stats("packed-layout", packed_layout_cache_info()),
        _cache_stats("scatter-matrix", scatter_matrix_cache_info()),
    ]
    if session is not None:
        stats.append(_cache_stats("session-graphs", session.cache_info()))
    return stats


def _cache_stats(name: str, info) -> CacheStats:
    """Adapt a cache's ``CacheInfo`` (field names, not positions — the
    engine and session caches order their tuples differently) to the
    uniform :class:`CacheStats` shape."""
    return CacheStats(name, hits=info.hits, misses=info.misses,
                      evictions=getattr(info, "evictions", 0),
                      size=info.size, capacity=info.capacity)


def _latency_section(registry: MetricsRegistry) -> Optional[dict]:
    histogram = registry.get("serve.request_latency_s")
    if histogram is None or not histogram.count:
        return None
    p50, p95, p99 = histogram.percentiles(0.50, 0.95, 0.99)
    return {
        "count": histogram.count,
        "p50_ms": p50 * 1e3,
        "p95_ms": p95 * 1e3,
        "p99_ms": p99 * 1e3,
    }


def _server_section(server) -> dict:
    stats = server.stats()._asdict()
    return {
        "config": dataclasses.asdict(server.config),
        "stats": stats,
        "health": server.healthz(),
        "latency": _latency_section(server.metrics),
        "metrics": server.metrics.to_dict(),
    }


def _faults_section() -> dict:
    from ..reliability.faults import active_injector

    injector = active_injector()
    if injector is None:
        return {"active": False}
    return {
        "active": True,
        "seed": injector.plan.seed,
        "fired": {f"{site}:{kind}": count
                  for (site, kind), count in
                  sorted(injector.fire_counts().items())},
    }


def snapshot(server=None, session=None,
             registry: Optional[MetricsRegistry] = None) -> dict:
    """One versioned JSON-safe document over the whole observable surface.

    *server* contributes its config, ``stats()``, ``healthz()``, latency
    percentiles and per-server metrics registry; *session* (defaulting to
    ``server.session``) contributes its graph-construction cache;
    *registry* (defaulting to the ambient :func:`metrics_scope` sink, if
    any) contributes process-level metrics.  Everything is readable with
    neither: the cache sections and tracing/fault state never require a
    live server.
    """
    if session is None and server is not None:
        session = server.session
    if registry is None:
        registry = active_metrics()
    collector = active_collector()

    caches: Dict[str, dict] = {}
    for stats in collect_cache_stats(session):
        caches[stats.name] = stats.to_dict()

    document = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "generator": "repro.obs",
        "caches": caches,
        "process": {
            "metrics": registry.to_dict() if registry is not None else None,
            "tracing": ({"active": True, **collector.stats()}
                        if collector is not None else {"active": False}),
            "faults": _faults_section(),
        },
        "server": _server_section(server) if server is not None else None,
    }
    return document


def snapshot_json(server=None, session=None,
                  registry: Optional[MetricsRegistry] = None,
                  indent: Optional[int] = 2) -> str:
    """:func:`snapshot` serialized (and therefore schema-validated)."""
    document = snapshot(server=server, session=session, registry=registry)
    validate_snapshot(document)
    return json.dumps(document, indent=indent, sort_keys=True)


# ------------------------------------------------------------------ #
# validation
# ------------------------------------------------------------------ #
def _fail(message: str) -> None:
    raise SnapshotError(f"snapshot schema violation: {message}")


def validate_snapshot(document) -> None:
    """Raise :class:`SnapshotError` unless *document* is a well-formed,
    JSON-serializable schema-v1 snapshot."""
    if not isinstance(document, dict):
        _fail(f"document must be a dict, got {type(document).__name__}")
    if document.get("schema_version") != SNAPSHOT_SCHEMA_VERSION:
        _fail(f"schema_version must be {SNAPSHOT_SCHEMA_VERSION}, got "
              f"{document.get('schema_version')!r}")
    for field in ("generator", "caches", "process", "server"):
        if field not in document:
            _fail(f"missing top-level field {field!r}")
    caches = document["caches"]
    if not isinstance(caches, dict) or not caches:
        _fail("caches must be a non-empty dict")
    for name, entry in caches.items():
        for field in _CACHE_FIELDS:
            value = entry.get(field)
            if not isinstance(value, int) or value < 0:
                _fail(f"caches[{name!r}].{field} must be a non-negative "
                      f"int, got {value!r}")
        rate = entry.get("hit_rate")
        if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            _fail(f"caches[{name!r}].hit_rate must be in [0, 1], got "
                  f"{rate!r}")
    process = document["process"]
    if not isinstance(process, dict):
        _fail("process must be a dict")
    for field in ("metrics", "tracing", "faults"):
        if field not in process:
            _fail(f"missing process field {field!r}")
    server = document["server"]
    if server is not None:
        if not isinstance(server, dict):
            _fail("server must be a dict or null")
        for field in ("config", "stats", "health", "latency", "metrics"):
            if field not in server:
                _fail(f"missing server field {field!r}")
        for field in ("queue_depth", "shed", "retries", "failures",
                      "breaker_rejections"):
            if field not in server["stats"]:
                _fail(f"missing server.stats field {field!r}")
        if server["health"].get("status") not in ("ok", "degraded", "closed"):
            _fail(f"server.health.status must be ok/degraded/closed, got "
                  f"{server['health'].get('status')!r}")
        latency = server["latency"]
        if latency is not None:
            quantiles = [latency.get("p50_ms"), latency.get("p95_ms"),
                         latency.get("p99_ms")]
            if any(not isinstance(q, (int, float)) for q in quantiles):
                _fail("server.latency percentiles must be numbers")
            if not quantiles[0] <= quantiles[1] <= quantiles[2]:
                _fail(f"latency percentiles are not ordered: {quantiles}")
    try:
        encoded = json.dumps(document, sort_keys=True)
    except (TypeError, ValueError) as error:
        _fail(f"document is not JSON-serializable: {error}")
    if json.loads(encoded) != document:
        _fail("document does not survive a JSON round trip")
