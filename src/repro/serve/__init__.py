"""``repro.serve`` — the concurrent micro-batching serving runtime.

Built on the engine's context-local ``repro.nn.no_grad`` flag and one
serving precision (float64):

* :class:`~repro.serve.server.Server` — owns one trained model set, shards
  requests per platform across a worker pool, coalesces single predictions
  into micro-batches, and exposes sync ``submit`` / ``predict`` /
  ``predict_batch`` plus ``drain`` / ``close`` lifecycle hooks,
* :class:`~repro.serve.server.ServerConfig` — worker count, batch window
  and max batch size (``REPRO_SERVE_WORKERS`` & co read by ``from_env``),
* :class:`~repro.serve.batching.MicroBatcher` — the shard-aware queue and
  batch-formation policy, reusable without a model.

The runtime degrades through the typed failure model of
:mod:`repro.reliability` (re-exported here for convenience): per-request
deadlines (``DeadlineExceeded``), load shedding (``ServerOverloaded``),
per-shard circuit breakers (``CircuitOpenError``), transient-failure
retries with backoff, and ``ServerClosedError`` on post-close use.

``Session.predict_batch`` is a thin client of an embedded inline server,
so the synchronous facade and the concurrent runtime share one execution
path.  See ``SERVING.md`` for the architecture, the bit-reproducibility
contract and the failure model.
"""

from ..reliability.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
)
from .batching import BatcherStats, MicroBatcher, ShardKey, WorkItem
from .server import Server, ServerConfig, ServerStats

__all__ = [
    "BatcherStats",
    "CircuitOpenError",
    "DeadlineExceeded",
    "MicroBatcher",
    "Server",
    "ServerClosedError",
    "ServerConfig",
    "ServerOverloaded",
    "ServerStats",
    "ShardKey",
    "WorkItem",
]
