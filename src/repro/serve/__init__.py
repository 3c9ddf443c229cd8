"""``repro.serve`` — the caller-runs, leader-combining serving runtime.

Built on the engine's context-local ``repro.nn.no_grad`` flag and one
serving precision (float64):

* :class:`~repro.serve.server.Server` — owns one trained model set and
  serves on its callers' threads (it starts none): requests queue per
  platform shard in a singles lane and a jobs lane, a caller leads its
  lane for the one batch that holds its own request, and single
  predictions that arrive meanwhile coalesce into the next leader's
  packed forward.  Exposes ``submit`` / ``predict`` /
  ``predict_batch`` plus ``drain`` / ``close`` lifecycle hooks,
* :class:`~repro.serve.server.ServerConfig` — max batch size, deadlines,
  queue bound, retries and breakers (``REPRO_SERVE_*`` read by
  ``from_env``),
* :class:`~repro.serve.batching.Combiner` — the per-lane FIFOs and the
  leader/batch-formation policy, reusable without a model.

The runtime degrades through the typed failure model of
:mod:`repro.reliability` (re-exported here for convenience): per-request
deadlines (``DeadlineExceeded``), load shedding (``ServerOverloaded``),
per-shard circuit breakers (``CircuitOpenError``), transient-failure
retries with backoff, and ``ServerClosedError`` on post-close use.

``Session.predict_batch`` is a thin client of an embedded server, so the
synchronous facade and concurrent callers share one execution path.  See
``SERVING.md`` for the architecture, the bit-reproducibility contract and
the failure model.
"""

from ..reliability.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
)
from .batching import Combiner, Request, ShardKey
from .server import Server, ServerConfig, ServerStats

__all__ = [
    "CircuitOpenError",
    "Combiner",
    "DeadlineExceeded",
    "Request",
    "Server",
    "ServerClosedError",
    "ServerConfig",
    "ServerOverloaded",
    "ServerStats",
    "ShardKey",
]
