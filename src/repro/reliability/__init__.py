"""``repro.reliability`` — the failure model of the serving + store stack.

Systems are defined by how they degrade, not how they run clean.  This
package gives the reproduction a first-class, *testable* failure model:

* :mod:`~repro.reliability.errors` — the typed failure taxonomy
  (:class:`DeadlineExceeded`, :class:`ServerOverloaded`,
  :class:`ServerClosedError`, :class:`CircuitOpenError`,
  :class:`TransientFaultError`) and the transient/deterministic
  classifier :func:`is_transient`,
* :mod:`~repro.reliability.faults` — seeded fault injection: a registry
  of fault kinds (``raise`` / ``delay`` / ``corrupt-payload``), hook
  points threaded through serving admission, the leader's batch
  execution, the engine forward and the store read/write paths, and
  the :func:`inject_faults` scope whose decisions replay by seed,
* :mod:`~repro.reliability.retry` — exponential backoff with jitter, a
  server-wide :class:`RetryBudget`, and the deadline-aware
  :func:`call_with_retry` loop,
* :mod:`~repro.reliability.breaker` — the per-shard
  :class:`CircuitBreaker`.

The contract all of it serves (property-tested by the synth scenario
``serving-contract``): under fault injection every request either
returns a float64 result bit-identical to the fault-free reference or a
typed error — never a hang, never silent corruption.  See SERVING.md's
"Failure model" section for the knobs and the degradation table.
"""

from .breaker import CircuitBreaker
from .errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ReliabilityError,
    ServerClosedError,
    ServerOverloaded,
    TransientFaultError,
    is_transient,
)
from .faults import (
    SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    fault_kind_registry,
    fault_point,
    inject_faults,
    register_fault,
)
from .retry import RetryBudget, RetryPolicy, call_with_retry

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "ReliabilityError",
    "RetryBudget",
    "RetryPolicy",
    "SITES",
    "ServerClosedError",
    "ServerOverloaded",
    "TransientFaultError",
    "call_with_retry",
    "fault_kind_registry",
    "fault_point",
    "inject_faults",
    "is_transient",
    "register_fault",
]
