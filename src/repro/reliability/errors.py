"""Typed failure taxonomy of the serving + store stack.

Every way a request can fail under the reliability layer maps to one
exception type, so callers (and the differential ``serving-contract``
scenario) can assert the contract *"a result or a typed error — never a
hang, never silent corruption"* with an ``isinstance`` check:

* :class:`DeadlineExceeded` — the request's deadline passed before (or
  while) it executed; also a :class:`TimeoutError` so generic timeout
  handling keeps working,
* :class:`ServerOverloaded` — admission control shed the request because
  the queue was at capacity (push back, retry later, or scale out),
* :class:`ServerClosedError` — work submitted after ``close()``; subclasses
  :class:`RuntimeError` because that is what both rejection sites raised
  before the taxonomy existed,
* :class:`CircuitOpenError` — the target shard's circuit breaker is open:
  recent requests failed persistently and the server is failing fast
  instead of burning the queue on a broken shard,
* :class:`TransientFaultError` — an injected (or genuinely transient)
  fault; the retry layer treats it as retryable.

Classification — :func:`is_transient` — is what keeps retries honest:
deterministic failures (a parse error is a parse error on every attempt)
fail fast, transient ones (I/O hiccups, injected chaos) earn backoff.
"""

from __future__ import annotations

__all__ = [
    "CircuitOpenError",
    "DeadlineExceeded",
    "ReliabilityError",
    "ServerClosedError",
    "ServerOverloaded",
    "TransientFaultError",
    "is_transient",
]


class ReliabilityError(RuntimeError):
    """Base of every typed failure the reliability layer raises."""


class DeadlineExceeded(ReliabilityError, TimeoutError):
    """The request's deadline expired before a result was produced.

    Raised at enqueue (deadline already in the past), at dequeue (the
    request waited out its deadline in the queue — it is dropped, not
    executed) and by the bounded waits in ``Server.predict`` /
    ``predict_batch``.  Not retryable: the time budget is gone.
    """


class ServerOverloaded(ReliabilityError):
    """Admission control shed the request: the queue is at capacity.

    Deliberate graceful degradation — shedding one request early beats
    letting every request's latency collapse.  The caller may retry with
    backoff (the condition is transient *for the caller*, but the server
    must not retry internally — that would amplify the overload).
    """


class ServerClosedError(ReliabilityError):
    """Work was submitted to a server after ``close()``.

    Subclasses :class:`RuntimeError` (via :class:`ReliabilityError`) for
    compatibility with pre-taxonomy callers that caught ``RuntimeError``.
    """


class CircuitOpenError(ReliabilityError):
    """The shard's circuit breaker is open; the request failed fast.

    The breaker re-admits a trial request after its reset timeout; a
    succeeding trial closes the circuit again.
    """


class TransientFaultError(ReliabilityError):
    """A transient fault (injected chaos or a real hiccup); retryable."""


#: exception types retried by default — transient by nature, not by value.
_TRANSIENT_TYPES = (TransientFaultError, ConnectionError, InterruptedError,
                    BrokenPipeError)


def is_transient(error: BaseException) -> bool:
    """Classify an exception as transient (retryable) or deterministic.

    Transient: :class:`TransientFaultError`, connection/interrupt-shaped
    ``OSError``\\ s, and anything carrying a truthy ``transient`` attribute
    (the extension point for third-party error types).  Everything else —
    parse errors, shape mismatches, the reliability layer's own verdicts
    (:class:`DeadlineExceeded`, :class:`ServerOverloaded`, …) — is
    deterministic: retrying would burn the retry budget reproducing the
    same failure.
    """
    if isinstance(error, ReliabilityError):
        # our own verdicts are final; only injected transient faults retry
        return isinstance(error, TransientFaultError)
    if isinstance(error, _TRANSIENT_TYPES):
        return True
    if isinstance(error, OSError):
        # I/O errors (disk hiccup, EINTR) are worth one more attempt;
        # FileNotFoundError & friends are deterministic misconfiguration
        return not isinstance(error, (FileNotFoundError, IsADirectoryError,
                                      NotADirectoryError, PermissionError))
    return bool(getattr(error, "transient", False))
