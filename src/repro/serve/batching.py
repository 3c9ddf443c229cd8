"""Request queueing and micro-batch formation for the serving runtime.

The serving :class:`~repro.serve.server.Server` separates *what to run*
(this module) from *how to run it* (the worker pool in ``server.py``):

* every request is tagged with a :class:`ShardKey` — the platform it
  targets plus the parse mode — so only requests that can legally share
  one GNN forward are ever coalesced,
* single predictions (``Server.submit``) enter a per-shard queue and are
  **coalesced into micro-batches**: a batch closes when it reaches
  ``max_batch_size`` or when its oldest request has waited
  ``batch_window_s``, whichever comes first — under the default packed
  block-diagonal forward (:mod:`repro.gnn.packing`) a coalesced float64
  result is bit-identical to a solo prediction for *any* batch
  composition,
* explicit batch calls (``Server.predict_batch``) travel as one
  :class:`WorkItem` and are never merged with other traffic: the caller's
  batching is preserved exactly, so a fixed request list produces the
  same bits regardless of concurrent traffic (and, packed or not, float64
  results match the single-threaded reference bit for bit).

The queue also enforces the *admission* half of the failure model (see
``repro.reliability`` and SERVING.md's "Failure model"):

* a ``max_queue_depth`` bound sheds work at enqueue time with
  :class:`~repro.reliability.errors.ServerOverloaded` instead of letting
  the backlog (and every queued caller's latency) grow without bound,
* per-request **deadlines** are honoured at *dequeue* time too: a request
  whose deadline passed while queued is dropped with
  :class:`~repro.reliability.errors.DeadlineExceeded` before a worker
  wastes a forward on an answer nobody is waiting for,
* post-``close()`` use raises the typed
  :class:`~repro.reliability.errors.ServerClosedError` (a ``RuntimeError``
  subclass, so existing ``except RuntimeError`` handlers keep working).

:class:`MicroBatcher` owns the shards, one condition variable, and the
batch-formation policy; it is fully lock-protected and deliberately knows
nothing about models or graphs, so its scheduling behaviour is unit-testable
without training anything.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, List, NamedTuple, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import complete_trace
from ..reliability.errors import (
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
)
from ..reliability.faults import SITE_SCHEDULE, fault_point

__all__ = ["BatcherStats", "MicroBatcher", "SHUTDOWN_MESSAGE", "ShardKey",
           "WorkItem"]

#: raised by both the queue and the inline Server path on post-close use —
#: one string so the two rejection sites can never drift apart
SHUTDOWN_MESSAGE = ("the serving queue is shut down; create a new Server "
                    "(or don't close this one) to keep serving")


class ShardKey(NamedTuple):
    """What must match for two requests to share one batched forward."""

    platform: str            # canonical platform name (one model each)
    snippet: bool            # parse mode changes the graph, so never mix


class WorkItem(NamedTuple):
    """One unit a worker executes: a micro-batch of singles or a whole job.

    ``deadlines`` carries each request's absolute ``time.monotonic()``
    deadline (``None`` = unbounded): per-spec for singles, and a single
    shared entry for a job.  Workers re-check them at execution time.
    ``enqueued`` (one monotonic timestamp per future) feeds the
    queue-wait histogram, and ``traces`` carries each request's
    :class:`repro.obs.tracing.Trace` handle (``None`` entries when tracing
    is off) so the worker that resolves a request also completes its span
    tree; both trail with defaults, keeping pre-observability positional
    construction working.
    """

    key: ShardKey
    specs: List[object]          # SourceSpecs, in result order
    futures: List[Future]        # per-spec for singles; exactly one for a job
    kind: str                    # "singles" | "job"
    deadlines: List[Optional[float]]
    enqueued: Tuple[float, ...] = ()
    traces: Tuple[Optional[object], ...] = ()


@dataclass
class _Single:
    spec: object
    future: Future
    enqueued: float
    deadline: Optional[float] = None
    trace: Optional[object] = None


@dataclass
class _Job:
    specs: List[object]
    future: Future
    enqueued: float
    deadline: Optional[float] = None
    trace: Optional[object] = None


@dataclass
class _Shard:
    """Pending work for one shard key (guarded by the batcher lock)."""

    key: ShardKey
    singles: Deque[_Single] = field(default_factory=deque)
    jobs: Deque[_Job] = field(default_factory=deque)

    def pending(self) -> int:
        return len(self.singles) + len(self.jobs)


class BatcherStats(NamedTuple):
    """Monotonic accounting of everything the batcher has scheduled."""

    singles_submitted: int       # requests entered through submit()
    jobs_submitted: int          # explicit predict_batch jobs
    batches_executed: int        # work items handed to workers
    requests_executed: int       # specs across all executed work items
    max_coalesced: int           # largest single-request micro-batch formed
    coalesced_total: int         # singles that travelled in micro-batches
    peak_depth: int              # max simultaneous pending requests observed
    shed: int = 0                # requests refused by admission control
    deadline_expired: int = 0    # requests dropped at dequeue, deadline past


class MicroBatcher:
    """Shard-aware request queue with window/size micro-batch formation.

    All public methods are thread-safe.  Workers call :meth:`next_batch`,
    which blocks until a batch is due (or ``None`` after :meth:`stop` once
    the queue is fully drained — pending futures are never dropped), and
    must pair every received item with one :meth:`task_done`.

    ``max_queue_depth`` (0 = unbounded) caps total pending *requests*
    (specs, not work items) across all shards; enqueues beyond it raise
    :class:`ServerOverloaded`.
    """

    def __init__(self, max_batch_size: int, batch_window_s: float,
                 max_queue_depth: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0 (0 = unbounded)")
        self.max_batch_size = int(max_batch_size)
        self.batch_window_s = float(batch_window_s)
        self.max_queue_depth = int(max_queue_depth)
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._shards: "OrderedDict[ShardKey, _Shard]" = OrderedDict()
        self._rotation = 0
        self._stopping = False
        self._in_flight = 0
        # accounting lives in a repro.obs metrics registry (shared with the
        # owning Server, so its stats()/healthz() are views over the same
        # instruments); scheduling state stays under the batcher lock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._singles = self.metrics.counter("serve.singles_submitted")
        self._jobs = self.metrics.counter("serve.jobs_submitted")
        self._batches = self.metrics.counter("serve.batches_executed")
        self._requests_executed = self.metrics.counter(
            "serve.requests_executed")
        self._coalesced_total = self.metrics.counter("serve.coalesced_total")
        self._max_coalesced = self.metrics.gauge("serve.max_coalesced")
        self._peak_depth = self.metrics.gauge("serve.peak_queue_depth")
        self._shed = self.metrics.counter("serve.shed")
        self._deadline_expired = self.metrics.counter(
            "serve.deadline_expired_queue")

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def _shard(self, key: ShardKey) -> _Shard:
        shard = self._shards.get(key)
        if shard is None:
            shard = self._shards[key] = _Shard(key)
        return shard

    def _depth_locked(self) -> int:
        return sum(len(shard.singles) + sum(len(job.specs)
                                            for job in shard.jobs)
                   for shard in self._shards.values())

    def _note_depth(self) -> None:
        self._peak_depth.set_max(self._depth_locked())

    def _checked_open(self) -> None:
        if self._stopping:
            raise ServerClosedError(SHUTDOWN_MESSAGE)

    def _checked_admission(self, incoming: int) -> None:
        if not self.max_queue_depth:
            return
        depth = self._depth_locked()
        if depth + incoming > self.max_queue_depth:
            self._shed.inc(incoming)
            raise ServerOverloaded(
                f"serving queue is full ({depth} pending, limit "
                f"{self.max_queue_depth}); retry with backoff or raise "
                "ServerConfig.max_queue_depth")

    def enqueue_single(self, key: ShardKey, spec,
                       deadline: Optional[float] = None,
                       trace=None) -> Future:
        """Queue one prediction for micro-batch coalescing."""
        future: Future = Future()
        with self._ready:
            self._checked_open()
            self._checked_admission(1)
            self._shard(key).singles.append(
                _Single(spec, future, time.monotonic(), deadline, trace))
            self._singles.inc()
            self._note_depth()
            # notify_all: workers and wait_idle() callers share this
            # condition, and a single notify could wake only an idle-waiter,
            # losing the one wakeup a blocked worker needed
            self._ready.notify_all()
        return future

    def enqueue_job(self, key: ShardKey, specs: List[object],
                    deadline: Optional[float] = None,
                    trace=None) -> Future:
        """Queue one explicit batch; executed whole, never merged."""
        future: Future = Future()
        with self._ready:
            self._checked_open()
            self._checked_admission(len(specs))
            self._shard(key).jobs.append(
                _Job(list(specs), future, time.monotonic(), deadline, trace))
            self._jobs.inc()
            self._note_depth()
            self._ready.notify_all()
        return future

    # ------------------------------------------------------------------ #
    # consumer side (workers)
    # ------------------------------------------------------------------ #
    def _pop_singles(self, shard: _Shard) -> WorkItem:
        taken = [shard.singles.popleft()
                 for _ in range(min(len(shard.singles), self.max_batch_size))]
        self._max_coalesced.set_max(len(taken))
        self._coalesced_total.inc(len(taken))
        return WorkItem(shard.key, [s.spec for s in taken],
                        [s.future for s in taken], "singles",
                        [s.deadline for s in taken],
                        tuple(s.enqueued for s in taken),
                        tuple(s.trace for s in taken))

    def _rotated_shards(self) -> List[_Shard]:
        """Shards starting at a rotating offset, so no shard's traffic can
        monopolise scheduling just by having been created first."""
        shards = list(self._shards.values())
        if len(shards) > 1:
            offset = self._rotation % len(shards)
            self._rotation += 1
            shards = shards[offset:] + shards[:offset]
        return shards

    def _pop_expired_locked(self, now: float) -> List[Tuple[Future, object]]:
        """Drop queued requests whose deadline has already passed.

        Returns their ``(future, trace)`` pairs; the caller sets
        :class:`DeadlineExceeded` (and completes the traces) *outside* the
        lock (future callbacks run on the setting thread and must not
        deadlock against the batcher).
        """
        expired: List[Tuple[Future, object]] = []
        for shard in self._shards.values():
            if any(s.deadline is not None and s.deadline <= now
                   for s in shard.singles):
                keep: Deque[_Single] = deque()
                for single in shard.singles:
                    if single.deadline is not None and single.deadline <= now:
                        expired.append((single.future, single.trace))
                        self._deadline_expired.inc()
                    else:
                        keep.append(single)
                shard.singles = keep
            if any(j.deadline is not None and j.deadline <= now
                   for j in shard.jobs):
                keep_jobs: Deque[_Job] = deque()
                for job in shard.jobs:
                    if job.deadline is not None and job.deadline <= now:
                        expired.append((job.future, job.trace))
                        self._deadline_expired.inc(len(job.specs))
                    else:
                        keep_jobs.append(job)
                shard.jobs = keep_jobs
        if expired:
            self._ready.notify_all()
        return expired

    def _next_request_deadline_locked(self) -> Optional[float]:
        """Earliest queued request deadline (bounds the scheduler's sleep)."""
        earliest: Optional[float] = None
        for shard in self._shards.values():
            for single in shard.singles:
                if single.deadline is not None and \
                        (earliest is None or single.deadline < earliest):
                    earliest = single.deadline
            for job in shard.jobs:
                if job.deadline is not None and \
                        (earliest is None or job.deadline < earliest):
                    earliest = job.deadline
        return earliest

    def _take_locked(self, now: float) -> Tuple[Optional[WorkItem], Optional[float]]:
        """One scheduling pass; returns (item, next_deadline)."""
        deadline: Optional[float] = None
        shards = self._rotated_shards()
        # overdue singles first: the batch window is their latency contract,
        # and sustained job traffic (every finished predict_batch replaced by
        # another) must not be able to starve a queued single past it
        overdue: Optional[_Shard] = None
        overdue_due = now
        for shard in shards:
            if not shard.singles:
                continue
            due = shard.singles[0].enqueued + self.batch_window_s
            if due <= overdue_due or self._stopping:
                overdue, overdue_due = shard, due
        if overdue is not None:
            return self._pop_singles(overdue), None
        # then jobs, in rotation order: already whole batches, each gating a
        # blocked caller, and the rotation keeps a saturated shard from
        # starving other platforms' jobs
        for shard in shards:
            if shard.jobs:
                job = shard.jobs.popleft()
                return WorkItem(shard.key, job.specs, [job.future], "job",
                                [job.deadline], (job.enqueued,),
                                (job.trace,)), None
        for shard in shards:
            if not shard.singles:
                continue
            due = shard.singles[0].enqueued + self.batch_window_s
            if len(shard.singles) >= self.max_batch_size:
                return self._pop_singles(shard), None
            deadline = due if deadline is None else min(deadline, due)
        return None, deadline

    def next_batch(self) -> Optional[WorkItem]:
        """Block until a batch is due; ``None`` once stopped *and* drained."""
        while True:
            expired: List[Tuple[Future, object]] = []
            item: Optional[WorkItem] = None
            with self._ready:
                now = time.monotonic()
                expired = self._pop_expired_locked(now)
                if not expired:
                    item, wake = self._take_locked(now)
                    if item is not None:
                        self._in_flight += 1
                        self._batches.inc()
                        self._requests_executed.inc(len(item.specs))
                    elif self._stopping:
                        return None
                    else:
                        next_deadline = self._next_request_deadline_locked()
                        if next_deadline is not None:
                            wake = next_deadline if wake is None \
                                else min(wake, next_deadline)
                        timeout = None if wake is None \
                            else max(wake - time.monotonic(), 0.0)
                        self._ready.wait(timeout)
                        continue
            if expired:
                # outside the lock: done-callbacks run on the setting thread
                for future, trace in expired:
                    error = DeadlineExceeded(
                        "request deadline expired while queued (the server "
                        "could not schedule it in time)")
                    complete_trace(trace, error)
                    future.set_exception(error)
                continue
            fault_point(SITE_SCHEDULE)
            return item

    def task_done(self) -> None:
        """Ack one item received from :meth:`next_batch` (enables drain)."""
        with self._ready:
            self._in_flight -= 1
            self._ready.notify_all()

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #
    def pending(self) -> int:
        with self._lock:
            return sum(shard.pending() for shard in self._shards.values())

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued request has been executed and acked.

        Returns ``False`` promptly when *timeout* expires — even with a
        wedged worker holding an item forever, the caller gets control back
        within the timeout (plus scheduler noise), never later.  A
        ``timeout`` of 0 is a non-blocking idleness poll.
        """
        end = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while (self._in_flight
                   or any(shard.pending() for shard in self._shards.values())):
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._ready.wait(remaining)
            return True

    def stop(self) -> None:
        """Refuse new work; queued work still runs (futures are honored)."""
        with self._ready:
            self._stopping = True
            self._ready.notify_all()

    def stats(self) -> BatcherStats:
        # each instrument snapshot is individually coherent; the batcher
        # lock is additionally held so no enqueue/dequeue interleaves a
        # read, keeping the tuple as coherent as the pre-registry counters
        with self._lock:
            return BatcherStats(
                singles_submitted=self._singles.value,
                jobs_submitted=self._jobs.value,
                batches_executed=self._batches.value,
                requests_executed=self._requests_executed.value,
                max_coalesced=int(self._max_coalesced.value),
                coalesced_total=self._coalesced_total.value,
                peak_depth=int(self._peak_depth.value),
                shed=self._shed.value,
                deadline_expired=self._deadline_expired.value,
            )
