"""Request queueing and batch formation for the caller-runs serving runtime.

The serving :class:`~repro.serve.server.Server` starts no threads: every
request executes on a caller's own thread.  This module decides *what*
runs together and *who* runs it:

* every request is tagged with a :class:`ShardKey` — the platform it
  targets plus the parse mode — so only requests that can legally share
  one GNN forward are ever batched together,
* a :class:`Request` is a *single* (one spec, from ``Server.submit``) or a
  *job* (a ``Server.predict_batch`` list, executed whole and never merged
  with other traffic),
* each shard has two FIFO **lanes**, one for singles and one for jobs, so
  a single never waits behind another caller's job.  When the batch at
  the head of a lane — one job, or up to ``max_batch_size`` singles —
  holds a caller's own request and no other caller leads the lane, that
  caller becomes the lane's **leader**: it executes the batch as one
  packed forward, settles every request in it and releases the lane.
  Singles that arrive meanwhile coalesce into the next leader's batch;
  there is no batch window.  A caller only ever runs the batch that holds
  its own request, so its deadline bounds its own wait.

The queue also enforces the *admission* half of the failure model (see
``repro.reliability`` and SERVING.md's "Failure model"):

* a ``max_queue_depth`` bound on queued specs sheds work at enqueue time
  with :class:`~repro.reliability.errors.ServerOverloaded` instead of
  letting the backlog (and every queued caller's latency) grow unbounded,
* a request whose deadline passes while it is still queued is withdrawn —
  by its own waiting caller, or by the leader taking its batch — and
  settles with :class:`~repro.reliability.errors.DeadlineExceeded`; a
  request another caller is already executing is awaited up to its
  deadline plus :data:`RESULT_GRACE_S`,
* post-``close()`` use raises the typed
  :class:`~repro.reliability.errors.ServerClosedError` (a ``RuntimeError``
  subclass, so existing ``except RuntimeError`` handlers keep working).

:class:`Combiner` owns the lanes and one condition variable; it knows
nothing about models or graphs, so its policy is unit-testable without
training anything.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from itertools import islice
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import complete_trace
from ..reliability.errors import (
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
)

__all__ = ["Combiner", "RESULT_GRACE_S", "Request", "SHUTDOWN_MESSAGE",
           "ShardKey"]

#: raised on every post-close entry point — one string so the rejection
#: sites can never drift apart
SHUTDOWN_MESSAGE = ("the serving queue is shut down; create a new Server "
                    "(or don't close this one) to keep serving")

#: extra slack a caller grants a request that another caller is executing
#: past its deadline before declaring it lost — covers a healthy batch
#: finishing just after the deadline without waiting on a wedged leader
RESULT_GRACE_S = 0.25


class ShardKey(NamedTuple):
    """What must match for two requests to share one batched forward."""

    platform: str            # canonical platform name (one model each)
    snippet: bool            # parse mode changes the graph, so never mix


class Request:
    """One queued single (one spec) or job (N specs, never merged).

    ``deadline`` is an absolute ``time.monotonic()`` instant (``None`` =
    unbounded) and ``trace`` the request's :class:`repro.obs.tracing.Trace`
    (``None`` when tracing is off).  The request settles exactly once:
    ``value`` or ``error`` receives the outcome, then ``done`` turns true.
    """

    __slots__ = ("key", "lane", "specs", "job", "deadline", "trace",
                 "enqueued", "queued", "done", "value", "error")

    def __init__(self, key: ShardKey, specs: List[object], job: bool = False,
                 deadline: Optional[float] = None, trace=None) -> None:
        self.key = key
        self.lane: Tuple[ShardKey, bool] = (key, job)
        self.specs = specs
        self.job = job
        self.deadline = deadline
        self.trace = trace
        self.enqueued = 0.0
        self.queued = False          # in its lane's FIFO (guarded by lock)
        self.done = False
        self.value = None
        self.error: Optional[BaseException] = None


class Combiner:
    """Per-lane FIFOs with one leader per lane (all methods thread-safe).

    A caller :meth:`enqueue`\\ s its request, then calls :meth:`turn`: it
    returns the batch holding the request once the caller leads its lane
    — execute it, :meth:`settle` every request in it, then
    :meth:`release` the lane — or ``None`` once the request is settled
    (or abandoned past its deadline grace).  Checking, leading and waiting
    all happen under one condition lock, so a follower can never miss a
    leader's release.
    """

    def __init__(self, max_batch_size: int, max_queue_depth: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0 (0 = unbounded)")
        self.max_batch_size = int(max_batch_size)
        self.max_queue_depth = int(max_queue_depth)
        self.closed = False
        self._cond = threading.Condition(threading.Lock())
        self._queues: Dict[Tuple[ShardKey, bool], Deque[Request]] = {}
        self._led: Set[Tuple[ShardKey, bool]] = set()
        self._depth = 0              # queued specs across every lane
        # accounting lives in a repro.obs metrics registry shared with the
        # owning Server, so its stats()/healthz() read the same instruments
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._singles = self.metrics.counter("serve.singles_submitted")
        self._jobs = self.metrics.counter("serve.jobs_submitted")
        self._batches = self.metrics.counter("serve.batches_executed")
        self._coalesced_total = self.metrics.counter("serve.coalesced_total")
        self._max_coalesced = self.metrics.gauge("serve.max_coalesced")
        self._peak_depth = self.metrics.gauge("serve.peak_queue_depth")
        self._shed = self.metrics.counter("serve.shed")
        self._deadline_expired = self.metrics.counter("serve.deadline_expired")
        self._latency = self.metrics.histogram("serve.request_latency_s")

    # ------------------------------------------------------------------ #
    # caller side
    # ------------------------------------------------------------------ #
    def enqueue(self, request: Request) -> None:
        """Queue *request* at the tail of its lane, or raise
        :class:`ServerClosedError` / :class:`ServerOverloaded`."""
        incoming = len(request.specs)
        with self._cond:
            if self.closed:
                raise ServerClosedError(SHUTDOWN_MESSAGE)
            if self.max_queue_depth and \
                    self._depth + incoming > self.max_queue_depth:
                self._shed.inc(incoming)
                raise ServerOverloaded(
                    f"serving queue is full ({self._depth} pending, limit "
                    f"{self.max_queue_depth}); retry with backoff or raise "
                    "ServerConfig.max_queue_depth")
            request.enqueued = time.monotonic()
            request.queued = True
            self._queues.setdefault(request.lane, deque()).append(request)
            self._depth += incoming
            self._peak_depth.set_max(self._depth)
            (self._jobs if request.job else self._singles).inc()

    def turn(self, request: Request) -> Optional[List[Request]]:
        """Wait until *request* is settled or its caller leads its lane.

        Returns the batch holding *request* when the caller has become its
        lane's leader, or ``None`` when *request* is settled — including by
        this call, when its deadline passed while it was still queued — or
        has been abandoned past its deadline grace while another caller
        executes it.
        """
        if request.done:             # settled by a leader: nothing to wait for
            return None
        with self._cond:
            try:
                while not request.done:
                    now = time.monotonic()
                    due = request.deadline
                    if request.queued:
                        if due is not None and due <= now:
                            self._expire_locked(request)
                            return None
                        if request.lane not in self._led:
                            batch = self._take_locked(request, now)
                            if batch is not None:
                                return batch
                    elif due is not None:   # another leader executes it
                        due += RESULT_GRACE_S
                        if due <= now:
                            return None
                    self._cond.wait(None if due is None else due - now)
            except BaseException as error:
                # an interrupted caller must not leave its request queued
                # for a leader to run on behalf of nobody
                if request.queued:
                    self._withdraw_locked(request, error)
                raise
        return None

    def release(self, request: Request) -> None:
        """End the caller's turn as the leader of *request*'s lane and wake
        its waiters."""
        with self._cond:
            self._led.discard(request.lane)
            self._cond.notify_all()

    def settle(self, request: Request, value=None,
               error: Optional[BaseException] = None) -> None:
        """End *request*: record its latency, complete its trace, then
        publish the outcome (``done`` last: waiters read the rest after)."""
        self._latency.observe(time.monotonic() - request.enqueued)
        complete_trace(request.trace, error)
        request.value, request.error = value, error
        request.done = True

    def _take_locked(self, request: Request,
                     now: float) -> Optional[List[Request]]:
        """Lead *request*'s lane if the head batch — one job, or up to
        ``max_batch_size`` singles — holds *request*; queued requests of
        that batch whose deadline has passed are withdrawn, not run."""
        queue = self._queues[request.lane]
        head = list(islice(queue, 1 if request.job else self.max_batch_size))
        if request not in head:
            return None
        for queued in head:
            if queued.deadline is not None and queued.deadline <= now:
                self._expire_locked(queued)
        # *request* itself is live: turn() checked its deadline at `now`
        batch = [queued for queued in head if queued.queued]
        for taken in batch:
            queue.popleft()
            taken.queued = False
            self._depth -= len(taken.specs)
        if not request.job:
            self._max_coalesced.set_max(len(batch))
            self._coalesced_total.inc(len(batch))
        self._batches.inc()
        self._led.add(request.lane)
        return batch

    def _expire_locked(self, request: Request) -> None:
        self._deadline_expired.inc(len(request.specs))
        self._withdraw_locked(request, DeadlineExceeded(
            "request deadline expired while queued (no leader reached it "
            "in time)"))

    def _withdraw_locked(self, request: Request, error: BaseException) -> None:
        self._queues[request.lane].remove(request)
        request.queued = False
        self._depth -= len(request.specs)
        self._cond.notify_all()      # a new head, or wait_idle(), may wake
        self.settle(request, error=error)

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #
    def pending(self) -> int:
        """Requests queued across every lane (led batches excluded)."""
        with self._cond:
            return sum(len(queue) for queue in self._queues.values())

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or led.

        Returns ``False`` promptly when *timeout* expires — even with a
        wedged leader holding its lane forever, the caller gets control
        back within the timeout.  A ``timeout`` of 0 is an idleness poll.
        """
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._led or self._depth:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        """Refuse new work; requests already queued still run."""
        with self._cond:
            self.closed = True
