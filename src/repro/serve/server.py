"""The concurrent serving runtime: one model set, many client threads.

A :class:`Server` owns the trained per-platform models of one
:class:`~repro.api.session.Session` and serves predictions from a pool of
worker threads:

* **sharding** — requests are grouped per (platform, parse mode) shard;
  any worker may execute any shard's next micro-batch, so hot platforms
  use the whole pool while each batch stays homogeneous,
* **micro-batching** — single predictions submitted through
  :meth:`Server.submit` / :meth:`Server.predict` coalesce into batches of
  up to ``max_batch_size`` requests within a ``batch_window_s`` window
  (the :mod:`repro.serve.batching` policy), amortising one GNN forward
  over many callers — by default a **packed** block-diagonal forward
  (:mod:`repro.gnn.packing`) whose float64 results are bit-identical to
  solo predictions regardless of batch composition,
* **whole-job batches** — :meth:`Server.predict_batch` executes the
  caller's request list as one unit, preserving its batch composition so
  float64 results are bit-identical to a single-threaded run,
* **re-entrant engine state** — every batch executes under a thread-local
  :class:`repro.nn.no_grad` (via the model's ``predict``), and all shared
  caches (graph construction, edge layouts, scatter matrices) are
  lock-protected, so no external serialization is needed anywhere.

The runtime also implements the **failure model** of
:mod:`repro.reliability` (knobs on :class:`ServerConfig`, degradation
table in SERVING.md):

* per-request **deadlines** — ``deadline_s`` on every entry point (or
  ``default_deadline_s``); expired work is dropped at dequeue time and
  callers get :class:`~repro.reliability.errors.DeadlineExceeded`, never
  an unbounded wait,
* **retries** — transient execution failures (classified by
  :func:`~repro.reliability.errors.is_transient`) are retried with
  exponential backoff + jitter under a server-wide
  :class:`~repro.reliability.retry.RetryBudget`; deterministic failures
  (e.g. parse errors) fail fast,
* a per-shard **circuit breaker** — a persistently failing shard fails
  fast with :class:`~repro.reliability.errors.CircuitOpenError` instead
  of consuming pool capacity,
* **load shedding** — ``max_queue_depth`` bounds the backlog; beyond it
  submissions raise :class:`~repro.reliability.errors.ServerOverloaded`.

With ``num_workers=0`` the server runs **inline**: no threads are started
and every call executes synchronously on the caller's thread through the
exact same execution path.  That is the default configuration the
:class:`~repro.api.session.Session` facade embeds (override with the
``REPRO_SERVE_*`` environment variables or an explicit
:class:`ServerConfig`).
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..clang import LexError, ParseError, PragmaError, SemanticError
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import (
    Span,
    activate_span,
    begin_trace,
    complete_trace,
    span as obs_span,
)
from ..reliability.breaker import CircuitBreaker
from ..reliability.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ServerClosedError,
)
from ..reliability.faults import (
    SITE_FORWARD,
    SITE_SUBMIT,
    SITE_WORKER,
    fault_point,
)
from ..reliability.retry import RetryBudget, RetryPolicy, call_with_retry
from .batching import (
    BatcherStats,
    MicroBatcher,
    SHUTDOWN_MESSAGE,
    ShardKey,
    WorkItem,
)

__all__ = ["Server", "ServerConfig", "ServerStats"]

#: environment knobs the default configuration reads (see SERVING.md)
WORKERS_ENV = "REPRO_SERVE_WORKERS"
MAX_BATCH_ENV = "REPRO_SERVE_MAX_BATCH"
WINDOW_MS_ENV = "REPRO_SERVE_WINDOW_MS"
DEADLINE_MS_ENV = "REPRO_SERVE_DEADLINE_MS"
MAX_QUEUE_ENV = "REPRO_SERVE_MAX_QUEUE"
MAX_RETRIES_ENV = "REPRO_SERVE_MAX_RETRIES"
BREAKER_THRESHOLD_ENV = "REPRO_SERVE_BREAKER_THRESHOLD"
BREAKER_RESET_MS_ENV = "REPRO_SERVE_BREAKER_RESET_MS"
PACKED_ENV = "REPRO_SERVE_PACKED"

#: frontend errors: the request's source text is bad, the shard is fine
INPUT_ERRORS = (LexError, ParseError, PragmaError, SemanticError)

#: extra slack predict()/predict_specs() grant a pooled future past its
#: deadline before declaring the request lost — covers the scheduler drop
#: propagating back without ever racing a healthy in-flight execution
_RESULT_GRACE_S = 0.25


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        # `from None`: the caller misconfigured an environment variable —
        # the actionable message is which knob, not the int() traceback
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


_BOOL_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return _BOOL_VALUES[raw.lower()]
    except KeyError:
        raise ValueError(
            f"{name} must be a boolean (1/0, true/false, yes/no, on/off), "
            f"got {raw!r}") from None


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the serving runtime.

    Parameters
    ----------
    num_workers:
        Size of the worker pool.  ``0`` (the default) runs inline on the
        caller's thread — the embedded-in-``Session`` configuration; any
        positive count starts that many daemon drain-loop threads.
    max_batch_size:
        Upper bound on how many coalesced single predictions share one GNN
        forward.
    batch_window_s:
        How long the oldest queued single prediction may wait for
        companions before its micro-batch is closed anyway.
    default_deadline_s:
        Deadline applied to requests that pass ``deadline_s=None``.
        ``None`` (the default) keeps such requests unbounded.
    max_queue_depth:
        Admission-control bound on pending queued requests (specs, summed
        across shards); beyond it submissions raise ``ServerOverloaded``.
        ``0`` (the default) is unbounded.
    max_retries:
        Re-attempts per execution for *transient* failures (deterministic
        failures always fail fast).  ``0`` disables retrying.
    retry_backoff_s:
        Base of the exponential backoff between retries (full jitter,
        capped at 50× the base).
    retry_budget:
        Capacity of the server-wide retry token bucket; every retry spends
        a token, every success drips half a token back.  Bounds retry
        amplification during a persistent outage.
    breaker_threshold:
        Consecutive execution failures that open a shard's circuit
        breaker.  ``0`` disables breakers entirely.  Input errors (source
        text the frontend rejects) fail only their own request and never
        count.
    breaker_reset_s:
        How long an open circuit waits before admitting a half-open trial.
    packed_forward:
        Execute every batch through the packed block-diagonal multi-graph
        forward (``Trainer.predict_packed``) instead of the per-batch
        dataset loop.  On (the default), float64 results stay bit-identical
        to solo predictions for *every* batch composition; switch off to
        serve through the legacy collated loop.
    """

    num_workers: int = 0
    max_batch_size: int = 32
    batch_window_s: float = 0.002
    default_deadline_s: Optional[float] = None
    max_queue_depth: int = 0
    max_retries: int = 2
    retry_backoff_s: float = 0.005
    retry_budget: float = 32.0
    breaker_threshold: int = 8
    breaker_reset_s: float = 5.0
    packed_forward: bool = True

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.default_deadline_s is not None and self.default_deadline_s < 0:
            raise ValueError("default_deadline_s must be >= 0 (or None)")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0 (0 = unbounded)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0 (0 disables)")
        if self.breaker_reset_s < 0:
            raise ValueError("breaker_reset_s must be >= 0")

    @classmethod
    def from_env(cls) -> "ServerConfig":
        """Defaults, overridable through the ``REPRO_SERVE_*`` variables."""
        deadline_ms = _env_float(DEADLINE_MS_ENV, 0.0)
        return cls(
            num_workers=_env_int(WORKERS_ENV, 0),
            max_batch_size=_env_int(MAX_BATCH_ENV, 32),
            batch_window_s=_env_float(WINDOW_MS_ENV, 2.0) / 1000.0,
            default_deadline_s=deadline_ms / 1000.0 if deadline_ms > 0 else None,
            max_queue_depth=_env_int(MAX_QUEUE_ENV, 0),
            max_retries=_env_int(MAX_RETRIES_ENV, 2),
            breaker_threshold=_env_int(BREAKER_THRESHOLD_ENV, 8),
            breaker_reset_s=_env_float(BREAKER_RESET_MS_ENV, 5000.0) / 1000.0,
            packed_forward=_env_bool(PACKED_ENV, True),
        )


def _drain_loop(batcher: MicroBatcher, server_ref) -> None:
    """Worker body: pull due micro-batches/jobs until shutdown.

    Module-level on purpose: worker threads hold only the batcher and a
    *weak* reference to the server, so an abandoned ``Server`` (and the
    session's trained models behind it) stays collectable — its
    ``weakref.finalize`` hook stops the batcher, which ends this loop.
    """
    while True:
        item = batcher.next_batch()
        if item is None:
            return
        server = server_ref()
        try:
            if server is None:
                error = ServerClosedError(SHUTDOWN_MESSAGE)
                for index, future in enumerate(item.futures):
                    if index < len(item.traces):
                        complete_trace(item.traces[index], error)
                    future.set_exception(error)
            else:
                server._run_item(item)
        finally:
            del server        # never carry a strong ref across the next wait
            batcher.task_done()


class ServerStats(NamedTuple):
    """A coherent snapshot of the runtime's accounting."""

    num_workers: int
    singles_submitted: int
    jobs_submitted: int
    batches_executed: int
    requests_executed: int
    max_coalesced: int
    coalesced_total: int
    peak_depth: int
    #: True when the session's model set was warm-started from a
    #: ``repro.store`` artifact instead of trained in-process.
    warm_started: bool = False
    shed: int = 0                # requests refused by admission control
    deadline_expired: int = 0    # requests dropped on an expired deadline
    failures: int = 0            # requests that returned an error
    retries: int = 0             # transient re-attempts performed
    breaker_rejections: int = 0  # requests refused by an open circuit
    breakers_open: int = 0       # shards currently failing fast
    queue_depth: int = 0         # pending work items at snapshot time

    @classmethod
    def of(cls, num_workers: int, stats: BatcherStats,
           warm_started: bool = False, *, deadline_dropped: int = 0,
           inline_executed: int = 0, failures: int = 0, retries: int = 0,
           breaker_rejections: int = 0, breakers_open: int = 0,
           queue_depth: int = 0) -> "ServerStats":
        return cls(
            num_workers=num_workers,
            singles_submitted=stats.singles_submitted,
            jobs_submitted=stats.jobs_submitted,
            batches_executed=stats.batches_executed,
            requests_executed=stats.requests_executed + inline_executed,
            max_coalesced=stats.max_coalesced,
            coalesced_total=stats.coalesced_total,
            peak_depth=stats.peak_depth,
            warm_started=warm_started,
            shed=stats.shed,
            deadline_expired=stats.deadline_expired + deadline_dropped,
            failures=failures,
            retries=retries,
            breaker_rejections=breaker_rejections,
            breakers_open=breakers_open,
            queue_depth=queue_depth,
        )


class Server:
    """Concurrent, micro-batching serving runtime over one trained session.

    The server is a client of the session's *components* — its trained
    per-platform models and its lock-protected graph-construction cache —
    while the session's ``predict_batch`` facade is, in turn, a thin client
    of an embedded inline server: one execution path serves both the
    legacy synchronous API and the concurrent runtime.

    Use as a context manager (or call :meth:`close`) when workers are
    enabled; with ``num_workers=0`` there is nothing to shut down.
    """

    def __init__(self, session, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig.from_env()
        self._session = session
        self._trainers: Dict[str, object] = {}
        self._trainers_lock = threading.Lock()
        #: per-server observability registry — stats()/healthz() are thin
        #: views over these instruments, and repro.obs.snapshot() folds the
        #: whole registry (percentile histograms included) into one document
        self.metrics = MetricsRegistry()
        self._batcher = MicroBatcher(self.config.max_batch_size,
                                     self.config.batch_window_s,
                                     self.config.max_queue_depth,
                                     metrics=self.metrics)
        self._retry_policy = RetryPolicy(
            max_retries=self.config.max_retries,
            backoff_s=self.config.retry_backoff_s,
            backoff_cap_s=max(self.config.retry_backoff_s * 50.0, 0.0))
        self._retry_budget = RetryBudget(capacity=self.config.retry_budget)
        self._breakers: Dict[ShardKey, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._failures = self.metrics.counter("serve.failures")
        self._retries = self.metrics.counter("serve.retries")
        self._breaker_rejections = self.metrics.counter(
            "serve.breaker_rejections")
        # expired at execution/inline time (queue-side expiries live in the
        # batcher's serve.deadline_expired_queue counter)
        self._deadline_dropped = self.metrics.counter(
            "serve.deadline_expired_exec")
        # specs executed on callers' threads (the inline, no-worker path)
        self._inline_executed = self.metrics.counter("serve.inline_executed")
        self._latency = self.metrics.histogram("serve.request_latency_s")
        self._queue_wait = self.metrics.histogram("serve.queue_wait_s")
        self._execute_wall = self.metrics.histogram("serve.execute_s")
        self._closed = False
        # if the server is dropped without close(), stop the queue so the
        # parked daemon workers exit instead of pinning batcher/threads
        # forever (they deliberately hold no strong reference to `self`)
        self._finalizer = weakref.finalize(self, self._batcher.stop)
        self._workers: List[threading.Thread] = []
        for index in range(self.config.num_workers):
            worker = threading.Thread(
                target=_drain_loop, args=(self._batcher, weakref.ref(self)),
                daemon=True, name=f"repro-serve-worker-{index}")
            worker.start()
            self._workers.append(worker)

    @classmethod
    def from_artifact(cls, path, config: Optional[ServerConfig] = None,
                      **load_kwargs) -> "Server":
        """Warm-start a server straight from a ``repro.store`` artifact.

        Loads the artifact into a fresh session (no retraining — cold
        start is artifact I/O, not minutes of training) and wraps it in a
        server; ``server.stats().warm_started`` reports the provenance.
        Forwarded *load_kwargs* reach ``repro.store.load_session`` (e.g.
        ``verify=False`` to skip checksums).
        """
        from ..store.artifact import load_session
        return cls(load_session(path, **load_kwargs), config)

    # ------------------------------------------------------------------ #
    # request entry points
    # ------------------------------------------------------------------ #
    def _shard_key(self, platform, snippet: bool) -> ShardKey:
        # resolving the platform (and training, lazily) happens on the
        # caller's thread so submission errors surface where they were made
        trainer_key = self._ensure_trainer(platform)
        return ShardKey(platform=trainer_key, snippet=bool(snippet))

    def _absolute_deadline(self, deadline_s: Optional[float]) -> Optional[float]:
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        if deadline_s is None:
            return None
        if deadline_s < 0:
            raise ValueError("deadline_s must be >= 0 (or None)")
        return time.monotonic() + float(deadline_s)

    def submit(self, source, platform, *, sizes=None, num_teams: int = 64,
               num_threads: int = 64, snippet: bool = False,
               deadline_s: Optional[float] = None) -> "Future[float]":
        """Queue one prediction; returns a future resolving to µs runtime.

        Queued singles coalesce with other callers' requests into
        micro-batches (see :class:`ServerConfig`).  Under the default
        packed forward (``packed_forward=True``) a float64 result is
        **bit-identical** to a solo prediction no matter which companions
        it coalesced with — the packed kernel keeps every BLAS call at
        solo shapes.  With ``packed_forward=False`` (legacy collated loop)
        the result matches a solo prediction only to BLAS rounding
        (~1e-14 relative in float64), because batch composition changes
        the GEMM shapes.

        *deadline_s* bounds the request end to end (queueing included);
        the future then resolves to :class:`DeadlineExceeded` instead of
        waiting forever.  Admission failures (:class:`ServerOverloaded`,
        :class:`CircuitOpenError`, :class:`ServerClosedError`) raise
        synchronously on the calling thread.
        """
        from ..api.stages import SourceSpec

        spec = SourceSpec.of(source, sizes=sizes, num_teams=num_teams,
                             num_threads=num_threads)
        trace = begin_trace("serve.request", kind="single")
        key, deadline = self._admit(trace, platform, snippet, deadline_s)
        if not self._workers:
            return self._inline_single(key, spec, deadline, trace)
        try:
            return self._batcher.enqueue_single(key, spec, deadline,
                                                trace=trace)
        except BaseException as error:   # shed / closed: typed, synchronous
            complete_trace(trace, error)
            raise

    def _admit(self, trace, platform, snippet, deadline_s):
        """The shared admission sequence, recorded as a ``serve.submit``
        span; admission failures raise synchronously on the caller's
        thread and complete the request's trace with an error status."""
        submit_span = trace.root.child("serve.submit") \
            if trace is not None else None
        try:
            self._checked_open()
            fault_point(SITE_SUBMIT)
            deadline = self._absolute_deadline(deadline_s)
            key = self._shard_key(platform, snippet)
            self._checked_breaker(key)
        except BaseException as error:
            if submit_span is not None:
                submit_span.finish(error)
            complete_trace(trace, error)
            raise
        if trace is not None:
            submit_span.finish()
            trace.root.attributes.update(
                platform=key.platform, snippet=key.snippet)
        return key, deadline

    def _inline_single(self, key: ShardKey, spec, deadline, trace) -> "Future":
        """Execute one submitted request on the caller's thread."""
        future: Future = Future()
        if deadline is not None and time.monotonic() >= deadline:
            self._count_deadline_dropped(1)
            error = DeadlineExceeded(
                "request deadline expired before execution")
            complete_trace(trace, error)
            future.set_exception(error)
            return future
        self._count_inline_executed(1)
        start = time.monotonic()
        try:
            with activate_span(trace.root if trace is not None else None):
                values = self._execute_with_retry(key, [spec], deadline)
        except Exception as error:  # KeyboardInterrupt etc. must propagate
            self._count_failures(1)
            self._latency.observe(time.monotonic() - start)
            complete_trace(trace, error)
            future.set_exception(error)  # on the caller's own thread
        else:
            self._latency.observe(time.monotonic() - start)
            complete_trace(trace)
            future.set_result(float(values[0]))
        return future

    def predict(self, source, platform, *, deadline_s: Optional[float] = None,
                **kwargs) -> float:
        """Synchronous single prediction through the micro-batching queue."""
        deadline = self._absolute_deadline(deadline_s)
        future = self.submit(source, platform, deadline_s=deadline_s, **kwargs)
        return float(self._await_future(future, deadline))

    def predict_batch(self, sources: Sequence, platform, *, sizes=None,
                      num_teams: int = 64, num_threads: int = 64,
                      snippet: bool = False,
                      deadline_s: Optional[float] = None) -> np.ndarray:
        """Predict runtimes (µs) for a batch of sources on one platform.

        The request list is executed as **one job** with its composition
        preserved, so for a fixed list the results are bit-identical to the
        single-threaded reference no matter how many other threads are
        hammering the server.  Coalescing applies only to :meth:`submit`
        singles.
        """
        from ..api.stages import SourceSpec

        specs = [SourceSpec.of(source, sizes=sizes, num_teams=num_teams,
                               num_threads=num_threads) for source in sources]
        return self.predict_specs(specs, platform, snippet=snippet,
                                  deadline_s=deadline_s)

    def predict_specs(self, specs: Sequence, platform, *, snippet: bool = False,
                      deadline_s: Optional[float] = None) -> np.ndarray:
        """:meth:`predict_batch` over prebuilt ``SourceSpec`` objects."""
        self._checked_open()
        if not specs:
            return np.zeros(0)
        trace = begin_trace("serve.request", kind="job",
                            batch_size=len(specs))
        key, deadline = self._admit(trace, platform, snippet, deadline_s)
        if not self._workers:
            if deadline is not None and time.monotonic() >= deadline:
                self._count_deadline_dropped(len(specs))
                error = DeadlineExceeded(
                    "batch deadline expired before execution")
                complete_trace(trace, error)
                raise error
            self._count_inline_executed(len(specs))
            start = time.monotonic()
            try:
                with activate_span(trace.root if trace is not None else None):
                    values = self._execute_with_retry(key, list(specs),
                                                      deadline)
            except Exception as error:
                self._count_failures(len(specs))
                self._latency.observe(time.monotonic() - start)
                complete_trace(trace, error)
                raise
            self._latency.observe(time.monotonic() - start)
            complete_trace(trace)
            return values
        try:
            future = self._batcher.enqueue_job(key, list(specs), deadline,
                                               trace=trace)
        except BaseException as error:   # shed / closed: typed, synchronous
            complete_trace(trace, error)
            raise
        return self._await_future(future, deadline)

    def _await_future(self, future: "Future", deadline: Optional[float]):
        """Resolve a queued future, never waiting meaningfully past its
        deadline (a wedged worker must not translate into a caller hang)."""
        if deadline is None:
            return future.result()
        remaining = max(deadline - time.monotonic(), 0.0)
        try:
            return future.result(timeout=remaining + _RESULT_GRACE_S)
        except FutureTimeoutError:
            raise DeadlineExceeded(
                "request deadline expired while awaiting a worker (the "
                "result, if any, was abandoned)") from None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _ensure_trainer(self, platform) -> str:
        """Resolve (training lazily, once) the trainer for *platform*;
        returns the canonical platform name."""
        from ..api.registries import resolve_platform

        name = resolve_platform(platform).name
        if name in self._trainers:      # lock-free steady state (GIL-atomic)
            return name
        # trainer_for runs outside our lock: the session's own train lock
        # already serializes lazy training, and holding _trainers_lock across
        # it would stall every other platform's submissions meanwhile
        trainer = self._session.trainer_for(name)
        with self._trainers_lock:
            self._trainers.setdefault(name, trainer)
        return name

    def _breaker_for(self, key: ShardKey) -> Optional[CircuitBreaker]:
        if not self.config.breaker_threshold:
            return None
        breaker = self._breakers.get(key)
        if breaker is None:
            with self._breakers_lock:
                breaker = self._breakers.setdefault(
                    key, CircuitBreaker(self.config.breaker_threshold,
                                        self.config.breaker_reset_s))
        return breaker

    def _checked_breaker(self, key: ShardKey) -> None:
        breaker = self._breaker_for(key)
        if breaker is not None and not breaker.allow():
            self._breaker_rejections.inc()
            raise CircuitOpenError(
                f"circuit breaker for shard {key!r} is open after repeated "
                f"failures; retrying after {self.config.breaker_reset_s:g}s "
                "admits a trial request")

    def _count_failures(self, n: int) -> None:
        self._failures.inc(n)

    def _count_deadline_dropped(self, n: int) -> None:
        self._deadline_dropped.inc(n)

    def _count_inline_executed(self, n: int) -> None:
        self._inline_executed.inc(n)

    def _execute(self, key: ShardKey, specs: List) -> np.ndarray:
        """Run one batch end to end: cached encode + batched GNN forward."""
        from ..api.pipeline import Pipeline
        from ..api.stages import PredictStage

        trainer = self._trainers[key.platform]
        with obs_span("serve.encode", batch_size=len(specs)):
            encoded = self._session._encode_specs(specs, snippet=key.snippet)
        fault_point(SITE_FORWARD)
        stage = PredictStage(packed=self.config.packed_forward)
        context = Pipeline([stage]).run(encoded=encoded, trainer=trainer)
        return context["predictions"]

    def _execute_with_retry(self, key: ShardKey, specs: List,
                            deadline: Optional[float] = None) -> np.ndarray:
        """One batch through the retry/breaker layer.

        Transient failures re-attempt under the policy and the server-wide
        budget; every outcome feeds the shard's circuit breaker — except
        :class:`DeadlineExceeded`, which reports the *caller's* budget, and
        frontend errors (:data:`INPUT_ERRORS`), which report the caller's
        source text; neither says anything about the shard's health.
        """
        breaker = self._breaker_for(key)

        def on_retry(error: BaseException, attempt: int) -> None:
            self._retries.inc()

        start = time.monotonic()
        try:
            values = call_with_retry(
                lambda: self._execute(key, specs),
                policy=self._retry_policy,
                budget=self._retry_budget,
                deadline=deadline,
                on_retry=on_retry)
        except Exception as error:
            self._execute_wall.observe(time.monotonic() - start)
            if breaker is not None and not isinstance(
                    error, (DeadlineExceeded,) + INPUT_ERRORS):
                breaker.record_failure()
            raise
        self._execute_wall.observe(time.monotonic() - start)
        if breaker is not None:
            breaker.record_success()
        return values

    def _run_item(self, item: WorkItem) -> None:
        # deadlines are re-checked at execution time: a request that expired
        # between dequeue and here must not burn a forward
        now = time.monotonic()
        traces = item.traces or (None,) * len(item.futures)
        enqueued = item.enqueued or (now,) * len(item.futures)
        for queued_at in enqueued:
            self._queue_wait.observe(max(now - queued_at, 0.0))
        for trace, queued_at in zip(traces, enqueued):
            if trace is not None:
                trace.root.child("serve.queue",
                                 start_s=queued_at).finish(end_s=now)
        if item.kind == "job":
            deadline = item.deadlines[0]
            if deadline is not None and deadline <= now:
                self._count_deadline_dropped(len(item.specs))
                error = DeadlineExceeded(
                    "batch deadline expired before execution")
                complete_trace(traces[0], error)
                item.futures[0].set_exception(error)
                return
            specs, futures, deadlines = item.specs, item.futures, item.deadlines
            live_traces, live_enqueued = list(traces), list(enqueued)
        else:
            specs, futures, deadlines = [], [], []
            live_traces, live_enqueued = [], []
            for spec, future, spec_deadline, trace, queued_at in zip(
                    item.specs, item.futures, item.deadlines, traces,
                    enqueued):
                if spec_deadline is not None and spec_deadline <= now:
                    self._count_deadline_dropped(1)
                    error = DeadlineExceeded(
                        "request deadline expired before execution")
                    complete_trace(trace, error)
                    future.set_exception(error)
                else:
                    specs.append(spec)
                    futures.append(future)
                    deadlines.append(spec_deadline)
                    live_traces.append(trace)
                    live_enqueued.append(queued_at)
            if not specs:
                return
        batch_deadline = None
        live_deadlines = [d for d in deadlines if d is not None]
        if item.kind == "job":
            batch_deadline = item.deadlines[0]
        elif live_deadlines and len(live_deadlines) == len(deadlines):
            # only bound the whole batch when *every* request is bounded —
            # one short deadline must not time out its unbounded neighbours
            batch_deadline = min(live_deadlines)
        # one shared execute span for the fused batch; it is grafted into
        # every live request's tree afterwards (requests coalesced into the
        # same forward genuinely share the work)
        execute = None
        if any(trace is not None for trace in live_traces):
            execute = Span("serve.execute", {"kind": item.kind,
                                             "batch_size": len(specs)})
        try:
            fault_point(SITE_WORKER)
            with activate_span(execute):
                values = self._execute_with_retry(item.key, specs,
                                                  batch_deadline)
        except BaseException as error:  # noqa: BLE001 - delivered to futures
            if execute is not None:
                execute.finish(error)
            self._graft(execute, live_traces)
            if item.kind == "singles" and len(specs) > 1:
                # a poisoned request must not fail its batch neighbours:
                # retry the coalesced singles individually
                for spec, future, spec_deadline, trace, queued_at in zip(
                        specs, futures, deadlines, live_traces,
                        live_enqueued):
                    retry_span = None
                    if trace is not None:
                        retry_span = Span("serve.execute",
                                          {"kind": "retry-single",
                                           "batch_size": 1})
                    try:
                        with activate_span(retry_span):
                            value = float(self._execute_with_retry(
                                item.key, [spec], spec_deadline)[0])
                    except BaseException as single_error:  # noqa: BLE001
                        self._count_failures(1)
                        self._finish_one(future, trace, retry_span,
                                         queued_at, error=single_error)
                    else:
                        self._finish_one(future, trace, retry_span,
                                         queued_at, value=value)
                return
            self._count_failures(len(specs))
            end = time.monotonic()
            for future, trace, queued_at in zip(futures, live_traces,
                                                live_enqueued):
                self._latency.observe(max(end - queued_at, 0.0))
                complete_trace(trace, error)
                future.set_exception(error)
            return
        if execute is not None:
            execute.finish()
        self._graft(execute, live_traces)
        end = time.monotonic()
        if item.kind == "job":
            self._latency.observe(max(end - live_enqueued[0], 0.0))
            complete_trace(live_traces[0])
            futures[0].set_result(np.asarray(values))
        else:
            for future, value, trace, queued_at in zip(futures, values,
                                                       live_traces,
                                                       live_enqueued):
                self._latency.observe(max(end - queued_at, 0.0))
                complete_trace(trace)
                future.set_result(float(value))

    @staticmethod
    def _graft(execute: Optional[Span], traces) -> None:
        """Attach the finished shared execute span to every live trace."""
        if execute is None:
            return
        for trace in traces:
            if trace is not None:
                trace.root.children.append(execute)

    def _finish_one(self, future: "Future", trace, retry_span,
                    queued_at: float, value=None, error=None) -> None:
        """Resolve one individually-retried single: graft its retry span,
        record latency, complete the trace, then settle the future."""
        if retry_span is not None:
            retry_span.finish(error)
            if trace is not None:
                trace.root.children.append(retry_span)
        self._latency.observe(max(time.monotonic() - queued_at, 0.0))
        complete_trace(trace, error)
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #
    def _checked_open(self) -> None:
        # the worker path gets this from MicroBatcher.stop(); the inline
        # path must enforce the same "closed servers reject work" contract
        if self._closed:
            raise ServerClosedError(SHUTDOWN_MESSAGE)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued request has finished executing.

        Returns ``True`` when the queue went idle, ``False`` when *timeout*
        expired first — promptly, even if a worker is wedged mid-batch.
        Draining a closed (or never-pooled) server is well-defined and
        returns ``True`` immediately: close() already drained the queue.
        """
        if not self._workers or self._closed:
            return True
        return self._batcher.wait_idle(timeout)

    def close(self) -> None:
        """Stop accepting work, finish the queue, and join the workers."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()        # batcher.stop(); shared with the GC path
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def session(self):
        """The session whose models and caches this server serves from."""
        return self._session

    def stats(self) -> ServerStats:
        """Queue/coalescing/reliability accounting (all-zero until traffic
        arrives), plus whether the model set was warm-started."""
        failures = self._failures.value
        retries = self._retries.value
        breaker_rejections = self._breaker_rejections.value
        deadline_dropped = self._deadline_dropped.value
        inline_executed = self._inline_executed.value
        breakers_open = sum(1 for breaker in list(self._breakers.values())
                            if breaker.state == "open")
        return ServerStats.of(
            self.config.num_workers, self._batcher.stats(),
            bool(getattr(self._session, "warm_started", False)),
            deadline_dropped=deadline_dropped,
            inline_executed=inline_executed,
            failures=failures,
            retries=retries,
            breaker_rejections=breaker_rejections,
            breakers_open=breakers_open,
            queue_depth=self._batcher.pending())

    def healthz(self) -> dict:
        """Liveness/degradation snapshot (the future gateway's health page).

        ``status`` is ``"ok"`` (serving normally), ``"degraded"`` (serving,
        but at least one shard's breaker is open) or ``"closed"``.
        """
        stats = self.stats()
        breakers = {
            f"{key.platform}[{'snippet' if key.snippet else 'full'}]":
                breaker.state
            for key, breaker in sorted(self._breakers.items())}
        if self._closed:
            status = "closed"
        elif stats.breakers_open:
            status = "degraded"
        else:
            status = "ok"
        executed = stats.requests_executed
        return {
            "status": status,
            "num_workers": stats.num_workers,
            "queue_depth": stats.queue_depth,
            "requests_executed": executed,
            "failures": stats.failures,
            "error_rate": stats.failures / executed if executed else 0.0,
            "retries": stats.retries,
            "shed": stats.shed,
            "deadline_expired": stats.deadline_expired,
            "breaker_rejections": stats.breaker_rejections,
            "breakers": breakers,
            "retry_budget_tokens": self._retry_budget.tokens,
            "warm_started": stats.warm_started,
        }

    def snapshot(self) -> dict:
        """The unified observability document for this server: stats(),
        healthz(), latency quantiles, cache stats, tracing and fault state,
        all in one versioned JSON-safe dict (see ``OBSERVABILITY.md``)."""
        from ..obs.snapshot import snapshot as obs_snapshot

        return obs_snapshot(server=self, session=self._session)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Server(workers={self.config.num_workers}, "
                f"max_batch={self.config.max_batch_size}, "
                f"window={self.config.batch_window_s * 1000:.1f}ms, "
                f"platforms={sorted(self._trainers)})")
