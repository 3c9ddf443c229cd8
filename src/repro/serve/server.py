"""The caller-runs serving runtime: one model set, many client threads.

A :class:`Server` owns the trained per-platform models of one
:class:`~repro.api.session.Session` and serves predictions on the
callers' own threads — it starts no threads of its own:

* **sharding** — requests are grouped per (platform, parse mode) shard,
  so each batch stays homogeneous,
* **leader combining** — a caller enqueues its request on one of its
  shard's two FIFO lanes (singles, jobs); when the batch at the head of
  the lane holds its request and no other caller is running that lane,
  it becomes the lane's leader and executes the batch (the
  :mod:`repro.serve.batching` policy) as one **packed** block-diagonal
  forward (:mod:`repro.gnn.packing`), whose float64 results are
  bit-identical to solo predictions regardless of batch composition.
  Single predictions submitted through :meth:`Server.submit` /
  :meth:`Server.predict` while their lane is busy coalesce into the next
  leader's batch of up to ``max_batch_size`` requests; a single never
  waits behind a job,
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
  ``default_deadline_s``); expired work is withdrawn from the queue before
  it burns a forward, and callers get
  :class:`~repro.reliability.errors.DeadlineExceeded`, never an unbounded
  wait,
* **retries** — transient execution failures (classified by
  :func:`~repro.reliability.errors.is_transient`) are retried with
  exponential backoff + jitter under a server-wide
  :class:`~repro.reliability.retry.RetryBudget`; deterministic failures
  (e.g. parse errors) fail fast,
* a per-shard **circuit breaker** — a persistently failing shard fails
  fast with :class:`~repro.reliability.errors.CircuitOpenError` instead
  of burning every caller's time,
* **load shedding** — ``max_queue_depth`` bounds the backlog; beyond it
  submissions raise :class:`~repro.reliability.errors.ServerOverloaded`.

The :class:`~repro.api.session.Session` facade embeds one server built
from :meth:`ServerConfig.from_env` (override with the ``REPRO_SERVE_*``
environment variables or an explicit :class:`ServerConfig`).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
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
from .batching import Combiner, Request, SHUTDOWN_MESSAGE, ShardKey

__all__ = ["Server", "ServerConfig", "ServerStats"]

#: environment knobs the default configuration reads (see SERVING.md)
MAX_BATCH_ENV = "REPRO_SERVE_MAX_BATCH"
DEADLINE_MS_ENV = "REPRO_SERVE_DEADLINE_MS"
MAX_QUEUE_ENV = "REPRO_SERVE_MAX_QUEUE"
MAX_RETRIES_ENV = "REPRO_SERVE_MAX_RETRIES"
BREAKER_THRESHOLD_ENV = "REPRO_SERVE_BREAKER_THRESHOLD"
BREAKER_RESET_MS_ENV = "REPRO_SERVE_BREAKER_RESET_MS"

#: frontend errors: the request's source text is bad, the shard is fine
INPUT_ERRORS = (LexError, ParseError, PragmaError, SemanticError)

#: why a caller gave up on a request another caller is still executing
_ABANDONED = ("request deadline expired while another caller was executing "
              "it (the result, if any, was abandoned)")


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


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the serving runtime.

    Parameters
    ----------
    max_batch_size:
        Upper bound on how many coalesced single predictions share one GNN
        forward.
    default_deadline_s:
        Deadline applied to requests that pass ``deadline_s=None``.
        ``None`` (the default) keeps such requests unbounded.
    max_queue_depth:
        Admission-control bound on queued requests (specs, summed across
        shards); beyond it submissions raise ``ServerOverloaded``.  ``0``
        (the default) is unbounded.
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
    """

    max_batch_size: int = 32
    default_deadline_s: Optional[float] = None
    max_queue_depth: int = 0
    max_retries: int = 2
    retry_backoff_s: float = 0.005
    retry_budget: float = 32.0
    breaker_threshold: int = 8
    breaker_reset_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
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
            max_batch_size=_env_int(MAX_BATCH_ENV, 32),
            default_deadline_s=deadline_ms / 1000.0 if deadline_ms > 0 else None,
            max_queue_depth=_env_int(MAX_QUEUE_ENV, 0),
            max_retries=_env_int(MAX_RETRIES_ENV, 2),
            breaker_threshold=_env_int(BREAKER_THRESHOLD_ENV, 8),
            breaker_reset_s=_env_float(BREAKER_RESET_MS_ENV, 5000.0) / 1000.0,
        )


class ServerStats(NamedTuple):
    """A snapshot of the runtime's accounting."""

    singles_submitted: int       # requests entered through submit()
    jobs_submitted: int          # explicit predict_batch jobs
    batches_executed: int        # batches leaders took from the queue
    requests_executed: int       # specs that reached a forward
    max_coalesced: int           # largest batch of singles formed
    coalesced_total: int         # singles that travelled in batches
    peak_depth: int              # max queued specs observed
    #: True when the session's model set was warm-started from a
    #: ``repro.store`` artifact instead of trained in-process.
    warm_started: bool = False
    shed: int = 0                # requests refused by admission control
    deadline_expired: int = 0    # specs dropped on an expired deadline
    failures: int = 0            # requests that returned an error
    retries: int = 0             # transient re-attempts performed
    breaker_rejections: int = 0  # requests refused by an open circuit
    breakers_open: int = 0       # shards currently failing fast
    queue_depth: int = 0         # queued requests at snapshot time


class Server:
    """Caller-runs, leader-combining serving runtime over one session.

    The server is a client of the session's *components* — its trained
    per-platform models and its lock-protected graph-construction cache —
    while the session's ``predict_batch`` facade is, in turn, a thin client
    of an embedded server: one execution path serves both the synchronous
    API and concurrent callers.  The server holds no threads, so
    :meth:`close` only stops admitting work.
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
        self._combiner = Combiner(self.config.max_batch_size,
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
        self._requests_executed = self.metrics.counter(
            "serve.requests_executed")
        self._queue_wait = self.metrics.histogram("serve.queue_wait_s")
        self._execute_wall = self.metrics.histogram("serve.execute_s")

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
        """Run one prediction on the calling thread; returns its settled
        future (the µs runtime, or the error that ended the request).

        Singles that other callers submit to the same shard while it is
        busy coalesce into one batch of up to ``max_batch_size``; a
        coalesced float64 result is **bit-identical** to a solo prediction
        no matter which companions it shared the forward with — the packed
        kernel keeps every BLAS call at solo shapes.

        *deadline_s* bounds the request end to end (queueing included):
        the caller only ever executes the batch holding its own request,
        and past the deadline the future holds :class:`DeadlineExceeded`
        (a request another caller is executing gets
        :data:`~repro.serve.batching.RESULT_GRACE_S` more).  Admission
        failures (:class:`ServerOverloaded`, :class:`CircuitOpenError`,
        :class:`ServerClosedError`) raise synchronously.
        """
        from ..api.stages import SourceSpec

        spec = SourceSpec.of(source, sizes=sizes, num_teams=num_teams,
                             num_threads=num_threads)
        trace = begin_trace("serve.request", kind="single")
        request = self._serve(trace, platform, snippet, deadline_s, [spec],
                              job=False)
        future: Future = Future()
        if not request.done:
            future.set_exception(DeadlineExceeded(_ABANDONED))
        elif request.error is not None:
            future.set_exception(request.error)
        else:
            future.set_result(request.value)
        return future

    def predict(self, source, platform, *, deadline_s: Optional[float] = None,
                **kwargs) -> float:
        """Synchronous single prediction (see :meth:`submit`)."""
        return float(self.submit(source, platform, deadline_s=deadline_s,
                                 **kwargs).result())

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
        request = self._serve(trace, platform, snippet, deadline_s,
                              list(specs), job=True)
        if not request.done:
            raise DeadlineExceeded(_ABANDONED)
        if request.error is not None:
            raise request.error
        return request.value

    def _serve(self, trace, platform, snippet: bool,
               deadline_s: Optional[float], specs: List, job: bool) -> Request:
        """Admit one request, then drive it to settlement on this thread —
        leading its lane for the batch that holds it, unless another
        leader settles it first."""
        request = self._admit(trace, platform, snippet, deadline_s, specs, job)
        batch = self._combiner.turn(request)
        if batch is not None:
            try:
                self._run_batch(batch)
            finally:
                self._combiner.release(request)
        return request

    def _admit(self, trace, platform, snippet, deadline_s, specs,
               job) -> Request:
        """The admission sequence, recorded as a ``serve.submit`` span;
        admission failures raise synchronously on the caller's thread and
        complete the request's trace with an error status."""
        submit_span = trace.root.child("serve.submit") \
            if trace is not None else None
        try:
            self._checked_open()
            fault_point(SITE_SUBMIT)
            deadline = self._absolute_deadline(deadline_s)
            # resolving the platform (and training, lazily) happens here so
            # submission errors surface where they were made
            key = ShardKey(self._ensure_trainer(platform), bool(snippet))
            self._checked_breaker(key)
            request = Request(key, specs, job, deadline, trace)
            self._combiner.enqueue(request)
        except BaseException as error:
            if submit_span is not None:
                submit_span.finish(error)
            complete_trace(trace, error)
            raise
        if trace is not None:
            submit_span.finish()
            trace.root.attributes.update(
                platform=key.platform, snippet=key.snippet)
        return request

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

    def _execute(self, key: ShardKey, specs: List) -> np.ndarray:
        """Run one batch end to end: cached encode + packed GNN forward."""
        from ..api.pipeline import Pipeline
        from ..api.stages import PredictStage

        trainer = self._trainers[key.platform]
        with obs_span("serve.encode", batch_size=len(specs)):
            encoded = self._session._encode_specs(specs, snippet=key.snippet)
        fault_point(SITE_FORWARD)
        context = Pipeline([PredictStage()]).run(encoded=encoded,
                                                 trainer=trainer)
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

    def _run_batch(self, batch: List[Request]) -> None:
        """Execute one batch on the leader's thread and settle every request
        in it — on every path, ``BaseException`` included, so no follower
        ever waits on a request that nobody holds."""
        try:
            self._execute_batch(batch)
        except BaseException as error:
            for request in batch:
                if not request.done:
                    self._combiner.settle(request, error=error)
            raise

    def _execute_batch(self, batch: List[Request]) -> None:
        now = time.monotonic()
        for request in batch:
            self._queue_wait.observe(now - request.enqueued)
        specs = [spec for request in batch for spec in request.specs]
        deadlines = [request.deadline for request in batch]
        # bound the batch only when *every* request is bounded — one short
        # deadline must not time out its unbounded neighbours
        deadline = None if None in deadlines else min(deadlines)
        self._requests_executed.inc(len(specs))
        shared = self._shared_span(batch, now, len(specs))
        # a lone request executes directly under its own root span
        lone = batch[0].trace.root if batch[0].trace is not None else None
        try:
            fault_point(SITE_WORKER)
            with activate_span(shared if len(batch) > 1 else lone):
                values = self._execute_with_retry(batch[0].key, specs,
                                                  deadline)
        except Exception as error:
            self._graft(shared, batch, error)
            if len(batch) > 1:
                self._run_alone(batch)
                return
            self._failures.inc(len(specs))
            self._combiner.settle(batch[0], error=error)
            return
        self._graft(shared, batch)
        for index, request in enumerate(batch):
            # a job is always alone in its batch; singles carry one spec each
            self._combiner.settle(request, values if request.job
                                  else float(values[index]))

    def _run_alone(self, batch: List[Request]) -> None:
        """The poisoned-batch split: a failed multi-request batch retries
        each request alone, so one bad request cannot fail its neighbours
        and surfaces its own original error."""
        for request in batch:
            retry_span = None
            if request.trace is not None:
                retry_span = request.trace.root.child(
                    "serve.execute", {"kind": "retry-single",
                                      "batch_size": len(request.specs)})
            try:
                with activate_span(retry_span):
                    values = self._execute_with_retry(
                        request.key, request.specs, request.deadline)
            except Exception as error:
                if retry_span is not None:
                    retry_span.finish(error)
                self._failures.inc(len(request.specs))
                self._combiner.settle(request, error=error)
            else:
                if retry_span is not None:
                    retry_span.finish()
                self._combiner.settle(request, float(values[0]))

    @staticmethod
    def _shared_span(batch: List[Request], now: float,
                     batch_size: int) -> Optional[Span]:
        """A coalesced batch's one detached ``serve.execute`` span, after
        recording each traced request's ``serve.queue`` wait (``None`` for
        a lone request or an untraced batch)."""
        if len(batch) == 1 or all(request.trace is None for request in batch):
            return None
        for request in batch:
            if request.trace is not None:
                request.trace.root.child(
                    "serve.queue", start_s=request.enqueued).finish(end_s=now)
        return Span("serve.execute", {"kind": "singles",
                                      "batch_size": batch_size})

    @staticmethod
    def _graft(shared: Optional[Span], batch: List[Request],
               error: Optional[BaseException] = None) -> None:
        """Finish the shared execute span and attach it to every traced
        request of the batch: they genuinely shared the work."""
        if shared is None:
            return
        shared.finish(error)
        for request in batch:
            if request.trace is not None:
                request.trace.root.children.append(shared)

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #
    def _checked_open(self) -> None:
        if self._combiner.closed:
            raise ServerClosedError(SHUTDOWN_MESSAGE)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or being executed.

        Returns ``True`` when the server went idle, ``False`` when
        *timeout* expired first — promptly, even if a leader is wedged
        mid-batch.
        """
        return self._combiner.wait_idle(timeout)

    def close(self) -> None:
        """Stop accepting work.  Requests already queued still run on
        their callers' threads; there is nothing to join."""
        self._combiner.close()

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
        def read(name: str) -> int:
            return int(self.metrics.get(name).value)

        return ServerStats(
            singles_submitted=read("serve.singles_submitted"),
            jobs_submitted=read("serve.jobs_submitted"),
            batches_executed=read("serve.batches_executed"),
            requests_executed=read("serve.requests_executed"),
            max_coalesced=read("serve.max_coalesced"),
            coalesced_total=read("serve.coalesced_total"),
            peak_depth=read("serve.peak_queue_depth"),
            warm_started=bool(getattr(self._session, "warm_started", False)),
            shed=read("serve.shed"),
            deadline_expired=read("serve.deadline_expired"),
            failures=read("serve.failures"),
            retries=read("serve.retries"),
            breaker_rejections=read("serve.breaker_rejections"),
            breakers_open=sum(1 for breaker in list(self._breakers.values())
                              if breaker.state == "open"),
            queue_depth=self._combiner.pending())

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
        if self._combiner.closed:
            status = "closed"
        elif stats.breakers_open:
            status = "degraded"
        else:
            status = "ok"
        executed = stats.requests_executed
        return {
            "status": status,
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
        return (f"Server(max_batch={self.config.max_batch_size}, "
                f"platforms={sorted(self._trainers)})")
