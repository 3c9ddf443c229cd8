"""Per-request tracing: contextvar-backed span trees over the serving stack.

A :class:`Span` is one timed operation; spans nest into a tree rooted in a
:class:`Trace` — for the serving runtime, one trace per request::

    serve.request                      (root: submit -> settle)
      serve.submit                     admission + enqueue
      serve.queue                      enqueue -> taken (coalesced only)
      serve.execute                    shared batch execution (coalesced
                                       only; a lone request executes
                                       directly under its root)
        serve.encode                   cached graph construction
        stage.predict                  the PredictStage forward
          engine.pack                  block-diagonal packing
          engine.forward               the packed GNN forward

Tracing is **off by default** and mirrors the
:func:`~repro.reliability.faults.fault_point` fast path: :func:`span` is a
single global read returning a shared no-op context manager until a
:func:`trace_requests` scope installs a :class:`TraceCollector`.  The
current span travels in a :class:`contextvars.ContextVar`, so nested
instrumentation (store reads, pipeline stages, the packed forward)
attaches to whatever request is executing on that thread —
:func:`activate_span` re-roots the contextvar when a lane's leader
executes a batch holding requests that began on other threads.

Export is stable-schema JSON (:data:`TRACE_SCHEMA_VERSION`, integer
microsecond offsets, ``to_dict``/``from_dict`` fixpoint) plus a
compiler-style text renderer, the same reporting idiom as
:class:`repro.analysis.Report`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Trace",
    "TraceCollector",
    "TraceError",
    "TRACE_SCHEMA_VERSION",
    "activate_span",
    "active_collector",
    "begin_trace",
    "complete_trace",
    "current_span",
    "span",
    "trace_requests",
    "tracing_active",
]

#: schema of :meth:`Trace.to_dict` — bump on any breaking shape change.
TRACE_SCHEMA_VERSION = 1

#: allowed terminal statuses of a finished span.
_STATUSES = ("ok", "error")


class TraceError(ValueError):
    """A span tree violated the schema (export, import or validation)."""


def _clock() -> float:
    """The trace clock: ``time.monotonic()``, shared with the serving
    queue's enqueue/deadline timestamps so wait spans need no conversion."""
    return time.monotonic()


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Span:
    """One timed, named operation with attributes and child spans.

    Spans are built by the thread that owns the operation and finished
    exactly once (:meth:`finish` is idempotent); ``status`` is ``"ok"`` or
    ``"error"`` after finishing, ``None`` while in flight.
    """

    __slots__ = ("name", "attributes", "start_s", "end_s", "status",
                 "error", "children")

    def __init__(self, name: str, attributes: Optional[dict] = None,
                 start_s: Optional[float] = None) -> None:
        if not name:
            raise TraceError("spans need a non-empty name")
        self.name = str(name)
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.start_s = _clock() if start_s is None else float(start_s)
        self.end_s: Optional[float] = None
        self.status: Optional[str] = None
        self.error: Optional[str] = None
        self.children: List["Span"] = []

    # -------------------------------------------------------------- #
    def child(self, name: str, attributes: Optional[dict] = None,
              start_s: Optional[float] = None) -> "Span":
        """Create, attach and return a child span."""
        child = Span(name, attributes, start_s)
        self.children.append(child)
        return child

    def finish(self, error: Optional[BaseException] = None,
               end_s: Optional[float] = None) -> "Span":
        """Close the span (idempotent — the first close wins).

        *error* marks the span failed and records the exception's type and
        message; *end_s* backdates the close (synthesized wait spans).
        """
        if self.status is not None:
            return self
        self.end_s = _clock() if end_s is None else float(end_s)
        if self.end_s < self.start_s:
            self.end_s = self.start_s
        if error is None:
            self.status = "ok"
        else:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"
        return self

    @property
    def finished(self) -> bool:
        return self.status is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return _clock() - self.start_s
        return self.end_s - self.start_s

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named *name* in depth-first order (``None`` if absent)."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    # -------------------------------------------------------------- #
    def validate(self, _parent: Optional["Span"] = None) -> None:
        """Raise :class:`TraceError` unless the subtree is well-formed:
        every span finished with a legal status, non-negative duration,
        errors carried only by error spans, children inside the parent's
        window (1ms tolerance for cross-thread clock reads)."""
        if self.status not in _STATUSES:
            raise TraceError(
                f"span {self.name!r} is not finished (status {self.status!r})")
        if self.end_s is None or self.end_s < self.start_s:
            raise TraceError(f"span {self.name!r} has a negative duration")
        if (self.error is not None) != (self.status == "error"):
            raise TraceError(
                f"span {self.name!r}: error text and status disagree")
        if _parent is not None:
            epsilon = 1e-3
            if self.start_s < _parent.start_s - epsilon or \
                    (_parent.end_s is not None
                     and self.end_s > _parent.end_s + epsilon):
                raise TraceError(
                    f"span {self.name!r} leaks outside its parent "
                    f"{_parent.name!r}'s window")
        for child in self.children:
            child.validate(self)

    # -------------------------------------------------------------- #
    def to_dict(self, origin: Optional[float] = None) -> dict:
        """JSON-safe export; times are integer microseconds relative to
        *origin* (default: this span's start), so the round trip through
        :meth:`from_dict` is an exact fixpoint."""
        origin = self.start_s if origin is None else origin
        end_s = self.start_s if self.end_s is None else self.end_s
        start_us = round((self.start_s - origin) * 1e6)
        return {
            "name": self.name,
            "start_us": start_us,
            "duration_us": round((end_s - origin) * 1e6) - start_us,
            "status": self.status,
            "error": self.error,
            "attributes": {str(key): _json_safe(value)
                           for key, value in self.attributes.items()},
            "children": [child.to_dict(origin) for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        if not isinstance(payload, dict):
            raise TraceError(f"span payload must be a dict, got "
                             f"{type(payload).__name__}")
        for field in ("name", "start_us", "duration_us", "status",
                      "attributes", "children"):
            if field not in payload:
                raise TraceError(f"span payload is missing field {field!r}")
        start_us = int(payload["start_us"])
        duration_us = int(payload["duration_us"])
        if duration_us < 0:
            raise TraceError(
                f"span {payload['name']!r} has negative duration_us")
        span = cls(payload["name"], dict(payload["attributes"]),
                   start_s=start_us / 1e6)
        span.end_s = (start_us + duration_us) / 1e6
        status = payload["status"]
        if status not in _STATUSES:
            raise TraceError(
                f"span {payload['name']!r} has illegal status {status!r}")
        span.status = status
        span.error = payload.get("error")
        span.children = [cls.from_dict(child)
                         for child in payload["children"]]
        return span

    # -------------------------------------------------------------- #
    def render(self, indent: int = 0) -> str:
        """Compiler-style text tree (durations in ms, errors inline)."""
        marker = "✗" if self.status == "error" else "•"
        line = (f"{'  ' * indent}{marker} {self.name}  "
                f"[{self.duration_s * 1e3:.3f} ms]")
        if self.attributes:
            parts = ", ".join(f"{key}={_json_safe(value)}"
                              for key, value in sorted(self.attributes.items()))
            line += f"  {{{parts}}}"
        if self.error:
            line += f"  !! {self.error}"
        return "\n".join([line] + [child.render(indent + 1)
                                   for child in self.children])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Span({self.name!r}, status={self.status!r}, "
                f"children={len(self.children)})")


class Trace:
    """One request's span tree plus its delivery state.

    Created by :meth:`TraceCollector.begin`; closed exactly once via
    :meth:`complete` (idempotent), which finishes the root and delivers
    the trace to its collector.
    """

    __slots__ = ("trace_id", "root", "_collector", "_lock", "_delivered")

    def __init__(self, trace_id: str, root: Span,
                 collector: Optional["TraceCollector"] = None) -> None:
        self.trace_id = trace_id
        self.root = root
        self._collector = collector
        self._lock = threading.Lock()
        self._delivered = False

    def complete(self, error: Optional[BaseException] = None) -> None:
        """Finish the root span and deliver the trace (first call wins)."""
        with self._lock:
            if self._delivered:
                return
            self._delivered = True
        self.root.finish(error)
        if self._collector is not None:
            self._collector._deliver(self)

    @property
    def completed(self) -> bool:
        return self._delivered

    def validate(self) -> None:
        self.root.validate()

    # -------------------------------------------------------------- #
    def to_dict(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "root": self.root.to_dict(origin=self.root.start_s),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Trace":
        if not isinstance(payload, dict):
            raise TraceError("trace payload must be a dict")
        version = payload.get("schema_version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceError(
                f"unsupported trace schema_version {version!r} (this build "
                f"reads version {TRACE_SCHEMA_VERSION})")
        if "trace_id" not in payload or "root" not in payload:
            raise TraceError("trace payload needs trace_id and root fields")
        trace = cls(str(payload["trace_id"]),
                    Span.from_dict(payload["root"]))
        trace._delivered = True
        return trace

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise TraceError(f"trace JSON does not parse: {error}") from error
        return cls.from_dict(payload)

    def render(self) -> str:
        """Text tree with a trace header (the ``analysis.Report`` idiom)."""
        return f"trace {self.trace_id}\n{self.root.render(indent=1)}"


class TraceCollector:
    """Bounded ring buffer of completed traces plus begin/complete counts.

    Thread-safe; keeps the most recent *capacity* traces (older completions
    are counted in ``dropped``), so tracing a long-lived server cannot grow
    memory without bound.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._traces: "deque[Trace]" = deque()
        self._sequence = 0
        self._began = 0
        self._completed = 0
        self._dropped = 0

    def begin(self, name: str, **attributes) -> Trace:
        """Start a new trace rooted in a span named *name*."""
        with self._lock:
            self._sequence += 1
            self._began += 1
            trace_id = f"t{self._sequence:06d}"
        return Trace(trace_id, Span(name, attributes), collector=self)

    def _deliver(self, trace: Trace) -> None:
        with self._lock:
            self._completed += 1
            self._traces.append(trace)
            while len(self._traces) > self.capacity:
                self._traces.popleft()
                self._dropped += 1

    # -------------------------------------------------------------- #
    @property
    def began(self) -> int:
        with self._lock:
            return self._began

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def traces(self) -> List[Trace]:
        """The retained completed traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def drain(self) -> List[Trace]:
        """Return and forget the retained traces."""
        with self._lock:
            traces = list(self._traces)
            self._traces.clear()
            return traces

    def stats(self) -> dict:
        with self._lock:
            return {"began": self._began, "completed": self._completed,
                    "dropped": self._dropped, "retained": len(self._traces),
                    "capacity": self.capacity}


# ------------------------------------------------------------------ #
# global activation (fault_point-style) + the ambient current span
# ------------------------------------------------------------------ #
#: the active collector; ``None`` (the default) makes span() a no-op.
_COLLECTOR: Optional[TraceCollector] = None
_ACTIVATION_LOCK = threading.Lock()

_CURRENT: "ContextVar[Optional[Span]]" = ContextVar("repro_obs_span",
                                                    default=None)


def tracing_active() -> bool:
    return _COLLECTOR is not None


def active_collector() -> Optional[TraceCollector]:
    return _COLLECTOR


def current_span() -> Optional[Span]:
    """The span the calling context is executing under (``None`` outside
    any traced operation)."""
    return _CURRENT.get()


@contextmanager
def trace_requests(capacity: int = 512,
                   collector: Optional[TraceCollector] = None
                   ) -> Iterator[TraceCollector]:
    """Activate request tracing for the duration of the ``with`` block.

    Yields the :class:`TraceCollector` receiving completed traces.  Scopes
    do not nest (the :func:`~repro.reliability.faults.inject_faults` rule):
    a tracing experiment must be explicit about which collector is live.
    """
    global _COLLECTOR
    collector = collector if collector is not None \
        else TraceCollector(capacity)
    with _ACTIVATION_LOCK:
        if _COLLECTOR is not None:
            raise RuntimeError(
                "a TraceCollector is already active; tracing scopes do "
                "not nest")
        _COLLECTOR = collector
    try:
        yield collector
    finally:
        with _ACTIVATION_LOCK:
            _COLLECTOR = None


class _NullSpanContext:
    """Shared no-op context manager — the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager entering a child of the current span.

    With no current span (tracing active, but the operation is not inside
    a request — e.g. an artifact save on the main thread) the span roots
    its own single-operation trace so store reads/writes are observable
    outside serving too.
    """

    __slots__ = ("_name", "_attributes", "_collector", "_span", "_trace",
                 "_token")

    def __init__(self, name: str, attributes: dict,
                 collector: TraceCollector) -> None:
        self._name = name
        self._attributes = attributes
        self._collector = collector
        self._span: Optional[Span] = None
        self._trace: Optional[Trace] = None
        self._token = None

    def __enter__(self) -> Span:
        parent = _CURRENT.get()
        if parent is None:
            self._trace = self._collector.begin(self._name,
                                                **self._attributes)
            self._span = self._trace.root
        else:
            self._span = parent.child(self._name, self._attributes)
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        if self._trace is not None:
            self._trace.complete(exc)
        else:
            self._span.finish(exc)
        return False


def span(name: str, **attributes):
    """Instrument one operation: ``with span("store.read", path=p): ...``.

    With no active collector this returns a shared no-op context manager —
    one global read, cheap enough for any hot path (the obs-overhead
    benchmark guards it).  Otherwise the operation becomes a child of the
    calling context's current span, or the root of a fresh mini-trace.
    """
    collector = _COLLECTOR
    if collector is None:
        return _NULL_SPAN
    return _SpanContext(name, attributes, collector)


@contextmanager
def activate_span(target: Optional[Span]) -> Iterator[Optional[Span]]:
    """Make *target* the calling context's current span for the block.

    A serving leader uses this to re-root tracing when it executes a
    request that was submitted (and whose trace was begun) on another
    thread; ``None`` is accepted and is a no-op, so call sites need no
    tracing-enabled conditionals.
    """
    if target is None:
        yield None
        return
    token = _CURRENT.set(target)
    try:
        yield target
    finally:
        _CURRENT.reset(token)


# ------------------------------------------------------------------ #
# request-trace helpers (the serve runtime's entry points)
# ------------------------------------------------------------------ #
def begin_trace(name: str, **attributes) -> Optional[Trace]:
    """Begin a request trace when tracing is active (else ``None``).

    One global read on the disabled path; the serving runtime threads the
    returned handle through the queue so whichever thread resolves the
    request can :func:`complete_trace` it.
    """
    collector = _COLLECTOR
    if collector is None:
        return None
    return collector.begin(name, **attributes)


def complete_trace(trace: Optional[Trace],
                   error: Optional[BaseException] = None) -> None:
    """Complete *trace* (no-op on ``None``; idempotent otherwise)."""
    if trace is not None:
        trace.complete(error)
