"""Per-layer timing from outside the program, by wrapping public functions.

:class:`Ledger` keeps one span stack per thread.  Each hooked call is a
span; the benchmark's own ``serve.request`` span wraps every request.  A
span's *self* time is its duration minus the time of the spans nested in
it, so the self times of one request add up to that request's time.  A
hooked call that runs outside every request (for example on a worker
thread) is an *orphan*: its time is counted, and it shows as a ledger gap.

Hooks are tolerant: a target that does not exist on this commit is left
out and reported as absent, so the same benchmark runs on commits that
delete internals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = "serve.request"

#: (span name, module, attribute path) of every hooked public function
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("clang.parse", "repro.clang.parser", "parse_source"),
    ("clang.analyze", "repro.clang.semantics", "analyze"),
    ("paragraph.build", "repro.paragraph.builder", "build_paragraph"),
    ("paragraph.encode", "repro.paragraph.encoders", "GraphEncoder.encode"),
    ("ml.predict", "repro.api.stages", "PredictStage.run"),
    ("gnn.pack", "repro.gnn.packing", "pack_graphs"),
    ("gnn.forward", "repro.gnn.models", "ParaGraphModel.forward_packed"),
    ("gnn.conv", "repro.gnn.rgat", "RGATConv.forward_packed"),
)


class _ThreadLedger:
    __slots__ = ("stack", "self_s", "total_s", "calls", "orphan_s")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.orphan_s = 0.0


class Ledger:
    """Span accounting shared by the hooks and the benchmark's callers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadLedger] = []
        self._lock = threading.Lock()

    def _mine(self) -> _ThreadLedger:
        mine = getattr(self._local, "ledger", None)
        if mine is None:
            mine = _ThreadLedger()
            self._local.ledger = mine
            with self._lock:
                self._threads.append(mine)
        return mine

    def enter(self, name: str) -> None:
        self._mine().stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        mine = self._mine()
        name, start, nested = mine.stack.pop()
        duration = end - start
        mine.self_s[name] += duration - nested
        mine.total_s[name] += duration
        mine.calls[name] += 1
        if mine.stack:
            mine.stack[-1][2] += duration
        elif name != ROOT:
            mine.orphan_s += duration

    def totals(self) -> dict:
        """Self seconds, total seconds and calls per span name, all threads."""
        merged = {"self_s": defaultdict(float), "total_s": defaultdict(float),
                  "calls": defaultdict(int), "orphan_s": 0.0}
        with self._lock:
            threads = list(self._threads)
        for mine in threads:
            for key in ("self_s", "total_s", "calls"):
                for name, value in getattr(mine, key).items():
                    merged[key][name] += value
            merged["orphan_s"] += mine.orphan_s
        return {key: dict(value) if isinstance(value, defaultdict) else value
                for key, value in merged.items()}


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` for a hook target, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if not callable(original):
        return None
    return owner, attribute, original


def _wrap(ledger: Ledger, name: str, function):
    @functools.wraps(function)
    def hooked(*args, **kwargs):
        ledger.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            ledger.exit()
    return hooked


class Hooks:
    """Install and remove the :data:`HOOKS` wrappers.

    A module-level function is replaced in every loaded ``repro`` module
    that bound it by name, so ``from x import f`` call sites see the hook.
    """

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._targets = []
        for name, module_name, path in HOOKS:
            resolved = _resolve(module_name, path)
            if resolved is None:
                self.absent.append(name)
            else:
                self._targets.append((name,) + resolved)
        self._undo: List[tuple] = []

    def install(self, ledger: Ledger) -> None:
        """Route every present hook's spans into *ledger*."""
        for name, owner, attribute, original in self._targets:
            hooked = _wrap(ledger, name, original)
            if isinstance(owner, type):
                setattr(owner, attribute, hooked)
                self._undo.append((owner, attribute, original))
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attribute, None) is original):
                    setattr(module, attribute, hooked)
                    self._undo.append((module, attribute, original))

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
