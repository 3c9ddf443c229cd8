"""Child-process side of the benchmark.

``run.py`` starts this module three ways, each in a fresh interpreter::

    python3 perfbench/worker.py build   WORKDIR WORKLOAD SEED
    python3 perfbench/worker.py setup   WORKDIR
    python3 perfbench/worker.py measure WORKDIR WORKLOAD SEED SECONDS TRACE WALL_S

* ``build`` trains the artifact (one epoch over a one-size sweep of the
  paper kernels, paper model on POWER9 + V100), saves it with
  ``Session.save`` and writes the workload's warm-up requests as JSON.
  It runs in its own process so training memory stays out of
  ``peak_rss_mb``.
* ``setup`` times one set-up: from ``import repro`` until the first timed
  request could be sent (``Session.load(verify=True)`` plus the warm-up).
* ``measure`` sets up the same way, replays timed rounds for SECONDS of
  timed work, checks every answer and writes the raw rounds as JSON.

Each command prints one JSON line on stdout; ``measure`` writes its raw
rounds to ``WORKDIR/measure.json``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gate import check_prediction, reference_prediction  # noqa: E402
from ledger import ROOT, Hooks, Ledger  # noqa: E402
from workloads import graphs_in, make_workload  # noqa: E402

ARTIFACT = "artifact"
WARMUP = "warmup.json"


# --------------------------------------------------------------------- #
def build(workdir: Path, workload: str, seed: int) -> dict:
    from repro.api import DataConfig, ModelConfig, ReproConfig, Session
    from repro.ml.trainer import TrainingConfig
    from repro.pipeline import SweepConfig

    start = time.perf_counter()
    config = ReproConfig(
        data=DataConfig(sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                                          thread_counts=(8,)),
                        platforms=("power9", "v100")),
        model=ModelConfig(),
        training=TrainingConfig(epochs=1))
    session = Session(config)
    session.train()
    saved = time.perf_counter()
    session.save(str(workdir / ARTIFACT))
    save_s = time.perf_counter() - saved
    build_s = time.perf_counter() - start
    chosen = make_workload(workload, seed)
    (workdir / WARMUP).write_text(json.dumps(
        {"batched": chosen.batched, "requests": chosen.warmup()}))
    return {"save_s": save_s, "build_s": build_s}


# --------------------------------------------------------------------- #
def _prepare(request: dict):
    """The request as ready-to-send calls, built before any timing."""
    from repro.api import SourceSpec

    calls = []
    for call in request["calls"]:
        specs = [SourceSpec(source=spec["source"], sizes=spec["sizes"],
                            num_teams=spec["num_teams"],
                            num_threads=spec["num_threads"])
                 for spec in call["specs"]]
        calls.append((call["platform"], specs))
    return calls


def _send(session, calls, batched: bool) -> list:
    values = []
    for platform, specs in calls:
        if batched:
            values.extend(session.predict_batch(specs, platform).tolist())
        else:
            for spec in specs:
                values.append(session.predict(
                    spec.source, platform, sizes=spec.sizes,
                    num_teams=spec.num_teams, num_threads=spec.num_threads))
    return values


def set_up(workdir: Path):
    """Time import -> load -> warm-up; returns ``(session, timings)``."""
    warm = json.loads((workdir / WARMUP).read_text())
    start = time.perf_counter()
    import repro  # noqa: F401  (the set-up clock starts before this import)
    from repro.api import Session
    from repro.serve import ServerConfig

    loading = time.perf_counter()
    session = Session.load(str(workdir / ARTIFACT), serve_config=ServerConfig(),
                           verify=True)
    load_s = time.perf_counter() - loading
    prepared = [_prepare(request) for request in warm["requests"]]
    for calls in prepared:
        _send(session, calls, warm["batched"])
    return session, {"setup_s": time.perf_counter() - start, "load_s": load_s}


# --------------------------------------------------------------------- #
class _Counters:
    """Public counters read before and after each round."""

    def __init__(self, session) -> None:
        self.session = session
        try:
            from repro.gnn import edge_layout_cache_info, packed_layout_cache_info
            self._layouts = {"edge_layout": edge_layout_cache_info,
                             "packed_layout": packed_layout_cache_info}
        except ImportError:
            self._layouts = {}

    def read(self) -> dict:
        values = {}
        info = self.session.cache_info()
        values["graph_cache_hits"], values["graph_cache_misses"] = info.hits, info.misses
        for name, read in self._layouts.items():
            info = read()
            values[f"{name}_hits"], values[f"{name}_misses"] = info.hits, info.misses
        stats = self.session.server().stats()
        values["serve_failures"], values["serve_retries"] = stats.failures, stats.retries
        return values


def steal_s() -> float:
    """Host steal time so far, from the ``cpu`` line of ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _reset_peak_rss() -> bool:
    """Reset this process's peak-RSS mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _peak_rss_mb() -> float:
    """Peak resident memory since the last reset, from ``VmHWM``."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _GcClock:
    """Accumulated garbage-collector pause time, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self._started = None

    def __call__(self, phase, info) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._started = now
        elif self._started is not None:
            self.pause_s += now - self._started
            self._started = None


def _run_round(session, prepared, batched: bool, ledger):
    """Send one round's requests back to back (a closed loop).

    Returns the round's wall seconds and one ``(latency_s, values, error)``
    per request.
    """
    outcomes = []
    start = time.perf_counter()
    for calls in prepared:
        began = time.perf_counter()
        if ledger is not None:
            ledger.enter(ROOT)
        try:
            values, error = _send(session, calls, batched), None
        except Exception as exc:  # counted as a failed operation
            values, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if ledger is not None:
                ledger.exit()
        outcomes.append((time.perf_counter() - began, values, error))
    return time.perf_counter() - start, outcomes


def measure(workdir: Path, name: str, seed: int, seconds: float, trace: bool,
            wall_s: float, reference=reference_prediction) -> dict:
    """Set up, replay rounds for *seconds* of timed work, check answers.

    With *trace*, odd rounds run with the ledger hooks installed (and at
    least one round of each kind runs).  *reference* computes the float64
    reference of one spec; the self-test plants a wrong one to prove the
    gate fails.
    """
    session, setup = set_up(workdir)
    stop_at = time.perf_counter() + wall_s
    workload = make_workload(name, seed)
    counters = _Counters(session)
    hooks = Hooks() if trace else None
    gc_clock = _GcClock()
    if trace:
        gc.callbacks.append(gc_clock)
    checked = {}          # request spec key -> (reference, node count)
    failures = []
    texts, graphs_sent = set(), 0
    rounds = []
    timed = 0.0
    index = 0
    # peak memory of the timed rounds only: the float64 checks between
    # rounds allocate more than serving does
    peak_rss_mb, rss_per_round = 0.0, True
    while ((timed < seconds or (trace and index < 2))
           and time.perf_counter() < stop_at):
        traced = trace and index % 2 == 1
        requests = workload.round(index)
        prepared = [_prepare(request) for request in requests]
        ledger = Ledger() if traced else None
        before = counters.read()
        gc_before = gc_clock.pause_s
        rss_per_round = _reset_peak_rss() and rss_per_round
        cpu_before = time.process_time()
        if traced:
            hooks.install(ledger)
        try:
            wall, outcomes = _run_round(session, prepared, workload.batched,
                                        ledger)
        finally:
            if traced:
                hooks.remove()
        cpu = time.process_time() - cpu_before
        peak_rss_mb = max(peak_rss_mb, _peak_rss_mb())
        after = counters.read()
        record = {
            "traced": traced, "wall_s": wall, "cpu_s": cpu,
            "gc_s": gc_clock.pause_s - gc_before,
            "requests": len(requests),
            "graphs": sum(graphs_in(r) for r in requests),
            "latency_s": [latency for latency, _, _ in outcomes],
            "counters": {k: after[k] - before[k] for k in after},
        }
        if ledger is not None:
            record["ledger"] = ledger.totals()
        rounds.append(record)
        timed += wall
        index += 1
        # newest first: the round's last graphs are still in the session's
        # LRU, so a round larger than the cache re-encodes only its oldest
        for request, (_, values, error) in reversed(list(zip(requests, outcomes))):
            graphs_sent += graphs_in(request)
            texts.update(spec["source"] for call in request["calls"]
                         for spec in call["specs"])
            problem = error or _check(session, request, values, checked,
                                      reference)
            if problem is not None:
                failures.append(problem)
    if not rss_per_round:   # no reset on this kernel: whole-process peak
        peak_rss_mb = _peak_rss_mb()
    if trace:
        gc.callbacks.remove(gc_clock)
    nodes = sorted(nodes for _, nodes in checked.values())
    result = {
        "setup": setup, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
        "peak_rss_scope": "timed rounds" if rss_per_round else "process",
        "attempted": sum(r["requests"] for r in rounds),
        "failed": len(failures), "failures": failures[:5],
        "nodes": nodes, "graphs_sent": graphs_sent,
        "distinct_texts": len(texts),
        "absent_hooks": hooks.absent if hooks else [],
        "host": host_info(),
    }
    (workdir / "measure.json").write_text(json.dumps(result))
    return {"rounds": len(rounds), "attempted": result["attempted"],
            "failed": result["failed"]}


def host_info() -> dict:
    """Processor count, BLAS library and threads, Python and numpy versions."""
    import ctypes
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps
                            if "blas" in line.lower() and ".so" in line})
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                function = getattr(handle, symbol)
                function.restype = ctypes.c_int
                threads = function()
                break
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "blas_env": {k: v for k, v in os.environ.items()
                         if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")},
            "python": platform.python_version(), "numpy": numpy.__version__}


def _check(session, request, values, checked, reference):
    """``None`` when every answer of *request* passes the gate."""
    specs = [(call["platform"], spec) for call in request["calls"]
             for spec in call["specs"]]
    if values is None or len(values) != len(specs):
        return f"expected {len(specs)} predictions, got {values!r}"
    for (platform, spec), served in zip(specs, values):
        key = (platform, spec["source"], tuple(sorted(spec["sizes"].items())),
               spec["num_teams"], spec["num_threads"])
        try:
            if key not in checked:
                checked[key] = reference(session, spec, platform)
            problem = check_prediction(float(served), checked[key][0])
        except Exception as exc:  # an exception is a failed operation
            problem = f"reference failed: {type(exc).__name__}: {exc}"
        if problem is not None:
            return problem
    return None


def main(argv) -> int:
    command, workdir = argv[0], Path(argv[1])
    if command == "build":
        result = build(workdir, argv[2], int(argv[3]))
    elif command == "setup":
        _, result = set_up(workdir)
    elif command == "measure":
        result = measure(workdir, argv[2], int(argv[3]), float(argv[4]),
                         argv[5] == "1", float(argv[6]))
    else:
        raise SystemExit(f"unknown command {command!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
