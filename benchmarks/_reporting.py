"""Persistence helpers for the benchmark harness.

pytest captures the stdout of passing tests, so every benchmark also appends
its regenerated table/figure to a per-run results file via :func:`report`.
Results files live under the git-ignored ``benchmarks/out/`` directory, one
file per benchmark session (``results_<timestamp>.txt``), so repeated runs
never append to — or silently grow — a single shared file.

Performance benchmarks additionally persist machine-readable numbers with
:func:`report_json`.  By default those land under ``benchmarks/out/`` too —
an ordinary benchmark run must never dirty the working tree — and only an
explicit ``REPRO_BENCH_RECORD=1`` run updates the *tracked*
``benchmarks/BENCH_<tag>.json`` records that CI jobs and later PRs diff
timings against.  Every record is stamped with the host it was taken on
(:func:`host_info`), so a timing is never read without its hardware.
"""

import ctypes
import json
import os
import time

import numpy

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: current session's results file; assigned by :func:`reset_results`.
_results_path = None


def results_path() -> str:
    """Path of this benchmark session's results file (creating ``out/``)."""
    global _results_path
    if _results_path is None:
        os.makedirs(OUT_DIR, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        _results_path = os.path.join(OUT_DIR,
                                     f"results_{stamp}_{os.getpid()}.txt")
    return _results_path


def reset_results() -> None:
    """Start a fresh per-run results file (called at session start)."""
    global _results_path
    _results_path = None
    results_path()


def report(text: str) -> None:
    """Print a regenerated table/figure and persist it to the run's file."""
    print(text)
    with open(results_path(), "a", encoding="utf-8") as handle:
        handle.write(text + "\n\n")


def record_enabled() -> bool:
    """Whether this run updates the tracked ``benchmarks/BENCH_*.json``."""
    return os.environ.get("REPRO_BENCH_RECORD", "").strip() not in {"", "0"}


def _blas_threads():
    """OpenBLAS's thread count, read from the library this process loaded
    (``None`` when no OpenBLAS is mapped or the platform has no
    ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted({line.split()[-1] for line in maps
                                if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                function = getattr(handle, symbol)
                function.argtypes = []
                function.restype = ctypes.c_int
                return function()
    return None


def host_info() -> dict:
    """Processor count plus the BLAS library and thread count numpy uses."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def report_json(filename: str, payload: dict) -> str:
    """Write *payload*, stamped with :func:`host_info` under ``"host"``, as
    pretty JSON; returns the path written.

    ``filename`` is conventionally ``BENCH_<tag>.json`` (e.g. ``BENCH_pr2.json``
    for the GNN-forward micro-benchmark).  The default destination is the
    git-ignored ``benchmarks/out/`` directory; set ``REPRO_BENCH_RECORD=1``
    to update the tracked record under ``benchmarks/`` instead (the one CI
    and later PRs diff against).
    """
    payload = dict(payload, host=host_info())
    if record_enabled():
        path = os.path.join(os.path.dirname(__file__), filename)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, filename)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
