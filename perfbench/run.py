"""Source-to-prediction benchmark of the ParaGraph serving path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run:

1. builds the model artifact in a child process (``worker.py build``),
2. times :data:`SETUP_PROBES` set-ups, each in a fresh interpreter
   (``worker.py setup``),
3. measures the workload in one more fresh interpreter
   (``worker.py measure``): rounds of fixed work, every answer checked
   against a float64 reference outside the timed rounds,
4. prints a record line and then, as the last line, the result::

       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` every second round runs with the per-layer hooks of
``ledger.py`` installed; the metrics are the per-layer ones, and the
untraced rounds in between give ``trace.overhead_ratio``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import steal_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh-interpreter set-ups timed per run, besides the measuring one
SETUP_PROBES = 4
#: per-workload percentile of each round's request latencies whose median
#: over rounds is ``latency_tail_ms``: the second-slowest request of a
#: round (144, 17 and 24 requests)
TAIL_PERCENTILE = {"warm-singles-1c": 99.0, "cold-variant-sweep": 90.0,
                   "cold-novel-kernels": 95.0}
#: the traced layers' self times must add up to the traced request time
LEDGER_TOLERANCE = 0.02
#: the whole run, children included, ends within this many seconds
BUDGET_S = 170.0


def _child(args, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = max(deadline - time.monotonic(), 1.0)
    completed = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{completed.stderr[-4000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _percentile(values, q: float) -> float:
    """The smallest value with at least q% of *values* at or below it."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _sum(rounds, key) -> float:
    return sum(r["counters"].get(key, 0) for r in rounds)


def end_to_end(workload: str, measured: dict, probes) -> dict:
    """Medians over rounds, so a slow stretch of the host moves few rounds.

    Position ``i`` of every round holds the same kind of request, so the
    p50 is the median over positions of each position's median latency;
    the tail is the median over rounds of each round's
    :data:`TAIL_PERCENTILE` latency.
    """
    rounds = [r for r in measured["rounds"] if not r["traced"]]
    positions = zip(*(r["latency_s"] for r in rounds))
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "graphs_per_s": (statistics.median(r["graphs"] / r["wall_s"]
                                           for r in rounds), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(
            statistics.median(position) for position in positions), "ms"),
        "latency_tail_ms": (1000 * statistics.median(
            _percentile(r["latency_s"], TAIL_PERCENTILE[workload])
            for r in rounds), "ms"),
    }


def per_layer(measured: dict, build: dict, load_s: float, stolen_s: float):
    """Per-layer metrics of a traced run plus its ledger reconciliation."""
    traced = [r for r in measured["rounds"] if r["traced"]]
    plain = [r for r in measured["rounds"] if not r["traced"]]
    self_s, total_s, calls, orphan_s = {}, {}, {}, 0.0
    for r in traced:
        for name, value in r["ledger"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in r["ledger"]["total_s"].items():
            total_s[name] = total_s.get(name, 0.0) + value
        for name, value in r["ledger"]["calls"].items():
            calls[name] = calls.get(name, 0) + value
        orphan_s += r["ledger"]["orphan_s"]
    graphs = sum(r["graphs"] for r in traced)
    requests = sum(r["requests"] for r in traced)
    request_s = sum(sum(r["latency_s"]) for r in traced)
    absent = set(measured["absent_hooks"])

    def per_graph_ms(*names):
        if any(name in absent for name in names):
            return None
        return 1000 * sum(self_s.get(name, 0.0) for name in names) / graphs

    metrics = {
        "clang.parse_ms": (per_graph_ms("clang.parse", "clang.analyze"), "ms"),
        "clang.parses_per_graph": (
            None if "clang.parse" in absent
            else calls.get("clang.parse", 0) / graphs, "count"),
        "paragraph.build_ms": (per_graph_ms("paragraph.build"), "ms"),
        "paragraph.encode_ms": (per_graph_ms("paragraph.encode"), "ms"),
        "paragraph.nodes_p50": (statistics.median(measured["nodes"]), "count"),
        "paragraph.nodes_max": (max(measured["nodes"]), "count"),
        "api.graph_cache_hit_ratio": (_ratio(
            _sum(traced, "graph_cache_hits"),
            _sum(traced, "graph_cache_misses")), "ratio"),
        "gnn.pack_ms": (per_graph_ms("gnn.pack"), "ms"),
        "gnn.forward_ms": (
            None if "gnn.forward" in absent
            else 1000 * total_s.get("gnn.forward", 0.0) / graphs, "ms"),
        "gnn.conv_ms": (per_graph_ms("gnn.conv"), "ms"),
        "gnn.readout_head_ms": (
            None if {"gnn.forward", "gnn.conv"} & absent
            else per_graph_ms("gnn.forward"), "ms"),
        "gnn.graphs_per_forward": (
            None if "gnn.forward" in absent or not calls.get("gnn.forward")
            else graphs / calls["gnn.forward"], "count"),
        "gnn.edge_layout_hit_ratio": (_ratio(
            _sum(traced, "edge_layout_hits"),
            _sum(traced, "edge_layout_misses")), "ratio"),
        "gnn.packed_layout_hit_ratio": (_ratio(
            _sum(traced, "packed_layout_hits"),
            _sum(traced, "packed_layout_misses")), "ratio"),
        "ml.predict_self_ms": (per_graph_ms("ml.predict"), "ms"),
        "serve.self_ms": (per_graph_ms("serve.request"), "ms"),
        "serve.forwards_per_request": (
            None if "gnn.forward" in absent
            else calls.get("gnn.forward", 0) / requests, "count"),
        "serve.failures": (_sum(traced, "serve_failures"), "count"),
        "serve.retries": (_sum(traced, "serve_retries"), "count"),
        "store.save_s": (build["save_s"], "s"),
        "store.load_s": (load_s, "s"),
        "runtime.gc_pause_ms": (1000 * sum(r["gc_s"] for r in plain)
                                / sum(r["graphs"] for r in plain) * 1000, "ms"),
        "runtime.cpu_per_wall": (sum(r["cpu_s"] for r in plain)
                                 / sum(r["wall_s"] for r in plain), "ratio"),
        "runtime.steal_s": (stolen_s, "s"),
        "trace.request_ms": (1000 * request_s / graphs, "ms"),
        "trace.overhead_ratio": (
            statistics.median(r["graphs"] / r["wall_s"] for r in plain)
            / statistics.median(r["graphs"] / r["wall_s"] for r in traced),
            "ratio"),
    }
    accounted = sum(self_s.values())
    ledger = {"request_s": request_s, "self_s": accounted, "orphan_s": orphan_s,
              "gap": abs(request_s - accounted) / request_s,
              "tolerance": LEDGER_TOLERANCE,
              "layers_ms_per_graph": {name: 1000 * value / graphs
                                      for name, value in sorted(self_s.items())}}
    return metrics, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    steal_start = steal_s()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        build = _child(["build", workdir, args.workload, args.seed], deadline)
        setups = [_child(["setup", workdir], deadline)
                  for _ in range(SETUP_PROBES)]
        wall_s = deadline - time.monotonic() - 30.0
        _child(["measure", workdir, args.workload, args.seed, args.seconds,
                args.trace, wall_s], deadline)
        measured = json.loads((workdir / "measure.json").read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stolen_s = steal_s() - steal_start

    probes = setups + [measured["setup"]]
    load_s = statistics.median(probe["load_s"] for probe in probes)
    correct = measured["failed"] == 0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": measured["host"], "steal_s": stolen_s,
        "rounds": len(measured["rounds"]),
        "setups": probes,
        "inputs": _inputs(measured),
        "failures": measured["failures"],
        "peak_rss_scope": measured["peak_rss_scope"],
    }
    if args.trace:
        values, ledger = per_layer(measured, build, load_s, stolen_s)
        record["ledger"] = ledger
        record["absent"] = sorted(k for k, (v, _) in values.items() if v is None)
        correct = correct and ledger["gap"] <= LEDGER_TOLERANCE
    else:
        values = end_to_end(args.workload, measured, probes)
        record["tail_percentile"] = TAIL_PERCENTILE[args.workload]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items() if value is not None}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0


def _inputs(measured: dict) -> dict:
    """Properties of the inputs a change might cite a share of."""
    rounds = measured["rounds"]
    nodes = measured["nodes"]
    graphs = sum(r["graphs"] for r in rounds)
    return {
        "graphs_per_request": graphs / sum(r["requests"] for r in rounds),
        "nodes_per_graph": {"p50": statistics.median(nodes),
                            "p90": _percentile(nodes, 90), "max": max(nodes)},
        "session_cache_hit_share": _ratio(_sum(rounds, "graph_cache_hits"),
                                          _sum(rounds, "graph_cache_misses")),
        "distinct_texts_per_graph": measured["distinct_texts"]
        / measured["graphs_sent"],
    }


if __name__ == "__main__":
    sys.exit(main())
