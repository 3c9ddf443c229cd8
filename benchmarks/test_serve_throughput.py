"""Serving-runtime throughput/latency benchmark: 1/2/4 workers vs inline.

The PR 3 soak (``test_synth_corpus_soak.py``) measures the single-threaded
``Session.predict_batch`` ceiling; this benchmark measures what the
``repro.serve`` worker pool adds on the same corpus workload:

* **baseline** — the inline facade serving warm corpus waves from one
  thread (the PR 3 soak shape),
* **pooled** — 4 client threads hammering a shared :class:`repro.serve.Server`
  with the same waves at 1, 2 and 4 workers; per-call latencies give the
  p50/p95/p99 tails,
* **coalescing** — a wave of single ``submit`` calls, recording how many
  micro-batches the window/size policy formed.

Machine-readable output goes to ``benchmarks/BENCH_pr4_serve.json``
(including the PR 3 warm-soak number when its JSON is present, for
cross-PR comparison).  ``REPRO_BENCH_QUICK=1`` shrinks the workload for
CI smoke jobs.

Worker threads parallelise the BLAS-dominated GNN forwards (NumPy releases
the GIL inside them), so the scaling gate is hardware-aware: on a
multi-core machine the pool must beat one worker; on a single-core box
(where thread scaling is physically impossible) the gate degrades to
"no pathological collapse" and the JSON records ``cpu_count`` so readers
can interpret the numbers.
"""

import json
import os
import time
import threading

import numpy as np

from _reporting import report, report_json
from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.ml.trainer import TrainingConfig
from repro.pipeline import SweepConfig
from repro.serve import Server, ServerConfig
from repro.synth import build_corpus

PLATFORM = "v100"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

CORPUS_SIZE = 8 if QUICK else 24
CLIENT_THREADS = 4
PASSES_PER_CLIENT = 2 if QUICK else 4
WORKER_COUNTS = (1, 2, 4)


def make_trained_session() -> Session:
    config = ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul"), get_kernel("matvec")]),
            platforms=(PLATFORM,),
        ),
        # serving-weight model: wide enough that the forward is BLAS-bound
        # (the parallelisable fraction), as a real serving model would be
        model=ModelConfig(hidden_dim=32),
        training=TrainingConfig(epochs=3, batch_size=16,
                                learning_rate=2e-3, seed=0),
        seed=0,
    )
    session = Session(config)
    session.train()
    return session


def percentile_ms(latencies, q) -> float:
    return float(np.percentile(np.asarray(latencies) * 1000.0, q))


def run_clients(server: Server, requests, expected) -> dict:
    """4 client threads × PASSES_PER_CLIENT warm waves; returns rate + tails."""
    latencies = []
    lock = threading.Lock()
    errors = []

    def client() -> None:
        try:
            for _ in range(PASSES_PER_CLIENT):
                start = time.perf_counter()
                got = server.predict_batch(requests, PLATFORM)
                elapsed = time.perf_counter() - start
                np.testing.assert_array_equal(got, expected)
                with lock:
                    latencies.append(elapsed)
        except Exception as error:  # noqa: BLE001 - surfaced by the assert below
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    assert not errors, errors[0]

    total_requests = CLIENT_THREADS * PASSES_PER_CLIENT * len(requests)
    return {
        "requests_per_s": total_requests / max(wall_s, 1e-9),
        "wall_s": wall_s,
        "p50_ms": percentile_ms(latencies, 50),
        "p95_ms": percentile_ms(latencies, 95),
        "p99_ms": percentile_ms(latencies, 99),
    }


def test_serve_throughput_scales_with_workers(benchmark):
    session = make_trained_session()
    corpus = build_corpus(CORPUS_SIZE, seed=2026)
    requests = corpus.sources()

    # warm the construction cache + layout/scatter caches, pin the reference
    expected = session.predict_batch(requests, PLATFORM)

    # single-threaded inline baseline: the PR 3 soak shape
    baseline_passes = CLIENT_THREADS * PASSES_PER_CLIENT
    start = time.perf_counter()
    for _ in range(baseline_passes):
        np.testing.assert_array_equal(
            session.predict_batch(requests, PLATFORM), expected)
    baseline_s = time.perf_counter() - start
    baseline_rps = baseline_passes * len(requests) / max(baseline_s, 1e-9)

    results = {}
    for workers in WORKER_COUNTS:
        config = ServerConfig(num_workers=workers, max_batch_size=32,
                              batch_window_s=0.001)
        with Server(session, config) as server:
            results[workers] = run_clients(server, requests, expected)

    # micro-batch coalescing shape, recorded for the JSON report
    with Server(session, ServerConfig(num_workers=2, max_batch_size=16,
                                      batch_window_s=0.01)) as server:
        futures = [server.submit(spec, PLATFORM) for spec in requests]
        for future in futures:
            future.result(timeout=60)
        coalescing = server.stats()

    benchmark.pedantic(
        lambda: session.predict_batch(requests, PLATFORM),
        rounds=1, iterations=1)

    lines = [f"serving throughput ({len(requests)} kernels/wave, "
             f"{CLIENT_THREADS} client threads x {PASSES_PER_CLIENT} waves, "
             "float64, warm cache):",
             f"  inline single-thread baseline : {baseline_rps:8.0f} req/s"]
    for workers, row in results.items():
        lines.append(
            f"  {workers} worker(s)                   : "
            f"{row['requests_per_s']:8.0f} req/s   "
            f"p50 {row['p50_ms']:6.1f} ms  p95 {row['p95_ms']:6.1f} ms  "
            f"p99 {row['p99_ms']:6.1f} ms")
    best = max(WORKER_COUNTS,
               key=lambda workers: results[workers]["requests_per_s"])
    scaling = results[best]["requests_per_s"] / results[1]["requests_per_s"]
    cores = os.cpu_count() or 1
    lines.append(f"  best pool ({best} workers) vs 1    : {scaling:8.2f}x "
                 f"({cores} CPU core(s) available)")
    lines.append(f"  singles coalesced             : "
                 f"{coalescing.singles_submitted} requests into "
                 f"{coalescing.batches_executed} micro-batches "
                 f"(max {coalescing.max_coalesced})")
    report("\n".join(lines))

    pr3_path = os.path.join(os.path.dirname(__file__), "BENCH_pr3_synth_soak.json")
    pr3_warm_rps = None
    if os.path.exists(pr3_path):
        with open(pr3_path, encoding="utf-8") as handle:
            pr3_warm_rps = json.load(handle).get("warm_requests_per_s")

    report_json("BENCH_pr4_serve.json", {
        "corpus_size": len(requests),
        "client_threads": CLIENT_THREADS,
        "passes_per_client": PASSES_PER_CLIENT,
        "cpu_count": cores,
        "baseline_single_thread_rps": baseline_rps,
        "pr3_soak_warm_rps": pr3_warm_rps,
        "workers": {str(workers): row for workers, row in results.items()},
        "best_workers": best,
        "best_vs_single_worker": scaling,
        "coalescing": {
            "singles_submitted": coalescing.singles_submitted,
            "batches_executed": coalescing.batches_executed,
            "max_coalesced": coalescing.max_coalesced,
        },
        "quick_mode": QUICK,
    })

    # every configuration served bit-identical results (asserted per wave);
    # on parallel hardware the pool must beat one worker, on a single core
    # it must at least not collapse under the contention
    rates = {workers: round(row["requests_per_s"])
             for workers, row in results.items()}
    if cores >= 2:
        assert results[best]["requests_per_s"] > results[1]["requests_per_s"], (
            f"multi-worker throughput did not exceed the single-worker "
            f"baseline on {cores} cores: {rates}")
    else:
        assert results[best]["requests_per_s"] >= \
            0.6 * results[1]["requests_per_s"], (
            f"worker-pool overhead collapsed throughput on 1 core: {rates}")
    assert coalescing.max_coalesced >= 2, "micro-batching never coalesced"


PACKED_ROUNDS = 6 if QUICK else 10


def test_packed_forward_beats_per_graph_loop(benchmark):
    """PR 8 tentpole gate: the packed block-diagonal forward must serve a
    batch faster than predicting its graphs one by one, while staying
    float64 bit-identical to that per-graph loop.

    Three arms, interleaved round-robin with min-of-N per arm (a noisy
    neighbour inflates every arm instead of biasing one):

    * **per-graph loop** — one ``predict_batch([spec])`` call per request,
      the pre-PR-8 parity reference each packed result must match bit for
      bit,
    * **legacy collated** — ``packed_forward=False``: the old concatenated
      multi-graph forward whose scaling regression this PR fixes,
    * **packed** — the default ``packed_forward=True`` path: one fused
      block-diagonal forward per wave.
    """
    session = make_trained_session()
    requests = build_corpus(CORPUS_SIZE, seed=2026).sources()

    packed_server = Server(session, ServerConfig(num_workers=0))
    legacy_server = Server(session, ServerConfig(num_workers=0,
                                                packed_forward=False))

    def per_graph_wave():
        return np.concatenate([
            legacy_server.predict_batch([spec], PLATFORM)
            for spec in requests])

    def legacy_wave():
        return legacy_server.predict_batch(requests, PLATFORM)

    def packed_wave():
        return packed_server.predict_batch(requests, PLATFORM)

    arms = {"per_graph": per_graph_wave, "legacy": legacy_wave,
            "packed": packed_wave}

    # warm every cache (construction, layout, packed layout, scatter) and
    # pin the parity contract: packed == per-graph loop, bit for bit
    reference = per_graph_wave()
    np.testing.assert_array_equal(packed_wave(), reference)
    legacy_wave()

    best_s = {name: float("inf") for name in arms}
    for _ in range(PACKED_ROUNDS):
        for name, wave in arms.items():
            start = time.perf_counter()
            wave()
            best_s[name] = min(best_s[name], time.perf_counter() - start)
    rps = {name: len(requests) / elapsed for name, elapsed in best_s.items()}

    benchmark.pedantic(packed_wave, rounds=1, iterations=1)

    pr4_path = os.path.join(os.path.dirname(__file__), "BENCH_pr4_serve.json")
    pr4_baseline_rps = None
    if os.path.exists(pr4_path):
        with open(pr4_path, encoding="utf-8") as handle:
            pr4_baseline_rps = json.load(handle).get(
                "baseline_single_thread_rps")

    report("\n".join([
        f"packed vs per-graph serving ({len(requests)} kernels/wave, "
        f"min of {PACKED_ROUNDS} interleaved waves, float64, warm):",
        f"  per-graph loop (parity ref)   : {rps['per_graph']:8.1f} req/s",
        f"  legacy collated forward       : {rps['legacy']:8.1f} req/s",
        f"  packed block-diagonal forward : {rps['packed']:8.1f} req/s "
        f"({rps['packed'] / rps['per_graph']:.2f}x per-graph, "
        f"{rps['packed'] / rps['legacy']:.2f}x legacy)",
    ]))
    report_json("BENCH_pr8_packed.json", {
        "corpus_size": len(requests),
        "rounds": PACKED_ROUNDS,
        "per_graph_rps": rps["per_graph"],
        "legacy_collated_rps": rps["legacy"],
        "packed_rps": rps["packed"],
        "packed_vs_per_graph": rps["packed"] / rps["per_graph"],
        "packed_vs_legacy": rps["packed"] / rps["legacy"],
        "pr4_baseline_single_thread_rps": pr4_baseline_rps,
        "cpu_count": os.cpu_count() or 1,
        "quick_mode": QUICK,
    })

    # the regression this PR fixes: collating a batch used to be *slower*
    # than looping — packed must beat the legacy collated forward outright
    assert rps["packed"] > rps["legacy"], (
        f"packed forward did not beat the legacy collated path: {rps}")
    # and packed must keep up with the per-graph loop; min-of-interleaved
    # arms still jitters a few percent on a loaded single-core CI box, so
    # the floor carries a small noise allowance rather than a strict >=
    assert rps["packed"] >= 0.92 * rps["per_graph"], (
        f"packed forward fell behind the per-graph loop: {rps}")


RELIABILITY_ROUNDS = 3 if QUICK else 7
FAULT_POINT_CALLS = 20_000 if QUICK else 200_000


def test_reliability_overhead_faults_off(benchmark):
    """PR 7 regression guard: the reliability layer (deadline bookkeeping,
    breaker admission, retry wrapper, fault hooks with no injector) must
    cost < 5% on the clean serving path.

    A/B waves are interleaved and each arm takes its min-of-N, so a noisy
    neighbour inflates both arms instead of biasing the comparison.
    """
    from repro.reliability.faults import SITE_FORWARD, fault_point

    session = make_trained_session()
    requests = build_corpus(CORPUS_SIZE, seed=2027).sources()
    expected = session.predict_batch(requests, PLATFORM)

    plain = Server(session, ServerConfig(
        num_workers=0, max_retries=0, breaker_threshold=0))
    engaged = Server(session, ServerConfig(
        num_workers=0, default_deadline_s=30.0, max_queue_depth=256,
        max_retries=2, breaker_threshold=8))

    def wave(server: Server) -> float:
        start = time.perf_counter()
        got = server.predict_batch(requests, PLATFORM)
        elapsed = time.perf_counter() - start
        np.testing.assert_array_equal(got, expected)
        return elapsed

    wave(plain), wave(engaged)          # warm both paths
    plain_s, engaged_s = [], []
    for _ in range(RELIABILITY_ROUNDS):
        plain_s.append(wave(plain))
        engaged_s.append(wave(engaged))
    plain_min, engaged_min = min(plain_s), min(engaged_s)
    overhead_pct = (engaged_min - plain_min) / plain_min * 100.0

    # the hook itself: a global read + return when no injector is active
    start = time.perf_counter()
    for _ in range(FAULT_POINT_CALLS):
        fault_point(SITE_FORWARD, None)
    fault_point_ns = (time.perf_counter() - start) / FAULT_POINT_CALLS * 1e9

    benchmark.pedantic(lambda: wave(engaged), rounds=1, iterations=1)

    report("\n".join([
        f"reliability-layer overhead ({len(requests)} kernels/wave, "
        f"min of {RELIABILITY_ROUNDS} interleaved waves, faults off):",
        f"  plain wave (no reliability)   : {plain_min * 1000:8.2f} ms",
        f"  engaged wave (deadline/retry/ : {engaged_min * 1000:8.2f} ms",
        f"    breaker/admission)            ({overhead_pct:+.2f}%)",
        f"  fault_point (no injector)     : {fault_point_ns:8.1f} ns/call",
    ]))
    report_json("BENCH_pr7_reliability.json", {
        "corpus_size": len(requests),
        "rounds": RELIABILITY_ROUNDS,
        "plain_wave_ms": plain_min * 1000.0,
        "engaged_wave_ms": engaged_min * 1000.0,
        "overhead_pct": overhead_pct,
        "fault_point_ns": fault_point_ns,
        "cpu_count": os.cpu_count() or 1,
        "quick_mode": QUICK,
    })

    assert overhead_pct < 5.0, (
        f"reliability layer costs {overhead_pct:.2f}% on the clean path "
        f"(plain {plain_min * 1000:.2f} ms vs engaged "
        f"{engaged_min * 1000:.2f} ms); the faults-off budget is < 5%")
    assert fault_point_ns < 2_000, (
        f"fault_point no-injector fast path took {fault_point_ns:.0f} ns; "
        "it must stay a global read + return")
