"""Serving-runtime throughput/latency benchmark: concurrent callers vs one.

The PR 3 soak (``test_synth_corpus_soak.py``) measures the single-threaded
``Session.predict_batch`` ceiling; this benchmark measures what the
``repro.serve`` runtime does with the same corpus workload when several
threads call it at once:

* **single** — one thread sending warm corpus waves through the default
  :class:`repro.serve.Server` (the corpus-soak shape),
* **concurrent** — 4 client threads sending the same waves through the
  same server; per-call latencies give the p50/p95/p99 tails,
* **coalescing** — 4 client threads sending single ``submit`` calls,
  recording how many batches the lane leaders formed.

The GNN forward holds the GIL for nearly all of its time (perfbench
measures ``runtime.cpu_per_wall`` = 1.00 on its warm workload), so extra
threads cannot add throughput; the gate asserts they do not take it away:
the median concurrent arm keeps at least 80% of the median single arm,
on any core count.  The arms interleave over several rounds, alternating
which goes first, so a noisy neighbour inflates both.

Machine-readable output goes to ``benchmarks/BENCH_pr4_serve.json``
(including the PR 3 warm-soak number when its JSON is present, for
cross-PR comparison).  ``REPRO_BENCH_QUICK=1`` shrinks the workload for
CI smoke jobs.
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
ROUNDS = 5
#: the concurrent arm must keep this share of single-thread throughput
MIN_CONCURRENT_RATIO = 0.8


def make_trained_session() -> Session:
    config = ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul"), get_kernel("matvec")]),
            platforms=(PLATFORM,),
        ),
        # serving-weight model: wide enough that the forward dominates the
        # request, as a real serving model would
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


def run_waves(server: Server, requests, expected, clients: int) -> dict:
    """CLIENT_THREADS × PASSES_PER_CLIENT warm ``predict_batch`` waves,
    split over *clients* threads; returns the rate and latency tails."""
    latencies = []
    lock = threading.Lock()
    errors = []
    passes = CLIENT_THREADS * PASSES_PER_CLIENT // clients

    def client() -> None:
        try:
            for _ in range(passes):
                start = time.perf_counter()
                got = server.predict_batch(requests, PLATFORM)
                elapsed = time.perf_counter() - start
                np.testing.assert_array_equal(got, expected)
                with lock:
                    latencies.append(elapsed)
        except Exception as error:  # noqa: BLE001 - surfaced by the assert below
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    assert not errors, errors[0]

    total_requests = clients * passes * len(requests)
    return {
        "requests_per_s": total_requests / max(wall_s, 1e-9),
        "wall_s": wall_s,
        "p50_ms": percentile_ms(latencies, 50),
        "p95_ms": percentile_ms(latencies, 95),
        "p99_ms": percentile_ms(latencies, 99),
    }


def submit_singles(server: Server, requests, expected) -> None:
    """Every client submits every request as a single; bit-identical."""
    errors = []

    def client() -> None:
        try:
            for spec, want in zip(requests, expected):
                got = server.submit(spec, PLATFORM).result(timeout=60)
                if got != want:
                    errors.append(f"coalesced single {got!r} != {want!r}")
        except Exception as error:  # noqa: BLE001 - surfaced by the assert below
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]


def test_concurrent_callers_keep_single_thread_throughput(benchmark):
    session = make_trained_session()
    requests = build_corpus(CORPUS_SIZE, seed=2026).sources()

    # warm the construction cache + layout/scatter caches, pin the reference
    expected = session.predict_batch(requests, PLATFORM)
    server = Server(session, ServerConfig())

    arms = {"single": 1, "concurrent": CLIENT_THREADS}
    rounds = {name: [] for name in arms}
    for index in range(ROUNDS):
        order = list(arms) if index % 2 == 0 else list(arms)[::-1]
        for name in order:
            rounds[name].append(run_waves(server, requests, expected,
                                          arms[name]))
    median_rps = {name: float(np.median([row["requests_per_s"]
                                         for row in rows]))
                  for name, rows in rounds.items()}
    ratio = median_rps["concurrent"] / median_rps["single"]

    # coalescing shape: concurrent singles share their leaders' forwards
    with Server(session, ServerConfig(max_batch_size=16)) as singles_server:
        submit_singles(singles_server, requests, expected)
        coalescing = singles_server.stats()

    benchmark.pedantic(
        lambda: session.predict_batch(requests, PLATFORM),
        rounds=1, iterations=1)

    tails = sorted(rounds["concurrent"],
                   key=lambda row: row["requests_per_s"])[ROUNDS // 2]
    cores = os.cpu_count() or 1
    report("\n".join([
        f"serving throughput ({len(requests)} kernels/wave, "
        f"{CLIENT_THREADS * PASSES_PER_CLIENT} waves per arm, median of "
        f"{ROUNDS} interleaved rounds, float64, warm cache):",
        f"  1 caller                      : {median_rps['single']:8.0f} req/s",
        f"  {CLIENT_THREADS} concurrent callers          : "
        f"{median_rps['concurrent']:8.0f} req/s   "
        f"p50 {tails['p50_ms']:6.1f} ms  p95 {tails['p95_ms']:6.1f} ms  "
        f"p99 {tails['p99_ms']:6.1f} ms",
        f"  concurrent vs 1 caller        : {ratio:8.2f}x "
        f"({cores} CPU core(s) available)",
        f"  singles coalesced             : "
        f"{coalescing.singles_submitted} requests into "
        f"{coalescing.batches_executed} batches "
        f"(max {coalescing.max_coalesced})",
    ]))

    pr3_path = os.path.join(os.path.dirname(__file__), "BENCH_pr3_synth_soak.json")
    pr3_warm_rps = None
    if os.path.exists(pr3_path):
        with open(pr3_path, encoding="utf-8") as handle:
            pr3_warm_rps = json.load(handle).get("warm_requests_per_s")

    report_json("BENCH_pr4_serve.json", {
        "corpus_size": len(requests),
        "client_threads": CLIENT_THREADS,
        "passes_per_client": PASSES_PER_CLIENT,
        "rounds": ROUNDS,
        "cpu_count": cores,
        "pr3_soak_warm_rps": pr3_warm_rps,
        "single_rps": [row["requests_per_s"] for row in rounds["single"]],
        "concurrent_rps": [row["requests_per_s"]
                           for row in rounds["concurrent"]],
        "median_single_rps": median_rps["single"],
        "median_concurrent_rps": median_rps["concurrent"],
        "concurrent_vs_single": ratio,
        "concurrent_median_round": tails,
        "coalescing": {
            "singles_submitted": coalescing.singles_submitted,
            "batches_executed": coalescing.batches_executed,
            "max_coalesced": coalescing.max_coalesced,
        },
        "quick_mode": QUICK,
    })

    # every wave served bit-identical results (asserted per wave); extra
    # callers must not cost the server its single-caller throughput
    assert ratio >= MIN_CONCURRENT_RATIO, (
        f"{CLIENT_THREADS} concurrent callers reached only {ratio:.2f}x of "
        f"one caller's throughput (medians {median_rps}); the floor is "
        f"{MIN_CONCURRENT_RATIO}x")
    assert coalescing.singles_submitted == CLIENT_THREADS * len(requests)
    assert coalescing.max_coalesced >= 2, "concurrent singles never coalesced"
    assert coalescing.batches_executed < coalescing.singles_submitted


PACKED_ROUNDS = 6 if QUICK else 10


def test_packed_forward_beats_per_graph_loop(benchmark):
    """PR 8 tentpole gate: the packed block-diagonal forward must serve a
    batch at least as fast as predicting its graphs one by one, while
    staying float64 bit-identical to the per-graph ``Trainer.predict``.

    Two arms:

    * **per-graph loop** — one ``predict_batch([spec])`` call per request,
    * **packed** — one ``predict_batch`` call per wave: one fused
      block-diagonal forward.

    Each round times the two arms back to back, the first arm alternating
    by round, and yields one paired ratio (per-graph time ÷ packed time);
    the gate takes the median over rounds.  The host switches between
    speed phases, so the two arms' minima over all rounds can come from
    different phases, while a paired round sees one phase — or straddles a
    switch, and the median drops that round.
    """
    from repro.ml.dataset import GraphDataset

    session = make_trained_session()
    requests = build_corpus(CORPUS_SIZE, seed=2026).sources()
    server = Server(session, ServerConfig())

    def per_graph_wave():
        return np.concatenate([server.predict_batch([spec], PLATFORM)
                               for spec in requests])

    def packed_wave():
        return server.predict_batch(requests, PLATFORM)

    arms = {"per_graph": per_graph_wave, "packed": packed_wave}

    # warm every cache (construction, layout, packed layout, scatter) and
    # pin the parity contract: both arms == the per-graph unpacked forward,
    # bit for bit
    trainer = session.trainer_for(PLATFORM)
    reference = np.concatenate(
        [trainer.predict(GraphDataset([session.encode_source(spec)]))
         for spec in requests])
    np.testing.assert_array_equal(packed_wave(), reference)
    np.testing.assert_array_equal(per_graph_wave(), reference)

    seconds = {name: [] for name in arms}
    ratios = []
    for index in range(PACKED_ROUNDS):
        for name in (list(arms) if index % 2 == 0 else list(arms)[::-1]):
            start = time.perf_counter()
            arms[name]()
            seconds[name].append(time.perf_counter() - start)
        ratios.append(seconds["per_graph"][-1] / seconds["packed"][-1])
    ratio = float(np.median(ratios))
    rps = {name: len(requests) / float(np.median(elapsed))
           for name, elapsed in seconds.items()}

    benchmark.pedantic(packed_wave, rounds=1, iterations=1)

    pr4_path = os.path.join(os.path.dirname(__file__), "BENCH_pr4_serve.json")
    pr4_single_rps = None
    if os.path.exists(pr4_path):
        with open(pr4_path, encoding="utf-8") as handle:
            pr4_single_rps = json.load(handle).get("median_single_rps")

    report("\n".join([
        f"packed vs per-graph serving ({len(requests)} kernels/wave, "
        f"median of {PACKED_ROUNDS} paired rounds, float64, warm):",
        f"  per-graph loop                : {rps['per_graph']:8.1f} req/s",
        f"  packed block-diagonal forward : {rps['packed']:8.1f} req/s "
        f"({ratio:.2f}x per-graph, median paired ratio)",
    ]))
    report_json("BENCH_pr8_packed.json", {
        "corpus_size": len(requests),
        "rounds": PACKED_ROUNDS,
        "per_graph_rps": rps["per_graph"],
        "packed_rps": rps["packed"],
        "packed_vs_per_graph": ratio,
        "per_graph_s": seconds["per_graph"],
        "packed_s": seconds["packed"],
        "pr4_single_caller_rps": pr4_single_rps,
        "cpu_count": os.cpu_count() or 1,
        "quick_mode": QUICK,
    })

    # packed must keep up with the per-graph loop; the median paired ratio
    # still jitters a few percent on a loaded single-core CI box, so the
    # floor carries a small noise allowance rather than a strict >=
    assert ratio >= 0.92, (
        f"packed forward fell behind the per-graph loop: {ratio:.2f}x "
        f"(paired ratios {[round(r, 3) for r in ratios]}, rps {rps})")


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

    plain = Server(session, ServerConfig(max_retries=0, breaker_threshold=0))
    engaged = Server(session, ServerConfig(
        default_deadline_s=30.0, max_queue_depth=256,
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
