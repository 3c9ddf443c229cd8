"""Observability overhead benchmark: scopes on vs off, sketch accuracy.

Two contracts from the ``repro.obs`` design (OBSERVABILITY.md):

* **near-zero when off, cheap when on** — the always-on per-server
  instruments plus fully-enabled ``metrics_scope`` + ``trace_requests``
  recording must cost < 5% against the same serving wave with no scopes
  active (the PR 7 reliability-gate shape: interleaved A/B waves, min of
  N each, so a noisy neighbour inflates both arms instead of biasing the
  comparison).  The disabled :func:`repro.obs.span` fast path must stay a
  global read + return, same budget as ``fault_point``.
* **quantiles you can trust** — the streaming
  :class:`~repro.obs.QuantileSketch` must answer p50/p95/p99 within its
  configured relative accuracy of the exact order statistics, both on a
  deterministic synthetic distribution and on the real request latencies
  recorded from the serving waves over the PR 8 corpus.

Machine-readable output goes to ``benchmarks/BENCH_pr10_obs.json``
(``benchmarks/out/`` unless ``REPRO_BENCH_RECORD=1``).
``REPRO_BENCH_QUICK=1`` shrinks the workload for CI smoke jobs.
"""

import os
import time

import numpy as np

from _reporting import report, report_json
from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.ml.trainer import TrainingConfig
from repro.obs import QuantileSketch, metrics_scope, span, trace_requests
from repro.pipeline import SweepConfig
from repro.serve import Server, ServerConfig
from repro.synth import build_corpus

PLATFORM = "v100"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

CORPUS_SIZE = 8 if QUICK else 24
OBS_ROUNDS = 3 if QUICK else 7
SPAN_CALLS = 20_000 if QUICK else 200_000
SKETCH_SAMPLES = 2_000 if QUICK else 20_000
RELATIVE_ACCURACY = 0.01


def make_trained_session() -> Session:
    # the PR 4/PR 7 serving-benchmark shape: a model wide enough that the
    # forward dominates, so the overhead ratio reflects real serving work
    config = ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul"),
                                       get_kernel("matvec")]),
            platforms=(PLATFORM,),
        ),
        model=ModelConfig(hidden_dim=32),
        training=TrainingConfig(epochs=3, batch_size=16,
                                learning_rate=2e-3, seed=0),
        seed=0,
    )
    session = Session(config)
    session.train()
    return session


def test_obs_overhead_scopes_on_vs_off():
    """The 5% gate: fully-enabled recording vs no scopes, interleaved."""
    session = make_trained_session()
    requests = build_corpus(CORPUS_SIZE, seed=2028).sources()
    server = Server(session, ServerConfig(max_retries=0, breaker_threshold=0))
    expected = server.predict_batch(requests, PLATFORM)

    def wave() -> tuple:
        """One warm wave of per-request submits; returns (s, latencies)."""
        latencies = []
        start = time.perf_counter()
        for source in requests:
            begin = time.perf_counter()
            server.submit(source, PLATFORM).result(timeout=60.0)
            latencies.append(time.perf_counter() - begin)
        got = server.predict_batch(requests, PLATFORM)
        elapsed = time.perf_counter() - start
        np.testing.assert_array_equal(got, expected)
        return elapsed, latencies

    try:
        wave()                                      # warm every cache
        with metrics_scope(), trace_requests():
            wave()
        off_s, on_s = [], []
        exact_latencies = []
        for _ in range(OBS_ROUNDS):
            off_s.append(wave()[0])
            with metrics_scope(), trace_requests(capacity=1024):
                elapsed, latencies = wave()
            on_s.append(elapsed)
            exact_latencies.extend(latencies)
        latency_dump = server.metrics.histogram(
            "serve.request_latency_s").to_dict()
    finally:
        server.close()
    off_min, on_min = min(off_s), min(on_s)
    overhead_pct = (on_min - off_min) / off_min * 100.0

    # the disabled span() fast path: a global read + a shared null context
    start = time.perf_counter()
    for _ in range(SPAN_CALLS):
        with span("bench.noop"):
            pass
    span_disabled_ns = (time.perf_counter() - start) / SPAN_CALLS * 1e9

    # sketch accuracy on the real serving latencies just recorded
    sketch = QuantileSketch(relative_accuracy=RELATIVE_ACCURACY)
    for value in exact_latencies:
        sketch.observe(value)
    sketch_errors = {}
    for q in (0.50, 0.95, 0.99):
        exact = float(np.percentile(exact_latencies, q * 100.0,
                                    method="higher"))
        estimate = sketch.quantile(q)
        sketch_errors[f"p{int(q * 100)}"] = abs(estimate - exact) / exact

    report("\n".join([
        f"obs overhead ({len(requests)} submits + 1 job/wave, min of "
        f"{OBS_ROUNDS} interleaved waves):",
        f"  scopes off  : {off_min * 1000:8.2f} ms",
        f"  scopes on   : {on_min * 1000:8.2f} ms  ({overhead_pct:+.2f}%)",
        f"  span() off  : {span_disabled_ns:8.1f} ns/call",
        f"  latency p50/p95/p99 (ms): "
        f"{latency_dump['p50'] * 1e3:.2f} / {latency_dump['p95'] * 1e3:.2f}"
        f" / {latency_dump['p99'] * 1e3:.2f}",
        f"  sketch vs exact rel. err: " + ", ".join(
            f"{name}={err:.4f}" for name, err in sketch_errors.items()),
    ]))
    report_json("BENCH_pr10_obs.json", {
        "corpus_size": len(requests),
        "rounds": OBS_ROUNDS,
        "scopes_off_wave_ms": off_min * 1000.0,
        "scopes_on_wave_ms": on_min * 1000.0,
        "overhead_pct": overhead_pct,
        "span_disabled_ns": span_disabled_ns,
        "latency_p50_ms": latency_dump["p50"] * 1e3,
        "latency_p95_ms": latency_dump["p95"] * 1e3,
        "latency_p99_ms": latency_dump["p99"] * 1e3,
        "sketch_relative_errors": sketch_errors,
        "sketch_samples": len(exact_latencies),
        "cpu_count": os.cpu_count() or 1,
        "quick_mode": QUICK,
    })

    assert overhead_pct < 5.0, (
        f"obs-on serving costs {overhead_pct:.2f}% over obs-off "
        f"(off {off_min * 1000:.2f} ms vs on {on_min * 1000:.2f} ms); "
        "the budget is < 5%")
    assert span_disabled_ns < 2_000, (
        f"span() no-collector fast path took {span_disabled_ns:.0f} ns; "
        "it must stay a global read + return")
    for name, error in sketch_errors.items():
        assert error <= 3.0 * RELATIVE_ACCURACY, (
            f"sketch {name} is {error:.4f} relative from the exact order "
            f"statistic; budget is 3x relative_accuracy")


def test_sketch_accuracy_on_synthetic_distribution():
    """Deterministic accuracy gate: lognormal latencies, exact percentiles."""
    rng = np.random.default_rng(11)
    samples = rng.lognormal(mean=-4.0, sigma=1.0, size=SKETCH_SAMPLES)
    sketch = QuantileSketch(relative_accuracy=RELATIVE_ACCURACY)
    for value in samples:
        sketch.observe(float(value))
    worst = 0.0
    for q in (0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99):
        exact = float(np.percentile(samples, q * 100.0, method="higher"))
        estimate = sketch.quantile(q)
        error = abs(estimate - exact) / exact
        worst = max(worst, error)
        assert error <= 2.0 * RELATIVE_ACCURACY, (
            f"q={q}: sketch {estimate} vs exact {exact} "
            f"({error:.4f} relative)")
    report(f"sketch accuracy (lognormal, n={SKETCH_SAMPLES}): "
           f"worst relative error {worst:.4f} "
           f"(budget {2.0 * RELATIVE_ACCURACY})")
