"""Micro-benchmark: cold vs cached batched prediction through ``repro.api``.

The serving hot path is ``Session.predict_batch``: graph construction
(parse + analyze + build + encode) dominates a single prediction, so the
session's LRU cache plus one batched GNN forward pass must beat independent
cold predictions by a wide margin.  This benchmark trains one compact V100
model, then times

* **cold** — 8 independent single-source predictions with the cache dropped
  before each (one full graph construction + one forward pass per
  source), and
* **cached** — one ``predict_batch`` call over the same 8 sources after a
  warm-up call (pure cache hits + one batched forward pass),

and asserts the >= 2x speedup the serving tier relies on.
"""

import time

import pytest

from _reporting import report
from repro.advisor import ALL_VARIANTS, generate_variant
from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.ml.trainer import TrainingConfig
from repro.pipeline import SweepConfig

PLATFORM = "v100"
SIZES = {"N": 96, "M": 96, "K": 96}


def make_trained_session(epochs: int = 5, hidden_dim: int = 16) -> Session:
    config = ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul"), get_kernel("matvec"),
                                       get_kernel("transpose")]),
            platforms=(PLATFORM,),
        ),
        model=ModelConfig(hidden_dim=hidden_dim),
        training=TrainingConfig(epochs=epochs, batch_size=16,
                                learning_rate=2e-3, seed=0),
        seed=0,
    )
    session = Session(config)
    session.train()
    return session


def make_sources():
    """8 distinct OpenMP variant sources (matmul + transpose sweeps)."""
    sources = []
    for kernel_name in ("matmul", "transpose"):
        kernel = get_kernel(kernel_name)
        for kind in ALL_VARIANTS:
            if kind.uses_collapse and kernel.collapsible_loops < 2:
                continue
            sources.append(generate_variant(kernel, kind, SIZES))
    return sources[:8]


def time_cold(session, sources) -> float:
    """8 independent cold predictions (graph construction every time)."""
    start = time.perf_counter()
    for source in sources:
        session.clear_cache()
        session.predict(source, PLATFORM, sizes=SIZES, num_teams=64, num_threads=64)
    return time.perf_counter() - start


def time_cached(session, sources) -> float:
    """One batched prediction over fully cached graphs."""
    start = time.perf_counter()
    session.predict_batch(sources, PLATFORM, sizes=SIZES,
                          num_teams=64, num_threads=64)
    return time.perf_counter() - start


def test_predict_batch_cached_speedup(benchmark):
    session = make_trained_session()
    sources = make_sources()
    assert len(sources) == 8

    cold_s = time_cold(session, sources)
    session.predict_batch(sources, PLATFORM, sizes=SIZES,
                          num_teams=64, num_threads=64)   # warm the cache
    cached_s = min(time_cached(session, sources) for _ in range(3))
    benchmark.pedantic(time_cached, args=(session, sources), rounds=1, iterations=1)

    info = session.cache_info()
    speedup = cold_s / max(cached_s, 1e-9)
    report("predict_batch micro-benchmark (8 sources, NVIDIA V100):\n"
           f"  cold (8 independent, uncached) : {cold_s * 1000:8.1f} ms\n"
           f"  cached batched predict_batch   : {cached_s * 1000:8.1f} ms\n"
           f"  speedup                        : {speedup:8.1f}x\n"
           f"  cache: {info.hits} hits / {info.misses} misses, "
           f"{info.size}/{info.capacity} entries")
    assert info.size == 8
    assert speedup >= 2.0, (
        f"cached predict_batch must be >= 2x faster than cold predictions, "
        f"got {speedup:.2f}x (cold {cold_s:.4f}s vs cached {cached_s:.4f}s)")


@pytest.mark.slow
def test_predict_batch_speedup_at_scale(benchmark):
    """Paper-scale variant: bigger model, wider request wave (--runslow)."""
    session = make_trained_session(epochs=25, hidden_dim=32)
    sources = make_sources()
    wave = sources * 8                      # 64 requests, 8 distinct graphs

    cold_s = time_cold(session, sources) * len(wave) / len(sources)
    session.predict_batch(wave, PLATFORM, sizes=SIZES, num_teams=64, num_threads=64)
    start = time.perf_counter()
    benchmark.pedantic(
        lambda: session.predict_batch(wave, PLATFORM, sizes=SIZES,
                                      num_teams=64, num_threads=64),
        rounds=1, iterations=1)
    cached_s = time.perf_counter() - start

    speedup = cold_s / max(cached_s, 1e-9)
    report(f"predict_batch at scale (64 requests): {speedup:.1f}x vs cold")
    assert speedup >= 2.0
