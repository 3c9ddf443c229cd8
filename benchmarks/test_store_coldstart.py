"""Cold-start benchmark: train-then-serve vs artifact warm-start.

The number the ``repro.store`` subsystem exists for: how long until a
fresh process answers its first prediction.

* **train path** — ``Session(config)`` + ``train()`` + first
  ``predict_batch`` (what every cold start cost before the store),
* **warm path** — ``Session.load(artifact)`` + first ``predict_batch``
  (zero retraining; the artifact was written once, ahead of time),
* **store throughput** — artifact save and load latency and MB/s over
  repeated runs, since a serving fleet re-loads artifacts far more often
  than it writes them.

The warm path must be correct, not just fast: float64 predictions from
the loaded session are asserted bit-identical to the trainer's.

Machine-readable output goes to ``benchmarks/BENCH_pr5_store.json``;
``REPRO_BENCH_QUICK=1`` shrinks the sweep for CI smoke jobs.
"""

import os
import time

import numpy as np

from _reporting import report, report_json
from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.ml.trainer import TrainingConfig
from repro.pipeline import SweepConfig
from repro.store import artifact_size_bytes

PLATFORM = "v100"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

EPOCHS = 3 if QUICK else 12
IO_REPEATS = 3 if QUICK else 10

SOURCES = [
    "void kernel(int n) { for (int i = 0; i < 50; i++) { n += i; } }",
    "void tiled(int n) { for (int i = 0; i < 16; i++) { for (int j = 0; j < 16; j++) { n += i * j; } } }",
]


def bench_config() -> ReproConfig:
    return ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(0.5, 1.0), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul"),
                                       get_kernel("matvec")]),
            platforms=(PLATFORM,)),
        model=ModelConfig(hidden_dim=24),
        training=TrainingConfig(epochs=EPOCHS, batch_size=32,
                                learning_rate=2e-3, seed=0),
        seed=0,
    )


def test_store_coldstart(tmp_path):
    # ---- the old cold start: train in-process, then serve -------------- #
    started = time.perf_counter()
    session = Session(bench_config())
    session.train()
    train_s = time.perf_counter() - started
    started = time.perf_counter()
    reference = session.predict_batch(SOURCES, PLATFORM)
    first_predict_after_train_s = time.perf_counter() - started
    train_total_s = train_s + first_predict_after_train_s

    # ---- write the artifact once, ahead of time ------------------------ #
    artifact = str(tmp_path / "artifact")
    started = time.perf_counter()
    session.save(artifact)
    save_s = time.perf_counter() - started
    size_bytes = artifact_size_bytes(artifact)

    # ---- the new cold start: warm-start from the artifact -------------- #
    started = time.perf_counter()
    loaded = Session.load(artifact)
    load_s = time.perf_counter() - started
    started = time.perf_counter()
    warm_predictions = loaded.predict_batch(SOURCES, PLATFORM)
    first_predict_after_load_s = time.perf_counter() - started
    warm_total_s = load_s + first_predict_after_load_s

    # correctness is non-negotiable: the warm path serves the same bits
    np.testing.assert_array_equal(warm_predictions, reference)
    loaded.close()

    # ---- save/load throughput ------------------------------------------ #
    save_times, load_times = [], []
    for index in range(IO_REPEATS):
        scratch = str(tmp_path / f"io-{index}")
        started = time.perf_counter()
        session.save(scratch)
        save_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        Session.load(scratch).close()
        load_times.append(time.perf_counter() - started)
    save_mean_s = float(np.mean(save_times))
    load_mean_s = float(np.mean(load_times))
    session.close()

    mib = size_bytes / (1 << 20)
    payload = {
        "config": {"epochs": EPOCHS, "hidden_dim": 24,
                   "platforms": [PLATFORM], "quick": QUICK},
        "coldstart": {
            "train_s": train_s,
            "first_predict_after_train_s": first_predict_after_train_s,
            "train_total_s": train_total_s,
            "load_s": load_s,
            "first_predict_after_load_s": first_predict_after_load_s,
            "warm_total_s": warm_total_s,
            "speedup": train_total_s / warm_total_s,
        },
        "throughput": {
            "artifact_bytes": size_bytes,
            "save_mean_s": save_mean_s,
            "load_mean_s": load_mean_s,
            "save_mib_per_s": mib / save_mean_s,
            "load_mib_per_s": mib / load_mean_s,
            "io_repeats": IO_REPEATS,
        },
    }
    path = report_json("BENCH_pr5_store.json", payload)

    report(
        "Store cold-start (train-then-serve vs warm-start-then-serve)\n"
        f"  train + first predict : {train_total_s * 1000:9.1f} ms "
        f"(train {train_s * 1000:.1f} ms)\n"
        f"  load  + first predict : {warm_total_s * 1000:9.1f} ms "
        f"(load {load_s * 1000:.1f} ms)\n"
        f"  cold-start speedup    : {train_total_s / warm_total_s:9.1f}x\n"
        f"  artifact size         : {size_bytes} bytes\n"
        f"  save throughput       : {mib / save_mean_s:9.2f} MiB/s "
        f"({save_mean_s * 1000:.1f} ms/save)\n"
        f"  load throughput       : {mib / load_mean_s:9.2f} MiB/s "
        f"({load_mean_s * 1000:.1f} ms/load)\n"
        f"  JSON: {path}")

    # the whole point of the subsystem: warm starts must beat retraining
    assert warm_total_s < train_total_s, (
        f"warm start ({warm_total_s:.3f}s) did not beat train-then-serve "
        f"({train_total_s:.3f}s)")
