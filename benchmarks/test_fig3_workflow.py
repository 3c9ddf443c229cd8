"""Figure 3 — the end-to-end workflow (variants → graphs → runtimes → model).

Times one compact end-to-end run of the pipeline on a single platform and
checks that every stage produced output: configurations generated, runtimes
collected, graphs encoded, a model trained, and predictions returned in
microseconds.
"""

from repro.api import DataConfig, ModelConfig, ReproConfig, Session
from repro.hardware import V100
from repro.kernels import get_kernel
from repro.ml.trainer import TrainingConfig
from repro.pipeline import SweepConfig


def run_compact_workflow():
    config = ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(0.5, 1.0), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul"), get_kernel("matvec"),
                                       get_kernel("laplace_sweep"),
                                       get_kernel("pf_normalize")]),
            platforms=(V100,)),
        model=ModelConfig(hidden_dim=16),
        training=TrainingConfig(epochs=10, batch_size=16, learning_rate=2e-3, seed=0),
        seed=0,
    )
    return Session(config).workflow()


def test_fig3_end_to_end_workflow(benchmark):
    result = benchmark.pedantic(run_compact_workflow, rounds=1, iterations=1)
    platform_result = result.platforms["NVIDIA V100"]
    assert len(platform_result.dataset) > 20
    assert len(platform_result.history) == 10
    predictions = platform_result.trainer.predict(platform_result.validation)
    assert predictions.shape[0] == len(platform_result.validation)
    assert (predictions >= 0).all()
