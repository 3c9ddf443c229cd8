"""Experiment drivers for the paper's main results (Tables II–III, Figs. 4–6).

Every driver consumes a :class:`~repro.api.session.WorkflowResult`
(one trained ParaGraph model per platform over the same configuration sweep)
and produces the rows / series of the corresponding table or figure, so the
benchmarks under ``benchmarks/`` only need to run the workflow once and call
into these functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api.config import DataConfig, ModelConfig, ReproConfig
from ..api.session import Session, WorkflowResult
from ..hardware.specs import ALL_PLATFORMS, HardwareSpec
from ..ml import metrics as M
from ..pipeline.dataset_builder import table2_statistics
from ..pipeline.variant_generation import SweepConfig


# --------------------------------------------------------------------- #
# Table II — dataset statistics
# --------------------------------------------------------------------- #
def table2_rows(result: WorkflowResult) -> List[Dict[str, object]]:
    """Data points / runtime range / std-dev per platform (Table II)."""
    return table2_statistics(result.build)


# --------------------------------------------------------------------- #
# Table III — RMSE / normalized RMSE per platform
# --------------------------------------------------------------------- #
def table3_rows(result: WorkflowResult) -> List[Dict[str, object]]:
    """RMSE (ms) and normalized RMSE per platform (Table III)."""
    rows: List[Dict[str, object]] = []
    for name, platform_result in result.platforms.items():
        rows.append({
            "platform": name,
            "rmse_ms": platform_result.metrics["rmse"] / 1000.0,
            "normalized_rmse": platform_result.metrics["normalized_rmse"],
        })
    return rows


# --------------------------------------------------------------------- #
# Fig. 4 — relative error per 10-second runtime bin
# --------------------------------------------------------------------- #
def figure4_series(result: WorkflowResult,
                   bin_width_seconds: float = 10.0) -> Dict[str, Dict[str, float]]:
    """Per-platform binned relative errors (Fig. 4).

    Predictions run on the no-graph float64 inference fast path.
    """
    series: Dict[str, Dict[str, float]] = {}
    for name, platform_result in result.platforms.items():
        validation = platform_result.validation
        predictions = platform_result.trainer.predict(validation)
        series[name] = M.binned_relative_error(
            validation.targets(), predictions, bin_width_seconds=bin_width_seconds)
    return series


# --------------------------------------------------------------------- #
# Fig. 5 — validation normalized RMSE per epoch
# --------------------------------------------------------------------- #
def figure5_series(result: WorkflowResult) -> Dict[str, List[float]]:
    """Per-platform normalized-RMSE training curves (Fig. 5)."""
    return {name: list(platform_result.history.val_normalized_rmses)
            for name, platform_result in result.platforms.items()}


# --------------------------------------------------------------------- #
# Fig. 6 — error rate per application
# --------------------------------------------------------------------- #
def figure6_series(result: WorkflowResult) -> Dict[str, Dict[str, float]]:
    """Per-platform, per-application mean relative error (Fig. 6).

    Predictions run on the no-graph float64 inference fast path.
    """
    series: Dict[str, Dict[str, float]] = {}
    for name, platform_result in result.platforms.items():
        validation = platform_result.validation
        predictions = platform_result.trainer.predict(validation)
        applications = validation.metadata_column("application", "unknown")
        series[name] = M.per_group_relative_error(
            validation.targets(), predictions, applications)
    return series


# --------------------------------------------------------------------- #
# one-call experiment used by the benchmarks
# --------------------------------------------------------------------- #
@dataclass
class ExperimentScale:
    """Size of the experiment: the benchmarks use ``small`` so a full table
    regenerates in minutes; ``paper`` approaches the paper's dataset size."""

    sweep: SweepConfig = field(default_factory=SweepConfig)
    epochs: int = 40
    hidden_dim: int = 32
    seed: int = 0

    @classmethod
    def small(cls) -> "ExperimentScale":
        return cls(
            sweep=SweepConfig(size_scales=(0.5, 1.0), team_counts=(64,),
                              thread_counts=(8, 64), repetitions=1),
            epochs=25,
            hidden_dim=24,
        )

    @classmethod
    def medium(cls) -> "ExperimentScale":
        return cls(
            sweep=SweepConfig(size_scales=(0.5, 1.0, 2.0), team_counts=(32, 128),
                              thread_counts=(4, 22, 128), repetitions=1),
            epochs=60,
            hidden_dim=32,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls(
            sweep=SweepConfig(size_scales=(0.25, 0.5, 1.0, 2.0, 4.0),
                              team_counts=(16, 32, 64, 128, 256),
                              thread_counts=(2, 8, 22, 64, 256),
                              repetitions=2),
            epochs=100,
            hidden_dim=64,
        )


def run_main_experiment(
    scale: Optional[ExperimentScale] = None,
    platforms: Sequence[HardwareSpec] = ALL_PLATFORMS,
) -> WorkflowResult:
    """Run the full pipeline at the requested scale (Tables II-III, Figs. 4-6)."""
    scale = scale or ExperimentScale.small()
    from ..ml.trainer import TrainingConfig

    config = ReproConfig(
        data=DataConfig(sweep=scale.sweep, platforms=tuple(platforms)),
        model=ModelConfig(hidden_dim=scale.hidden_dim),
        training=TrainingConfig(epochs=scale.epochs, batch_size=32,
                                learning_rate=3e-3, seed=scale.seed),
        seed=scale.seed,
    )
    return Session(config).workflow()


def pinned_session(ref: str, *, registry_root: str) -> Session:
    """Warm-start a registry-pinned model set for evaluation or soaks.

    Resolves ``name@version`` (or a bare name via the ``latest`` pointer)
    in the :class:`repro.store.ModelRegistry` at *registry_root* and loads
    it with zero retraining, so an evaluation or soak run is reproducible
    against one frozen set of weights.  The returned session serves
    predictions but carries no datasets; drivers that need the training
    build (``workflow()``) must train in-process instead.
    """
    from ..store.registry import ModelRegistry

    return ModelRegistry(registry_root).load(ref)
