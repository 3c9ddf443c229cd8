"""Ablation study drivers (Table IV and Fig. 7).

The paper compares three levels of the representation — Raw AST, Augmented
AST, ParaGraph — by training the same GNN on each and reporting the
validation RMSE per platform (Table IV) and the training curves on the MI50
(Fig. 7).  These drivers rebuild the datasets with the requested
:class:`~repro.paragraph.variants.GraphVariant` (the simulated runtimes are
deterministic per configuration, so all three variants see identical labels)
and train one model per variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api.config import DataConfig, GraphConfig, ModelConfig, ReproConfig
from ..api.pipeline import Pipeline
from ..api.stages import DatasetStage, PlatformResult, TrainStage
from ..hardware.specs import ALL_PLATFORMS, HardwareSpec, MI50
from ..ml.trainer import History, TrainingConfig
from ..paragraph.variants import ABLATION_ORDER, GraphVariant
from ..pipeline.variant_generation import SweepConfig, generate_configurations


@dataclass
class AblationResult:
    """Per-variant, per-platform results of the ablation."""

    results: Dict[str, Dict[str, PlatformResult]] = field(default_factory=dict)
    # results[graph_variant.value][platform_name]

    def rmse_table(self) -> List[Dict[str, object]]:
        """Rows shaped like Table IV: one row per platform, one column per variant."""
        platforms: List[str] = []
        for by_platform in self.results.values():
            for name in by_platform:
                if name not in platforms:
                    platforms.append(name)
        rows: List[Dict[str, object]] = []
        for platform in platforms:
            row: Dict[str, object] = {"platform": platform}
            for variant_value, by_platform in self.results.items():
                if platform in by_platform:
                    row[variant_value] = by_platform[platform].metrics["rmse"] / 1000.0
            rows.append(row)
        return rows

    def histories_for(self, platform_name: str) -> Dict[str, History]:
        """Training histories per variant on one platform (Fig. 7)."""
        return {
            variant_value: by_platform[platform_name].history
            for variant_value, by_platform in self.results.items()
            if platform_name in by_platform
        }


def run_ablation(
    sweep: Optional[SweepConfig] = None,
    training: Optional[TrainingConfig] = None,
    platforms: Sequence[HardwareSpec] = ALL_PLATFORMS,
    variants: Sequence[GraphVariant] = ABLATION_ORDER,
    hidden_dim: int = 24,
    seed: int = 0,
) -> AblationResult:
    """Train the model on every (graph variant, platform) combination."""
    sweep = sweep or SweepConfig(size_scales=(0.5, 1.0), team_counts=(64,),
                                 thread_counts=(4, 16))
    training = training or TrainingConfig(epochs=25, batch_size=32,
                                          learning_rate=3e-3, seed=seed)
    configurations = generate_configurations(sweep)
    result = AblationResult()
    for graph_variant in variants:
        config = ReproConfig(
            data=DataConfig(sweep=sweep, platforms=tuple(platforms)),
            graph=GraphConfig(variant=graph_variant),
            model=ModelConfig(hidden_dim=hidden_dim),
            training=training,
            seed=seed,
        )
        # the shared configurations keep all variants on identical labels
        context = Pipeline([DatasetStage(config), TrainStage(config)]).run(
            configurations=configurations)
        result.results[graph_variant.value] = context["platform_results"]
    return result


def run_mi50_ablation_curves(
    sweep: Optional[SweepConfig] = None,
    training: Optional[TrainingConfig] = None,
    hidden_dim: int = 24,
    seed: int = 0,
) -> Dict[str, History]:
    """Fig. 7: RMSE-per-epoch curves of the three variants on the AMD MI50."""
    ablation = run_ablation(sweep=sweep, training=training, platforms=(MI50,),
                            hidden_dim=hidden_dim, seed=seed)
    return ablation.histories_for(MI50.name)
