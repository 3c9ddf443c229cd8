"""Per-stage configuration dataclasses unified under :class:`ReproConfig`.

Every stage of the pipeline owns one small config — :class:`DataConfig`
(sweep, platforms, noise), :class:`GraphConfig` (representation variant,
trip counts, encoder options), :class:`ModelConfig` (GNN architecture) and
the existing :class:`~repro.ml.trainer.TrainingConfig` — and
:class:`ReproConfig` composes them with the split fraction and the global
seed.  All fields validate eagerly with actionable messages, and the whole
tree round-trips through plain dicts (``to_dict`` / ``from_dict``) so a
service deployment can ship configs as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..hardware.specs import ALL_PLATFORMS, HardwareSpec
from ..ml.trainer import TrainingConfig
from ..paragraph.encoders import GraphEncoder
from ..paragraph.variants import GraphVariant
from ..pipeline.variant_generation import SweepConfig
from .registries import conv_registry, platform_registry, resolve_platform

__all__ = [
    "DataConfig",
    "GraphConfig",
    "ModelConfig",
    "READOUTS",
    "ReproConfig",
    "coerce_graph_variant",
]

#: Valid graph-level readouts of :class:`~repro.gnn.models.ParaGraphModel`.
READOUTS: Tuple[str, ...] = ("mean", "sum", "mean_max")


def coerce_graph_variant(value: Union[str, GraphVariant]) -> GraphVariant:
    """Accept a :class:`GraphVariant` or its string value, with a helpful error."""
    if isinstance(value, GraphVariant):
        return value
    try:
        return GraphVariant(str(value).lower())
    except ValueError:
        valid = [variant.value for variant in GraphVariant]
        raise ValueError(
            f"unknown graph variant {value!r}; valid variants: {valid}") from None


# --------------------------------------------------------------------- #
@dataclass
class DataConfig:
    """What to measure: the configuration sweep and the target platforms."""

    sweep: SweepConfig = field(default_factory=SweepConfig)
    #: platform names / aliases (or :class:`HardwareSpec` objects) to build
    #: datasets for; defaults to the paper's four accelerators.
    platforms: Tuple[Union[str, HardwareSpec], ...] = tuple(
        spec.name for spec in ALL_PLATFORMS)
    noisy_runtimes: bool = True
    #: platforms whose dataset ends up smaller than this are skipped.
    min_platform_samples: int = 4

    def __post_init__(self) -> None:
        self.platforms = tuple(self.platforms)
        for name in self.platforms:
            if isinstance(name, HardwareSpec):
                continue
            if name not in platform_registry:
                raise ValueError(
                    f"unknown platform {name!r}; registered platforms: "
                    f"{platform_registry.keys()} (aliases like 'v100' also work)")
        if self.min_platform_samples < 2:
            raise ValueError("min_platform_samples must be >= 2 (the split needs "
                             "at least one train and one validation sample)")

    def platform_specs(self) -> Tuple[HardwareSpec, ...]:
        """The resolved :class:`HardwareSpec` objects, in configured order."""
        return tuple(resolve_platform(name) for name in self.platforms)


# --------------------------------------------------------------------- #
@dataclass
class GraphConfig:
    """How sources become graphs: representation variant and encoder options."""

    variant: Union[str, GraphVariant] = GraphVariant.PARAGRAPH
    default_trip_count: int = 16
    include_terminal_flag: bool = True
    log_scale_weights: bool = True

    def __post_init__(self) -> None:
        self.variant = coerce_graph_variant(self.variant)
        if self.default_trip_count < 1:
            raise ValueError(
                f"default_trip_count must be >= 1, got {self.default_trip_count}")

    def make_encoder(self) -> GraphEncoder:
        return GraphEncoder(include_terminal_flag=self.include_terminal_flag,
                            log_scale_weights=self.log_scale_weights)

    @property
    def use_edge_weight(self) -> bool:
        """Edge weights are only meaningful for the full ParaGraph variant."""
        return self.variant is GraphVariant.PARAGRAPH


# --------------------------------------------------------------------- #
@dataclass
class ModelConfig:
    """The GNN architecture (convolution kind resolved via the registry)."""

    hidden_dim: int = 32
    conv: str = "rgat"
    readout: str = "mean_max"
    num_conv_layers: int = 3
    heads: int = 1
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.num_conv_layers < 1:
            raise ValueError(
                f"num_conv_layers must be >= 1, got {self.num_conv_layers}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.readout not in READOUTS:
            raise ValueError(
                f"unknown readout {self.readout!r}; valid readouts: {list(READOUTS)}")
        if self.conv not in conv_registry:
            raise ValueError(
                f"unknown convolution {self.conv!r}; registered convolutions: "
                f"{conv_registry.keys()} (add your own with repro.api.register_conv)")

    def build(self, node_feature_dim: int, use_edge_weight: bool = True,
              seed: Optional[int] = None):
        """Instantiate a :class:`~repro.gnn.models.ParaGraphModel`."""
        from ..gnn.models import ParaGraphModel
        return ParaGraphModel(
            node_feature_dim=node_feature_dim,
            hidden_dim=self.hidden_dim,
            conv=self.conv,
            readout=self.readout,
            num_conv_layers=self.num_conv_layers,
            heads=self.heads,
            dropout=self.dropout,
            use_edge_weight=use_edge_weight,
            seed=seed,
        )


# --------------------------------------------------------------------- #
@dataclass
class ReproConfig:
    """One config tree for the whole pipeline, stage by stage."""

    data: DataConfig = field(default_factory=DataConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    train_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < float(self.train_fraction) < 1.0:
            raise ValueError(
                f"train_fraction must be strictly between 0 and 1 (exclusive), got "
                f"{self.train_fraction!r}; the paper's 9:1 split corresponds to 0.9")

    # ------------------------------------------------------------------ #
    def platform_specs(self) -> Tuple[HardwareSpec, ...]:
        return self.data.platform_specs()

    def make_encoder(self) -> GraphEncoder:
        return self.graph.make_encoder()

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe; kernels/platforms stored by name)."""
        from .serialization import config_to_dict
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload) -> "ReproConfig":
        """Inverse of :meth:`to_dict`; missing keys fall back to defaults."""
        from .serialization import config_from_dict
        return config_from_dict(payload)
