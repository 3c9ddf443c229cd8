"""``repro.pipeline`` — the data side of the paper's workflow (Fig. 3).

Variant/configuration sweeps, ParaGraph generation, (simulated) runtime
collection and dataset assembly with Table II statistics.  Training and the
one-call workflow live in :mod:`repro.api`
(``Session(ReproConfig(...)).workflow()``).
"""

from .dataset_builder import DatasetBuilder, DatasetBuildResult, table2_statistics
from .graph_generation import encode_configuration, generate_paragraph
from .runtime_collection import Measurement, RuntimeCollector, drop_application
from .variant_generation import (
    Configuration,
    SweepConfig,
    filter_for_platform,
    generate_configurations,
    scale_sizes,
)

__all__ = [
    "Configuration",
    "DatasetBuildResult",
    "DatasetBuilder",
    "Measurement",
    "RuntimeCollector",
    "SweepConfig",
    "drop_application",
    "encode_configuration",
    "filter_for_platform",
    "generate_configurations",
    "generate_paragraph",
    "scale_sizes",
    "table2_statistics",
]
