"""Dataset assembly: pairing ParaGraphs with runtimes (Fig. 3, "Dataset").

Combines the three previous stages into per-platform
:class:`~repro.ml.dataset.GraphDataset` objects and computes the dataset
statistics reported in the paper's Table II (data-point counts, runtime
ranges, standard deviations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..hardware.specs import ALL_PLATFORMS, HardwareSpec
from ..ml.dataset import GraphDataset
from ..paragraph.encoders import GraphEncoder
from ..paragraph.variants import GraphVariant
from .graph_generation import encode_configuration
from .runtime_collection import RuntimeCollector
from .variant_generation import Configuration, SweepConfig, generate_configurations


@dataclass
class DatasetBuildResult:
    """Datasets per platform plus bookkeeping about dropped configurations."""

    datasets: Dict[str, GraphDataset]
    num_configurations: int
    dropped: Dict[str, int] = field(default_factory=dict)


class DatasetBuilder:
    """Builds the per-platform graph datasets used by every experiment."""

    def __init__(
        self,
        platforms: Sequence[HardwareSpec] = ALL_PLATFORMS,
        graph_variant: GraphVariant = GraphVariant.PARAGRAPH,
        encoder: Optional[GraphEncoder] = None,
        noisy: bool = True,
        failure_filters: Optional[Dict[str, Callable[[Configuration], bool]]] = None,
        default_trip_count: int = 16,
    ) -> None:
        """``failure_filters`` maps a platform name to a drop predicate (e.g.
        dropping Laplace on the MI50, as happened in the paper)."""
        self.platforms = list(platforms)
        self.graph_variant = graph_variant
        self.encoder = encoder or GraphEncoder()
        self.noisy = noisy
        self.failure_filters = dict(failure_filters or {})
        self.default_trip_count = default_trip_count

    # ------------------------------------------------------------------ #
    def build(self, sweep: Optional[SweepConfig] = None,
              configurations: Optional[Sequence[Configuration]] = None) -> DatasetBuildResult:
        """Generate configurations (unless given) and build every dataset."""
        if configurations is None:
            configurations = generate_configurations(sweep)
        datasets: Dict[str, GraphDataset] = {}
        dropped: Dict[str, int] = {}
        for platform in self.platforms:
            collector = RuntimeCollector(
                platform,
                noisy=self.noisy,
                failure_filter=self.failure_filters.get(platform.name),
            )
            measurements = collector.collect(configurations)
            dataset = GraphDataset(name=platform.name)
            for measurement in measurements:
                sample = encode_configuration(
                    measurement.configuration,
                    self.encoder,
                    measurement.runtime_us,
                    graph_variant=self.graph_variant,
                    platform_name=platform.name,
                    default_trip_count=self.default_trip_count,
                )
                dataset.add(sample)
            datasets[platform.name] = dataset
            dropped[platform.name] = len(collector.failed)
        return DatasetBuildResult(
            datasets=datasets,
            num_configurations=len(configurations),
            dropped=dropped,
        )


def table2_statistics(result: DatasetBuildResult) -> List[Dict[str, object]]:
    """Rows shaped like the paper's Table II for the built datasets."""
    rows: List[Dict[str, object]] = []
    for platform_name, dataset in result.datasets.items():
        stats = dataset.statistics()
        rows.append({
            "platform": platform_name,
            "data_points": stats["count"],
            "runtime_min_ms": stats["min"] / 1000.0,
            "runtime_max_ms": stats["max"] / 1000.0,
            "std_dev_ms": stats["std"] / 1000.0,
        })
    return rows
