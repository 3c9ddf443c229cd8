"""Dataset containers for (ParaGraph, runtime) samples.

A :class:`GraphDataset` holds :class:`~repro.paragraph.encoders.EncodedGraph`
instances whose ``target`` is the measured (or simulated) runtime in
microseconds and whose ``metadata`` records the provenance the evaluation
needs (application, kernel, variant, platform, problem size, teams/threads).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..paragraph.encoders import EncodedGraph, GraphBatch, GraphEncoder


class GraphDataset:
    """An in-memory list of encoded graphs with convenience accessors."""

    def __init__(self, samples: Optional[Sequence[EncodedGraph]] = None,
                 name: str = "") -> None:
        self.samples: List[EncodedGraph] = list(samples or [])
        self.name = name

    # ------------------------------------------------------------------ #
    def add(self, sample: EncodedGraph) -> None:
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GraphDataset(self.samples[index], name=self.name)
        return self.samples[index]

    def __iter__(self) -> Iterator[EncodedGraph]:
        return iter(self.samples)

    # ------------------------------------------------------------------ #
    def targets(self) -> np.ndarray:
        """Runtime labels (microseconds) as an array."""
        return np.array([sample.target for sample in self.samples], dtype=np.float64)

    def metadata_column(self, key: str, default=None) -> List:
        """Extract one metadata field from every sample."""
        return [sample.metadata.get(key, default) for sample in self.samples]

    def filter(self, predicate) -> "GraphDataset":
        """New dataset with the samples for which *predicate* is true."""
        return GraphDataset([s for s in self.samples if predicate(s)], name=self.name)

    def runtime_range(self) -> float:
        """max - min of the runtime labels (the Norm-RMSE denominator)."""
        targets = self.targets()
        if targets.size == 0:
            return 1.0
        span = float(targets.max() - targets.min())
        return span if span > 0 else 1.0

    def statistics(self) -> Dict[str, float]:
        """Summary statistics matching the columns of the paper's Table II."""
        targets = self.targets()
        if targets.size == 0:
            return {"count": 0, "min": 0.0, "max": 0.0, "std": 0.0, "mean": 0.0}
        return {
            "count": int(targets.size),
            "min": float(targets.min()),
            "max": float(targets.max()),
            "std": float(targets.std()),
            "mean": float(targets.mean()),
        }

    # ------------------------------------------------------------------ #
    def batches(self, batch_size: int, shuffle: bool = False,
                rng: Optional[np.random.Generator] = None) -> Iterator[GraphBatch]:
        """Yield collated mini-batches."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = np.arange(len(self.samples))
        if shuffle:
            (rng or np.random.default_rng()).shuffle(order)
        for start in range(0, len(order), batch_size):
            chunk = [self.samples[i] for i in order[start:start + batch_size]]
            if chunk:
                yield GraphEncoder.collate(chunk)
