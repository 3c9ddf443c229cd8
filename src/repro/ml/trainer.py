"""Training loop for the ParaGraph model (and other graph regressors).

The trainer reproduces the setup of §IV-B:

* Mean Squared Error loss,
* Adam optimizer,
* 9:1 train/validation split handled by the caller,
* targets and auxiliary features normalized with MinMax-style scalers
  (runtimes additionally pass through ``log1p`` because they span several
  orders of magnitude),
* per-epoch validation metrics recorded in a :class:`History`, which is what
  the training-curve figures (Fig. 5 and Fig. 7) are drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..nn.losses import MSELoss
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..paragraph.encoders import EncodedGraph, GraphBatch
from .dataset import GraphDataset
from .metrics import normalized_rmse, rmse
from .scaler import LogMinMaxScaler, MinMaxScaler


@dataclass
class TrainingConfig:
    """Hyper-parameters of a training run."""

    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    seed: Optional[int] = 0
    shuffle: bool = True
    log_every: int = 0          # 0 disables progress printing
    early_stopping_patience: int = 0   # 0 disables early stopping


@dataclass
class EpochRecord:
    """Metrics recorded after one epoch."""

    epoch: int
    train_loss: float
    val_rmse: float
    val_normalized_rmse: float


@dataclass
class History:
    """Sequence of per-epoch records; the source of Figs. 5 and 7."""

    records: List[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def epochs(self) -> List[int]:
        return [r.epoch for r in self.records]

    @property
    def train_losses(self) -> List[float]:
        return [r.train_loss for r in self.records]

    @property
    def val_rmses(self) -> List[float]:
        return [r.val_rmse for r in self.records]

    @property
    def val_normalized_rmses(self) -> List[float]:
        return [r.val_normalized_rmse for r in self.records]

    @property
    def best_val_rmse(self) -> float:
        return min(self.val_rmses) if self.records else float("inf")

    def __len__(self) -> int:
        return len(self.records)


class Trainer:
    """Fits a graph-regression model on a :class:`GraphDataset`."""

    def __init__(self, model: Module, config: Optional[TrainingConfig] = None) -> None:
        self.model = model
        self.config = config or TrainingConfig()
        self.target_scaler = LogMinMaxScaler()
        self.aux_scaler = MinMaxScaler()
        self._fitted_scalers = False

    # ------------------------------------------------------------------ #
    # scaling helpers
    # ------------------------------------------------------------------ #
    def _fit_scalers(self, dataset: GraphDataset) -> None:
        targets = dataset.targets()
        aux = np.stack([s.aux_features for s in dataset.samples], axis=0)
        self.target_scaler.fit(targets)
        self.aux_scaler.fit(aux)
        self._fitted_scalers = True

    def _scaled_batch(self, batch: GraphBatch) -> GraphBatch:
        """Return a copy of *batch* with scaled aux features and targets."""
        return GraphBatch(
            node_features=batch.node_features,
            edge_index=batch.edge_index,
            edge_type=batch.edge_type,
            edge_weight=batch.edge_weight,
            aux_features=self.aux_scaler.transform(batch.aux_features),
            batch=batch.batch,
            targets=self.target_scaler.transform(batch.targets),
            num_graphs=batch.num_graphs,
        )

    # ------------------------------------------------------------------ #
    def predict(self, dataset: Iterable[EncodedGraph], dtype=None) -> np.ndarray:
        """Predict runtimes (microseconds) for every graph in *dataset*.

        The graphs run through the kernel serving uses: they are packed into
        block-diagonal batches (:func:`repro.gnn.pack_graphs`) of bounded
        node count (:func:`repro.gnn.split_packs`) and predicted with
        ``model.predict_packed``, so every answer is bit-identical to
        predicting that graph alone, for any dataset order or split.

        Inference is float64, the one precision the engine serves.  *dtype*
        survives only so callers written against the former float32/float64
        switch keep working: ``None`` or float64 is accepted, anything else
        raises :class:`ValueError` rather than silently serving a precision
        other than the one asked for.
        """
        if dtype is not None and np.dtype(dtype) != np.float64:
            raise ValueError(
                f"predictions are served in float64 only, got dtype={dtype!r}")
        if not self._fitted_scalers:
            raise RuntimeError("Trainer.fit must run before predict")
        graphs = list(dataset)
        if not graphs:
            return np.zeros(0)
        # imported lazily: repro.gnn pulls in the api registries, which in
        # turn import this module
        from ..gnn.packing import pack_graphs, split_packs
        from ..obs.tracing import span

        outputs: List[np.ndarray] = []
        for pack in split_packs(graphs):
            batch = pack_graphs(pack, self.model.num_relations)
            batch.aux_features = self.aux_scaler.transform(batch.aux_features)
            with span("engine.forward", num_graphs=len(pack)):
                outputs.append(self.model.predict_packed(batch))
        scaled_predictions = np.concatenate(outputs)
        # clamp to the scaler's range before inverting so expm1 cannot overflow
        scaled_predictions = np.clip(scaled_predictions, 0.0, 1.0)
        return self.target_scaler.inverse_transform(scaled_predictions)

    def predict_packed(self, graphs: Iterable[EncodedGraph]) -> np.ndarray:
        """:meth:`predict` over a list of encoded graphs (the serving call)."""
        return self.predict(graphs)

    def evaluate(self, dataset: GraphDataset) -> Dict[str, float]:
        """RMSE / normalized RMSE of the current model on *dataset*."""
        predictions = self.predict(dataset)
        actual = dataset.targets()
        return {
            "rmse": rmse(actual, predictions),
            "normalized_rmse": normalized_rmse(actual, predictions),
        }

    # ------------------------------------------------------------------ #
    def fit(self, train: GraphDataset, validation: Optional[GraphDataset] = None) -> History:
        """Train the model; returns the per-epoch :class:`History`."""
        if len(train) == 0:
            raise ValueError("training dataset is empty")
        config = self.config
        rng = np.random.default_rng(config.seed)
        self._fit_scalers(train)
        optimizer = Adam(self.model.parameters(), lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        loss_fn = MSELoss()
        history = History()
        best_rmse = float("inf")
        epochs_since_best = 0

        for epoch in range(1, config.epochs + 1):
            self.model.train()
            epoch_losses: List[float] = []
            for batch in train.batches(config.batch_size, shuffle=config.shuffle, rng=rng):
                scaled = self._scaled_batch(batch)
                optimizer.zero_grad()
                prediction = self.model(scaled)
                loss = loss_fn(prediction, Tensor(scaled.targets))
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            train_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0

            if validation is not None and len(validation) > 0:
                metrics = self.evaluate(validation)
                val_rmse, val_norm = metrics["rmse"], metrics["normalized_rmse"]
            else:
                val_rmse, val_norm = float("nan"), float("nan")
            history.append(EpochRecord(epoch, train_loss, val_rmse, val_norm))

            if config.log_every and epoch % config.log_every == 0:  # pragma: no cover
                print(f"epoch {epoch:4d}  train_loss={train_loss:.6f}  "
                      f"val_rmse={val_rmse:.3f}")

            if config.early_stopping_patience and validation is not None:
                if val_rmse < best_rmse - 1e-12:
                    best_rmse = val_rmse
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1
                    if epochs_since_best >= config.early_stopping_patience:
                        break
        return history
