"""Typed, composable pipeline stages (the Fig. 3 boxes as objects).

Each :class:`Stage` declares the context keys it ``requires`` and
``provides`` and transforms a shared :class:`~repro.api.pipeline.PipelineContext`.
The stages mirror the paper's workflow:

* :class:`ParseStage` — C/OpenMP source → analyzed Clang-style AST,
* :class:`GraphStage` — AST → :class:`~repro.paragraph.graph.ParaGraph`
  (variant-aware: Raw AST / Augmented AST / ParaGraph),
* :class:`EncodeStage` — ParaGraph → numeric :class:`EncodedGraph` arrays,
* :class:`DatasetStage` — configuration sweep → per-platform datasets,
* :class:`TrainStage` — datasets → trained per-platform models,
* :class:`PredictStage` — encoded graphs + trained model → runtimes (µs).

``Pipeline([ParseStage(), GraphStage(), EncodeStage(), PredictStage()])`` is
the serving path; ``Pipeline([DatasetStage(cfg), TrainStage(cfg)])`` is the
training path.  :class:`~repro.api.session.Session` wires both together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..clang import analyze, parse_snippet, parse_source
from ..clang.semantics import ConstantEnvironment
from ..hardware.specs import HardwareSpec
from ..ml.dataset import GraphDataset
from ..ml.split import train_val_split
from ..ml.trainer import History, Trainer
from ..paragraph.builder import build_paragraph
from ..paragraph.encoders import GraphEncoder
from ..paragraph.weights import WeightConfig, child_edge_weights
from ..pipeline.dataset_builder import DatasetBuilder
from ..pipeline.variant_generation import generate_configurations
from .config import GraphConfig, ReproConfig

__all__ = [
    "DatasetStage",
    "EncodeStage",
    "GraphStage",
    "ParseStage",
    "PlatformResult",
    "PredictStage",
    "SourceSpec",
    "Stage",
    "TrainStage",
]


@dataclass
class SourceSpec:
    """One prediction request: a source plus its execution context."""

    source: str
    sizes: Mapping[str, int] = field(default_factory=dict)
    num_teams: int = 1
    num_threads: int = 1
    name: str = ""

    @classmethod
    def of(cls, source, sizes: Optional[Mapping[str, int]] = None,
           num_teams: int = 1, num_threads: int = 1, name: str = "") -> "SourceSpec":
        """Coerce a str, :class:`SourceSpec` or any object with a ``.source``
        attribute (e.g. a :class:`~repro.advisor.transformations.KernelVariant`)."""
        if isinstance(source, cls):
            return source
        if isinstance(source, str):
            return cls(source=source, sizes=dict(sizes or {}),
                       num_teams=num_teams, num_threads=num_threads, name=name)
        text = getattr(source, "source", None)
        if isinstance(text, str):
            return cls(source=text, sizes=dict(sizes or {}),
                       num_teams=num_teams, num_threads=num_threads,
                       name=name or getattr(source, "name", ""))
        raise TypeError(
            f"cannot build a SourceSpec from {type(source).__name__}; expected "
            "a source string, a SourceSpec, or an object with a .source attribute")


class Stage:
    """Base class: a named transformation over the pipeline context."""

    #: context keys that must exist before the stage runs
    requires: Tuple[str, ...] = ()
    #: context keys the stage guarantees to set
    provides: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return type(self).__name__

    def run(self, context) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{self.name}(requires={list(self.requires)}, "
                f"provides={list(self.provides)})")


# --------------------------------------------------------------------- #
class ParseStage(Stage):
    """``specs`` (list of :class:`SourceSpec`) → analyzed ``asts``."""

    requires = ("specs",)
    provides = ("asts",)

    def __init__(self, snippet: bool = False) -> None:
        #: parse bare statement snippets instead of full translation units
        self.snippet = snippet

    def run(self, context) -> None:
        asts = []
        for spec in context["specs"]:
            if self.snippet:
                ast = parse_snippet(spec.source)
            else:
                ast = parse_source(spec.source, filename=spec.name or "<repro.api>")
            analyze(ast)
            asts.append(ast)
        context["asts"] = asts


class GraphStage(Stage):
    """``asts`` + ``specs`` → ``graphs`` (variant-aware ParaGraphs)."""

    requires = ("specs", "asts")
    provides = ("graphs",)

    def __init__(self, config: Optional[GraphConfig] = None) -> None:
        self.config = config or GraphConfig()

    def run(self, context) -> None:
        graphs = []
        for spec, ast in zip(context["specs"], context["asts"]):
            env = ConstantEnvironment(dict(spec.sizes))
            graphs.append(build_paragraph(
                ast,
                variant=self.config.variant,
                num_threads=spec.num_threads,
                num_teams=spec.num_teams,
                env=env,
                default_trip_count=self.config.default_trip_count,
                name=spec.name,
            ))
        context["graphs"] = graphs

    def child_weights(self, ast, spec: SourceSpec):
        """The ``Child``-edge weights, in edge order, that :meth:`run` gives
        *spec*'s graph — without building it again.

        The per-context half of graph construction: *ast* is the analyzed
        tree of ``spec.source`` (built under any context), and the result
        feeds :meth:`~repro.paragraph.encoders.GraphEncoder.reweight`.
        The unweighted ablation variants weight every Child edge 1.
        """
        if not self.config.variant.includes_weights:
            return 1.0
        return child_edge_weights(ast, WeightConfig(
            num_threads=spec.num_threads,
            num_teams=spec.num_teams,
            default_trip_count=self.config.default_trip_count,
            env=ConstantEnvironment(dict(spec.sizes)),
        ))


class EncodeStage(Stage):
    """``graphs`` + ``specs`` → ``encoded`` (numeric arrays for the GNN)."""

    requires = ("specs", "graphs")
    provides = ("encoded",)

    def __init__(self, encoder: Optional[GraphEncoder] = None) -> None:
        self.encoder = encoder or GraphEncoder()

    def run(self, context) -> None:
        context["encoded"] = [
            self.encoder.encode(graph, num_teams=spec.num_teams,
                                num_threads=spec.num_threads, name=spec.name)
            for spec, graph in zip(context["specs"], context["graphs"])
        ]


# --------------------------------------------------------------------- #
class DatasetStage(Stage):
    """Configuration sweep → per-platform datasets (``build``).

    Consumes pre-generated ``configurations`` from the context when present
    (the ablation drivers share one sweep across graph variants), otherwise
    enumerates the config's sweep.  Also publishes the shared ``encoder`` so
    downstream stages agree on the feature dimensionality.
    """

    provides = ("build", "configurations", "encoder")

    def __init__(self, config: Optional[ReproConfig] = None,
                 encoder: Optional[GraphEncoder] = None) -> None:
        self.config = config or ReproConfig()
        self.encoder = encoder or self.config.make_encoder()

    def run(self, context) -> None:
        configurations = context.get("configurations")
        if configurations is None:
            configurations = generate_configurations(self.config.data.sweep)
        builder = DatasetBuilder(
            platforms=self.config.platform_specs(),
            graph_variant=self.config.graph.variant,
            encoder=self.encoder,
            noisy=self.config.data.noisy_runtimes,
            default_trip_count=self.config.graph.default_trip_count,
        )
        context["configurations"] = list(configurations)
        context["encoder"] = self.encoder
        context["build"] = builder.build(configurations=configurations)


@dataclass
class PlatformResult:
    """Everything :class:`TrainStage` produces for one platform."""

    platform: HardwareSpec
    dataset: GraphDataset
    train: GraphDataset
    validation: GraphDataset
    trainer: Trainer
    history: History
    metrics: Dict[str, float]


class TrainStage(Stage):
    """``build`` + ``encoder`` → trained ``platform_results``."""

    requires = ("build", "encoder")
    provides = ("platform_results",)

    def __init__(self, config: Optional[ReproConfig] = None) -> None:
        self.config = config or ReproConfig()

    def run(self, context) -> None:
        config = self.config
        build = context["build"]
        encoder = context["encoder"]
        results: Dict[str, PlatformResult] = {}
        for platform in config.platform_specs():
            dataset = build.datasets[platform.name]
            if len(dataset) < config.data.min_platform_samples:
                continue
            train, validation = train_val_split(
                dataset, config.train_fraction, seed=config.seed)
            model = config.model.build(
                node_feature_dim=encoder.feature_dim,
                use_edge_weight=config.graph.use_edge_weight,
                seed=config.seed,
            )
            trainer = Trainer(model, config.training)
            history = trainer.fit(train, validation)
            metrics = trainer.evaluate(validation)
            results[platform.name] = PlatformResult(
                platform=platform,
                dataset=dataset,
                train=train,
                validation=validation,
                trainer=trainer,
                history=history,
                metrics=metrics,
            )
        context["platform_results"] = results


class PredictStage(Stage):
    """``encoded`` + ``trainer`` → ``predictions`` (runtimes in µs).

    The whole request list runs through one block-diagonal packed forward
    (:meth:`repro.ml.trainer.Trainer.predict_packed`) on the no-autodiff
    fast path in float64, bit-identical to predicting each graph alone.
    """

    requires = ("encoded", "trainer")
    provides = ("predictions",)

    def run(self, context) -> None:
        context["predictions"] = context["trainer"].predict_packed(
            list(context["encoded"]))
