"""Integration tests crossing every subsystem of the reproduction."""

import numpy as np
import pytest

from repro.advisor import ALL_VARIANTS, OpenMPAdvisor, VariantKind, generate_variant
from repro.api import DataConfig, ModelConfig, ReproConfig, Session
from repro.clang import analyze, parse_source
from repro.hardware import POWER9, V100, RuntimeSimulator, analytical_cost_model
from repro.kernels import get_kernel
from repro.ml import GraphDataset, Trainer, TrainingConfig, train_val_split
from repro.gnn import ParaGraphModel
from repro.paragraph import EdgeType, GraphEncoder, build_paragraph
from repro.pipeline import (
    Configuration,
    SweepConfig,
    encode_configuration,
    generate_configurations,
)


class TestSourceToGraphToPrediction:
    """The full path of Fig. 3 on a single kernel, stage by stage."""

    def test_variant_source_to_weighted_graph(self):
        kernel = get_kernel("laplace_sweep")
        sizes = {"N": 128, "M": 128}
        variant = generate_variant(kernel, VariantKind.GPU_COLLAPSE, sizes)
        ast = analyze(parse_source(variant.source))
        graph = build_paragraph(ast, env=kernel.environment(sizes),
                                num_teams=64, num_threads=64)
        graph.validate()
        # the collapsed nest should produce heavy Child edges (127*127 iterations
        # divided by 64*64 parallelism ~= 3.94) somewhere inside the loop body
        weights = [e.weight for e in graph.edges_of_type(EdgeType.CHILD)]
        assert max(weights) == pytest.approx(127 * 127 / (64 * 64))

    def test_trained_model_orders_small_vs_large_kernel(self):
        """After training on simulated data, predictions must at least order a
        clearly-small kernel before a clearly-large one."""
        kernel = get_kernel("matmul")
        encoder = GraphEncoder()
        simulator = RuntimeSimulator(V100)
        samples = []
        rng = np.random.default_rng(0)
        for size in (32, 48, 64, 96, 128, 192, 256, 320, 384, 448, 512):
            for kind in (VariantKind.GPU, VariantKind.GPU_COLLAPSE):
                sizes = {"N": size, "M": size, "K": size}
                variant = generate_variant(kernel, kind, sizes)
                config = Configuration(variant, sizes, 128, 64,
                                       repetition=int(rng.integers(0, 3)))
                runtime = simulator.measure(variant, sizes, 128, 64, config.repetition)
                samples.append(encode_configuration(config, encoder, runtime))
        dataset = GraphDataset(samples)
        train, _ = train_val_split(dataset, 0.9, seed=0)
        model = ParaGraphModel(encoder.feature_dim, hidden_dim=16, seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=30, batch_size=8,
                                                learning_rate=3e-3, seed=0))
        trainer.fit(train, None)
        tiny_sizes = {"N": 32, "M": 32, "K": 32}
        huge_sizes = {"N": 512, "M": 512, "K": 512}
        tiny = encode_configuration(
            Configuration(generate_variant(kernel, VariantKind.GPU_COLLAPSE, tiny_sizes),
                          tiny_sizes, 128, 64), encoder, 0.0)
        huge = encode_configuration(
            Configuration(generate_variant(kernel, VariantKind.GPU_COLLAPSE, huge_sizes),
                          huge_sizes, 128, 64), encoder, 0.0)
        predictions = trainer.predict(GraphDataset([tiny, huge]))
        assert predictions[1] > predictions[0]


class TestAdvisorEndToEnd:
    def test_recommendation_matches_simulated_ground_truth(self):
        """Using the analytical model as the Advisor cost model, the recommended
        variant must be the one with the smallest noise-free simulated runtime."""
        kernel = get_kernel("covariance_matrix")
        sizes = {"N": 2048, "M": 512}
        advisor = OpenMPAdvisor(analytical_cost_model(V100))
        recommendation = advisor.recommend(kernel, sizes, num_teams=256, num_threads=128,
                                           kinds=[k for k in ALL_VARIANTS if k.is_gpu])
        simulator = RuntimeSimulator(V100, noisy=False)
        truth = {
            kind.value: simulator.measure(generate_variant(kernel, kind, sizes), sizes,
                                          num_teams=256, num_threads=128)
            for kind in ALL_VARIANTS if kind.is_gpu
        }
        assert recommendation.best_kind.value == min(truth, key=truth.get)

    def test_cpu_advisor_on_power9(self):
        advisor = OpenMPAdvisor(analytical_cost_model(POWER9))
        recommendation = advisor.recommend(
            get_kernel("matmul"), {"N": 256, "M": 256, "K": 256}, num_threads=22,
            kinds=[VariantKind.CPU, VariantKind.CPU_COLLAPSE])
        assert recommendation.best_kind in (VariantKind.CPU, VariantKind.CPU_COLLAPSE)


class TestWorkflowProducesLearnableSignal:
    def test_validation_error_improves_over_training(self):
        config = ReproConfig(
            data=DataConfig(
                sweep=SweepConfig(size_scales=(0.5, 1.0, 2.0), team_counts=(64,),
                                  thread_counts=(8, 64),
                                  kernels=[get_kernel("matmul"), get_kernel("matvec"),
                                           get_kernel("transpose"),
                                           get_kernel("knn_distance")]),
                platforms=(V100,)),
            model=ModelConfig(hidden_dim=16),
            training=TrainingConfig(epochs=15, batch_size=16, learning_rate=3e-3, seed=0),
        )
        result = Session(config).workflow()
        history = result.platforms["NVIDIA V100"].history
        # late-training error must beat the first epoch's error
        assert min(history.val_rmses[-5:]) < history.val_rmses[0]

    def test_dataset_statistics_show_cpu_gpu_count_difference(self):
        config = ReproConfig(
            data=DataConfig(
                sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,), thread_counts=(8,),
                                  kernels=[get_kernel("matmul")]),
                platforms=(V100, POWER9)),
            model=ModelConfig(hidden_dim=8),
            training=TrainingConfig(epochs=1, batch_size=4, seed=0),
        )
        result = Session(config).workflow()
        v100_count = len(result.build.datasets["NVIDIA V100"])
        power9_count = len(result.build.datasets["IBM POWER9"])
        # 4 GPU variants vs 2 CPU variants => GPU dataset twice as large (Table II shape)
        assert v100_count == 2 * power9_count
