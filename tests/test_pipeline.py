"""Tests for the end-to-end data pipeline (configurations, graphs, runtimes,
datasets, workflow)."""

import numpy as np
import pytest

from repro.advisor import VariantKind
from repro.api import DataConfig, ModelConfig, ReproConfig, Session
from repro.hardware import EPYC7401, MI50, POWER9, V100
from repro.kernels import get_kernel
from repro.ml.trainer import TrainingConfig
from repro.paragraph import EdgeType, GraphEncoder, GraphVariant
from repro.pipeline import (
    Configuration,
    DatasetBuilder,
    RuntimeCollector,
    SweepConfig,
    drop_application,
    encode_configuration,
    filter_for_platform,
    generate_configurations,
    generate_paragraph,
    scale_sizes,
    table2_statistics,
)

SMALL_KERNELS = [get_kernel("matmul"), get_kernel("matvec"), get_kernel("pf_normalize")]
SMALL_SWEEP = SweepConfig(size_scales=(1.0,), team_counts=(64,), thread_counts=(8,),
                          kernels=SMALL_KERNELS)


class TestConfigurationSweep:
    def test_configuration_count(self):
        configs = generate_configurations(SMALL_SWEEP)
        # matmul: 6 variants, matvec: 3, pf_normalize: 3  => 12 configs
        assert len(configs) == 12

    def test_scales_multiply_configurations(self):
        sweep = SweepConfig(size_scales=(0.5, 1.0), team_counts=(64,), thread_counts=(8,),
                            kernels=[get_kernel("matvec")])
        assert len(generate_configurations(sweep)) == 6

    def test_scale_sizes_respects_floor_and_small_dims(self):
        scaled = scale_sizes(get_kernel("knn_distance"), 0.001, minimum=4)
        assert scaled["N"] == 66 or scaled["N"] >= 4
        assert scaled["D"] == 2          # tiny dimension left untouched

    def test_filter_for_platform(self):
        configs = generate_configurations(SMALL_SWEEP)
        gpu_configs = filter_for_platform(configs, is_gpu=True)
        cpu_configs = filter_for_platform(configs, is_gpu=False)
        assert len(gpu_configs) + len(cpu_configs) == len(configs)
        assert all(c.variant.is_gpu for c in gpu_configs)

    def test_configuration_metadata(self):
        config = generate_configurations(SMALL_SWEEP)[0]
        metadata = config.metadata
        assert {"application", "kernel", "variant", "num_teams", "num_threads",
                "sizes", "is_gpu", "collapse", "repetition"} <= set(metadata)

    def test_configuration_name_is_unique(self):
        configs = generate_configurations(SMALL_SWEEP)
        names = [c.name for c in configs]
        assert len(names) == len(set(names))

    def test_repetitions_add_configurations(self):
        sweep = SweepConfig(size_scales=(1.0,), team_counts=(64,), thread_counts=(8,),
                            kernels=[get_kernel("matvec")], repetitions=3)
        assert len(generate_configurations(sweep)) == 9


class TestGraphGeneration:
    def configuration(self, kind=VariantKind.GPU_COLLAPSE):
        from repro.advisor import generate_variant

        kernel = get_kernel("matmul")
        sizes = {"N": 64, "M": 64, "K": 64}
        return Configuration(generate_variant(kernel, kind, sizes), sizes, 64, 32)

    def test_generated_graph_contains_omp_directive_node(self):
        graph = generate_paragraph(self.configuration())
        assert "OMPTargetTeamsDistributeParallelForDirective" in graph.node_labels()

    def test_generated_graph_validates(self):
        generate_paragraph(self.configuration()).validate()

    def test_graph_weights_reflect_problem_size(self):
        small = generate_paragraph(self.configuration())
        config = self.configuration()
        large_sizes = {"N": 128, "M": 128, "K": 128}
        large_config = Configuration(config.variant, large_sizes, 64, 32)
        large = generate_paragraph(large_config)
        assert max(e.weight for e in large.edges_of_type(EdgeType.CHILD)) > \
            max(e.weight for e in small.edges_of_type(EdgeType.CHILD))

    def test_raw_ast_variant_graph(self):
        graph = generate_paragraph(self.configuration(), GraphVariant.RAW_AST)
        assert graph.edge_type_counts()[EdgeType.NEXT_TOKEN] == 0

    def test_encode_configuration_attaches_metadata_and_target(self):
        encoder = GraphEncoder()
        sample = encode_configuration(self.configuration(), encoder, runtime_us=123.0,
                                      platform_name="NVIDIA V100")
        assert sample.target == 123.0
        assert sample.metadata["platform"] == "NVIDIA V100"
        assert sample.aux_features.tolist() == [64.0, 32.0]


class TestRuntimeCollection:
    def test_collector_skips_incompatible_variants(self):
        configs = generate_configurations(SMALL_SWEEP)
        collector = RuntimeCollector(POWER9)
        measurements = collector.collect(configs)
        assert all(not m.configuration.variant.is_gpu for m in measurements)
        assert len(measurements) == len(filter_for_platform(configs, is_gpu=False))

    def test_collect_one_returns_none_for_wrong_platform(self):
        gpu_config = filter_for_platform(generate_configurations(SMALL_SWEEP), True)[0]
        assert RuntimeCollector(EPYC7401).collect_one(gpu_config) is None

    def test_failure_filter_drops_and_records(self):
        configs = generate_configurations(SweepConfig(
            size_scales=(1.0,), team_counts=(64,), thread_counts=(8,),
            kernels=[get_kernel("matmul"), get_kernel("laplace_sweep")]))
        collector = RuntimeCollector(MI50, failure_filter=drop_application("Laplace"))
        measurements = collector.collect(configs)
        assert all(m.configuration.kernel.application != "Laplace" for m in measurements)
        assert collector.failed and all(c.kernel.application == "Laplace"
                                        for c in collector.failed)

    def test_measurements_are_positive(self):
        measurements = RuntimeCollector(V100).collect(generate_configurations(SMALL_SWEEP))
        assert all(m.runtime_us > 0 for m in measurements)


class TestDatasetBuilder:
    def test_build_per_platform_counts(self):
        builder = DatasetBuilder(platforms=(V100, POWER9))
        result = builder.build(SMALL_SWEEP)
        configs = generate_configurations(SMALL_SWEEP)
        assert len(result.datasets["NVIDIA V100"]) == len(filter_for_platform(configs, True))
        assert len(result.datasets["IBM POWER9"]) == len(filter_for_platform(configs, False))

    def test_table2_statistics_shape(self):
        result = DatasetBuilder(platforms=(V100,)).build(SMALL_SWEEP)
        rows = table2_statistics(result)
        assert len(rows) == 1
        assert {"platform", "data_points", "runtime_min_ms", "runtime_max_ms",
                "std_dev_ms"} <= set(rows[0])

    def test_failure_filter_reduces_one_platform_only(self):
        sweep = SweepConfig(size_scales=(1.0,), team_counts=(64,), thread_counts=(8,),
                            kernels=[get_kernel("matmul"), get_kernel("laplace_copy")])
        builder = DatasetBuilder(
            platforms=(V100, MI50),
            failure_filters={MI50.name: drop_application("Laplace")})
        result = builder.build(sweep)
        assert len(result.datasets[MI50.name]) < len(result.datasets[V100.name])
        assert result.dropped[MI50.name] > 0

    def test_samples_carry_platform_metadata(self):
        result = DatasetBuilder(platforms=(MI50,)).build(SMALL_SWEEP)
        dataset = result.datasets[MI50.name]
        assert all(s.metadata["platform"] == MI50.name for s in dataset)


class TestWorkflow:
    def test_workflow_trains_and_reports(self):
        config = ReproConfig(
            data=DataConfig(
                sweep=SweepConfig(size_scales=(0.5, 1.0), team_counts=(64,),
                                  thread_counts=(8, 64), kernels=SMALL_KERNELS),
                platforms=(V100,)),
            model=ModelConfig(hidden_dim=12),
            training=TrainingConfig(epochs=4, batch_size=16, learning_rate=3e-3, seed=0),
        )
        result = Session(config).workflow()
        assert "NVIDIA V100" in result.platforms
        platform_result = result.platforms["NVIDIA V100"]
        assert len(platform_result.history) == 4
        metrics = result.metrics_table()["NVIDIA V100"]
        assert metrics["rmse"] > 0 and 0 <= metrics["normalized_rmse"] < 10

    def test_workflow_skips_platform_with_too_few_samples(self):
        config = ReproConfig(
            data=DataConfig(
                sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,), thread_counts=(8,),
                                  kernels=[get_kernel("matvec")],
                                  variant_kinds=(VariantKind.GPU,)),
                platforms=(POWER9,)),
            model=ModelConfig(hidden_dim=8),
            training=TrainingConfig(epochs=2, batch_size=4, seed=0),
        )
        result = Session(config).workflow()
        assert result.platforms == {}
