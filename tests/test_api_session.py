"""Tests for the repro.api session layer: stages, pipelines, Session."""

import warnings

import numpy as np
import pytest

from repro.advisor import VariantKind, generate_variant
from repro.api import (
    DataConfig,
    DatasetStage,
    EncodeStage,
    GraphConfig,
    GraphStage,
    ModelConfig,
    ParseStage,
    Pipeline,
    PipelineError,
    PredictStage,
    ReproConfig,
    Session,
    SourceSpec,
    Stage,
    TrainStage,
    get_kernel,
)
from repro.hardware import V100
from repro.ml.trainer import TrainingConfig
from repro.paragraph import GraphVariant
from repro.pipeline import SweepConfig

TINY_SWEEP = SweepConfig(size_scales=(1.0,), team_counts=(64,), thread_counts=(8, 64),
                         kernels=[get_kernel("matmul"), get_kernel("matvec")])
TINY_TRAINING = TrainingConfig(epochs=3, batch_size=16, learning_rate=2e-3, seed=0)


def tiny_config(**overrides) -> ReproConfig:
    defaults = dict(
        data=DataConfig(sweep=TINY_SWEEP, platforms=("v100",)),
        model=ModelConfig(hidden_dim=12),
        training=TINY_TRAINING,
        seed=0,
    )
    defaults.update(overrides)
    return ReproConfig(**defaults)


SOURCE = "void kernel(int n) { for (int i = 0; i < 50; i++) { n += i; } }"


class TestStageComposition:
    def test_parse_graph_encode_chain(self):
        pipeline = Pipeline([ParseStage(), GraphStage(), EncodeStage()])
        context = pipeline.run(specs=[SourceSpec(SOURCE, num_teams=4, num_threads=2)])
        assert context["graphs"][0].num_nodes == context["encoded"][0].num_nodes
        assert context["encoded"][0].aux_features.tolist() == [4.0, 2.0]

    def test_missing_input_raises_actionable_error(self):
        with pytest.raises(PipelineError, match=r"ParseStage requires \['specs'\]"):
            Pipeline([ParseStage()]).run()

    def test_out_of_order_stages_fail_with_contract_error(self):
        with pytest.raises(PipelineError, match="GraphStage requires"):
            Pipeline([GraphStage(), ParseStage()]).run(specs=[SourceSpec(SOURCE)])

    def test_pipelines_concatenate(self):
        front = Pipeline([ParseStage()])
        back = Pipeline([GraphStage()])
        chained = front + back
        assert [stage.name for stage in chained.stages] == ["ParseStage", "GraphStage"]
        assert "ParseStage" in chained.describe()

    def test_non_stage_rejected(self):
        with pytest.raises(PipelineError, match="not a Stage"):
            Pipeline([ParseStage(), object()])

    def test_provides_contract_enforced(self):
        class BrokenStage(Stage):
            provides = ("something",)

            def run(self, context):
                pass

        with pytest.raises(PipelineError, match="did not set"):
            Pipeline([BrokenStage()]).run()

    def test_dataset_and_train_stages(self):
        config = tiny_config()
        context = Pipeline([DatasetStage(config), TrainStage(config)]).run()
        assert "NVIDIA V100" in context["platform_results"]
        result = context["platform_results"]["NVIDIA V100"]
        assert len(result.history) == TINY_TRAINING.epochs
        assert result.metrics["rmse"] >= 0.0

    def test_graph_stage_is_variant_aware(self):
        specs = [SourceSpec(SOURCE)]
        full = Pipeline([ParseStage(), GraphStage()]).run(specs=specs)["graphs"][0]
        raw = Pipeline([ParseStage(), GraphStage(
            GraphConfig(variant=GraphVariant.RAW_AST))]).run(specs=specs)["graphs"][0]
        assert raw.num_edges < full.num_edges

    def test_source_spec_coercion(self):
        sizes = {"N": 32, "M": 32, "K": 32}
        variant = generate_variant(get_kernel("matmul"), VariantKind.GPU, sizes)
        spec = SourceSpec.of(variant, sizes=sizes, num_teams=8, num_threads=4)
        assert spec.source == variant.source
        assert spec.name == variant.name
        assert SourceSpec.of(spec) is spec
        with pytest.raises(TypeError, match="SourceSpec"):
            SourceSpec.of(123)


class TestSession:
    @pytest.fixture(scope="class")
    def session(self):
        session = Session(tiny_config())
        session.train()
        return session

    def test_no_warning_from_session_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session(tiny_config())     # construction must not warn

    def test_training_is_memoized(self, session):
        assert session.train() is session.train()
        assert session.build_dataset() is session.build_dataset()

    def test_trainer_for_unknown_platform_is_actionable(self, session):
        with pytest.raises(KeyError, match="no trained model for platform"):
            session.trainer_for("mi50")

    def test_predict_batch_and_cache_hits(self, session):
        session.clear_cache()
        sizes = {"N": 48, "M": 48, "K": 48}
        kernel = get_kernel("matmul")
        variants = [generate_variant(kernel, kind, sizes)
                    for kind in (VariantKind.GPU, VariantKind.GPU_COLLAPSE,
                                 VariantKind.GPU_MEM)]
        before = session.cache_info()
        first = session.predict_batch(variants, "v100", sizes=sizes,
                                      num_teams=64, num_threads=8)
        mid = session.cache_info()
        second = session.predict_batch(variants, "v100", sizes=sizes,
                                       num_teams=64, num_threads=8)
        after = session.cache_info()

        assert first.shape == (3,)
        assert (first >= 0).all()
        np.testing.assert_allclose(first, second)
        assert mid.misses - before.misses == 3      # all cold on the first call
        assert mid.hits == before.hits
        assert after.hits - mid.hits == 3           # all cached on the second
        assert after.misses == mid.misses
        assert after.size == 3

    def test_cache_distinguishes_execution_context(self, session):
        session.clear_cache()
        sizes = {"N": 48, "M": 48, "K": 48}
        variant = generate_variant(get_kernel("matmul"), VariantKind.GPU, sizes)
        session.predict(variant, "v100", sizes=sizes, num_teams=64, num_threads=8)
        info = session.cache_info()
        session.predict(variant, "v100", sizes=sizes, num_teams=128, num_threads=8)
        assert session.cache_info().misses == info.misses + 1  # new teams => miss

    def test_cache_capacity_evicts_lru(self):
        session = Session(tiny_config(), graph_cache_size=2)
        session.train()
        sizes = {"N": 32, "M": 32, "K": 32}
        variants = [generate_variant(get_kernel("matmul"), kind, sizes)
                    for kind in (VariantKind.GPU, VariantKind.GPU_MEM,
                                 VariantKind.GPU_COLLAPSE)]
        for variant in variants:
            session.predict(variant, "v100", sizes=sizes)
        assert session.cache_info().size == 2
        # the least-recently-used entry (variants[0]) was evicted
        session.predict(variants[0], "v100", sizes=sizes)
        assert session.cache_info().misses == 4

    def test_predict_empty_batch(self, session):
        assert session.predict_batch([], "v100").shape == (0,)

    def test_cold_batch_constructs_each_distinct_source_once(self, session, monkeypatch):
        import repro.api.stages as stages
        calls = []
        original = stages.parse_source

        def counting_parse(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(stages, "parse_source", counting_parse)
        session.clear_cache()
        predictions = session.predict_batch([SOURCE] * 5, "v100")
        assert predictions.shape == (5,)
        np.testing.assert_allclose(predictions, predictions[0])
        assert len(calls) == 1            # 5 identical requests, 1 construction
        assert session.cache_info().size == 1

    def test_dataset_builder_honors_default_trip_count(self):
        # with no bound sizes, loop trip counts fall back to the default —
        # the training path must honor the configured value (train/serve parity)
        from repro.pipeline import Configuration
        from repro.pipeline.dataset_builder import DatasetBuilder

        variant = generate_variant(get_kernel("matmul"), VariantKind.GPU)
        configuration = Configuration(variant, {}, 4, 4)

        def max_weight(trip_count):
            builder = DatasetBuilder(platforms=(V100,), noisy=False,
                                     default_trip_count=trip_count)
            build = builder.build(configurations=[configuration])
            return build.datasets["NVIDIA V100"][0].edge_weight.max()

        assert max_weight(64) > max_weight(2)

    def test_dataset_stage_passes_trip_count_to_builder(self, monkeypatch):
        import repro.api.stages as stages
        captured = {}
        original = stages.DatasetBuilder

        def spying_builder(*args, **kwargs):
            captured.update(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(stages, "DatasetBuilder", spying_builder)
        config = tiny_config(graph=GraphConfig(default_trip_count=5))
        Pipeline([DatasetStage(config)]).run(configurations=[])
        assert captured["default_trip_count"] == 5

    def test_predict_stage_runs_standalone(self, session):
        encoded = [session.encode_source(SOURCE, num_teams=4, num_threads=2)]
        context = Pipeline([PredictStage()]).run(
            encoded=encoded, trainer=session.trainer_for("v100"))
        assert context["predictions"].shape == (1,)


class TestStagedEncode:
    """Graph construction runs once per distinct text in a call; only the
    Child-edge weights and aux features are recomputed per context."""

    SPECS = [SourceSpec(text, sizes={"n": n}, num_teams=teams, num_threads=8)
             for text in (SOURCE.replace("50", "n"), SOURCE)
             for n, teams in ((10, 4), (1000, 4), (1000, 64))]

    def test_each_text_is_constructed_once_per_call(self, monkeypatch):
        import repro.api.stages as stages
        calls = {"parse": 0, "build": 0}
        parse, build = stages.parse_source, stages.build_paragraph

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return parse(*args, **kwargs)

        def counting_build(*args, **kwargs):
            calls["build"] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(stages, "parse_source", counting_parse)
        monkeypatch.setattr(stages, "build_paragraph", counting_build)
        session = Session(ReproConfig())
        graphs = session._encode_specs(self.SPECS)
        assert calls == {"parse": 2, "build": 2}      # 2 texts x 3 contexts
        assert session.cache_info().size == 6
        # the size-dependent loop gets context-dependent weights
        assert not np.array_equal(graphs[0].edge_weight, graphs[1].edge_weight)
        assert graphs[1].aux_features.tolist() == [4.0, 8.0]
        assert graphs[2].aux_features.tolist() == [64.0, 8.0]
        for spec, graph in zip(self.SPECS, graphs):
            fresh = Pipeline([ParseStage(), GraphStage(), EncodeStage()]).run(
                specs=[spec])["encoded"][0]
            np.testing.assert_array_equal(graph.edge_weight, fresh.edge_weight)
            np.testing.assert_array_equal(graph.aux_features,
                                          fresh.aux_features)

    def test_contexts_share_read_only_structure(self):
        first, second, third = Session(ReproConfig())._encode_specs(
            self.SPECS[:3])
        before = {name: getattr(second, name).copy()
                  for name in ("node_features", "edge_index", "edge_type")}
        for name in before:
            array = getattr(first, name)
            assert array is getattr(second, name) is getattr(third, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
            np.testing.assert_array_equal(getattr(second, name), before[name])
        assert first.edge_weight is not second.edge_weight
        assert first.aux_features is not second.aux_features


class TestLazyTopLevelImports:
    def test_repro_exposes_api_lazily(self):
        import repro
        assert "api" in dir(repro)
        assert repro.api.Session is Session

    def test_unknown_attribute_raises(self):
        import repro
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope
