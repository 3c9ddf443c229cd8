"""Tests for ReproConfig validation and dict round-tripping."""

import pytest

from repro.advisor import VariantKind
from repro.api import (
    DataConfig,
    GraphConfig,
    ModelConfig,
    ReproConfig,
    config_from_dict,
    config_to_dict,
)
from repro.hardware import V100
from repro.kernels import get_kernel
from repro.ml.trainer import TrainingConfig
from repro.paragraph import GraphVariant
from repro.pipeline import SweepConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = ReproConfig()
        assert config.graph.variant is GraphVariant.PARAGRAPH
        assert len(config.platform_specs()) == 4

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_train_fraction_must_be_in_open_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="train_fraction"):
            ReproConfig(train_fraction=fraction)

    def test_unknown_conv_lists_registry_keys(self):
        with pytest.raises(ValueError, match=r"unknown convolution.*rgat"):
            ModelConfig(conv="transformer")

    def test_unknown_graph_variant_lists_valid_names(self):
        with pytest.raises(ValueError, match=r"unknown graph variant.*paragraph"):
            GraphConfig(variant="super_ast")

    def test_graph_variant_strings_are_coerced(self):
        assert GraphConfig(variant="raw_ast").variant is GraphVariant.RAW_AST

    def test_unknown_platform_rejected_with_known_names(self):
        with pytest.raises(ValueError, match=r"unknown platform.*V100"):
            DataConfig(platforms=("h100",))

    def test_model_bounds(self):
        with pytest.raises(ValueError, match="hidden_dim"):
            ModelConfig(hidden_dim=0)
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(dropout=1.0)
        with pytest.raises(ValueError, match="readout"):
            ModelConfig(readout="attention")

    def test_platform_spec_objects_pass_through(self):
        config = DataConfig(platforms=(V100, "power9"))
        specs = config.platform_specs()
        assert specs[0] is V100
        assert specs[1].name == "IBM POWER9"


class TestDictRoundTrip:
    def config(self) -> ReproConfig:
        return ReproConfig(
            data=DataConfig(
                sweep=SweepConfig(size_scales=(0.5, 2.0), team_counts=(32,),
                                  thread_counts=(8,), repetitions=2,
                                  variant_kinds=(VariantKind.GPU,
                                                 VariantKind.GPU_MEM),
                                  kernels=[get_kernel("matmul"),
                                           get_kernel("transpose")]),
                platforms=("v100", "mi50"),
                noisy_runtimes=False,
            ),
            graph=GraphConfig(variant="augmented_ast", default_trip_count=8),
            model=ModelConfig(hidden_dim=16, conv="rgcn", readout="mean"),
            training=TrainingConfig(epochs=7, batch_size=4, learning_rate=5e-3),
            train_fraction=0.8,
            seed=3,
        )

    def test_round_trip_is_lossless(self):
        config = self.config()
        payload = config_to_dict(config)
        rebuilt = config_from_dict(payload)
        assert config_to_dict(rebuilt) == payload
        assert rebuilt.graph.variant is GraphVariant.AUGMENTED_AST
        assert rebuilt.model.conv == "rgcn"
        assert [k.kernel_name for k in rebuilt.data.sweep.kernels] == \
            ["matmul", "transpose"]
        assert rebuilt.data.sweep.variant_kinds == \
            (VariantKind.GPU, VariantKind.GPU_MEM)
        assert rebuilt.train_fraction == 0.8

    def test_payload_is_json_safe(self):
        import json
        text = json.dumps(config_to_dict(self.config()))
        rebuilt = config_from_dict(json.loads(text))
        assert rebuilt.data.platforms == ("NVIDIA V100", "AMD MI50")

    def test_methods_on_config_object(self):
        config = self.config()
        assert ReproConfig.from_dict(config.to_dict()).to_dict() == config.to_dict()

    def test_partial_payload_uses_defaults(self):
        rebuilt = config_from_dict({"model": {"hidden_dim": 8}})
        assert rebuilt.model.hidden_dim == 8
        assert rebuilt.model.conv == "rgat"
        assert rebuilt.train_fraction == 0.9
        assert len(rebuilt.data.platforms) == 4

    def test_invalid_values_still_rejected_after_deserialization(self):
        payload = config_to_dict(self.config())
        payload["model"]["conv"] = "transformer"
        with pytest.raises(ValueError, match="unknown convolution"):
            config_from_dict(payload)

