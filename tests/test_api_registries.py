"""Tests for the repro.api registries (convs, kernels, platforms)."""

import pytest

from repro.api import (
    Registry,
    RegistryError,
    conv_registry,
    get_conv,
    get_kernel,
    get_platform,
    kernel_registry,
    platform_registry,
    register_conv,
)
from repro.hardware import ALL_PLATFORMS, HardwareSpec
from repro.kernels.base import KernelDefinition


class TestRegistryMechanics:
    def test_register_and_get(self):
        registry = Registry("thing")
        registry.register("alpha", 1)
        assert registry.get("alpha") == 1
        assert "alpha" in registry
        assert registry.keys() == ["alpha"]

    def test_decorator_registration(self):
        registry = Registry("thing")

        @registry.register("beta")
        def factory():
            return 42

        assert registry.get("beta") is factory

    def test_lookup_is_case_and_separator_insensitive(self):
        registry = Registry("thing")
        registry.register("My Thing", "x")
        assert registry.get("my-thing") == "x"
        assert registry.get("MY_THING") == "x"

    def test_duplicate_registration_raises(self):
        registry = Registry("thing")
        registry.register("alpha", 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("alpha", 2)
        # override replaces instead of raising
        registry.register("alpha", 2, override=True)
        assert registry.get("alpha") == 2

    def test_unknown_key_error_lists_valid_keys(self):
        registry = Registry("thing")
        registry.register("alpha", 1)
        with pytest.raises(KeyError, match=r"unknown thing 'nope'.*alpha"):
            registry.get("nope")

    def test_override_under_equivalent_spelling_leaves_no_dangling_aliases(self):
        registry = Registry("thing")
        registry.register("My Thing", 1, aliases=("mt",))
        registry.register("my-thing", 2, override=True)   # normalizes identically
        assert registry.get("my-thing") == 2
        # the replaced entry's alias must not report membership it can't resolve
        assert "mt" not in registry
        with pytest.raises(KeyError):
            registry.get("mt")

    def test_aliases_resolve_and_unregister_cleans_them(self):
        registry = Registry("thing")
        registry.register("alpha", 1, aliases=("a", "first"))
        assert registry.get("first") == 1
        registry.unregister("a")
        with pytest.raises(KeyError):
            registry.get("alpha")
        with pytest.raises(KeyError):
            registry.get("first")

    def test_lazy_population_runs_once(self):
        calls = []

        def populate(registry):
            calls.append(1)
            registry.register("seeded", "s")

        registry = Registry("thing", populate=populate)
        assert calls == []                     # nothing happens at construction
        assert registry.get("seeded") == "s"
        assert registry.keys() == ["seeded"]
        assert calls == [1]


class TestDefaultRegistries:
    def test_conv_registry_has_builtin_kinds(self):
        assert {"rgat", "rgcn"} <= set(conv_registry.keys())
        assert callable(get_conv("rgat"))

    def test_register_conv_extends_model_selection(self):
        from repro.gnn.models import ParaGraphModel
        from repro.gnn.rgcn import RGCNConv

        @register_conv("test_rgcn_twin")
        def make_twin(in_dim, hidden_dim, *, num_relations, heads,
                      use_edge_weight, rng):
            return RGCNConv(in_dim, hidden_dim, num_relations,
                            use_edge_weight=use_edge_weight, rng=rng)

        try:
            model = ParaGraphModel(10, hidden_dim=8, conv="test_rgcn_twin", seed=0)
            assert model.conv_kind == "test_rgcn_twin"
        finally:
            conv_registry.unregister("test_rgcn_twin")
        with pytest.raises(ValueError, match="unknown convolution"):
            ParaGraphModel(10, hidden_dim=8, conv="test_rgcn_twin", seed=0)

    def test_kernel_registry_matches_table1(self):
        assert len(kernel_registry) == 17
        kernel = get_kernel("matmul")
        assert isinstance(kernel, KernelDefinition)
        assert get_kernel(f"{kernel.application}/matmul") is kernel

    def test_platform_registry_full_names_and_aliases(self):
        assert len(platform_registry) == len(ALL_PLATFORMS)
        spec = get_platform("NVIDIA V100")
        assert isinstance(spec, HardwareSpec)
        assert get_platform("v100") is spec
        assert get_platform("mi50").name == "AMD MI50"

    def test_unknown_platform_lists_registered_names(self):
        with pytest.raises(KeyError, match="NVIDIA V100"):
            get_platform("h100")
