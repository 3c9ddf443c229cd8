"""Serving property suite: the full pipeline under synthetic traffic.

Drives a (tiny) trained :class:`repro.api.Session` with the generated
kernel corpus and asserts the serving-path equivalences: cold vs warm
``predict_batch``, batch vs single ``predict``, and cache accounting.  Also sweeps the ``config-roundtrip``
scenario and pins down the ``run_workflow`` deprecation shim and
``ReproConfig`` rejection of invalid stage dicts (satellite #4).
"""

import warnings

import numpy as np
import pytest

from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.ml.trainer import TrainingConfig
from repro.pipeline import SweepConfig, WorkflowConfig, run_workflow
from repro.synth import build_corpus, run_cases

TINY_CONFIG = dict(
    data=lambda: DataConfig(
        sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                          thread_counts=(8, 64),
                          kernels=[get_kernel("matmul")]),
        platforms=("v100",)),
    model=lambda: ModelConfig(hidden_dim=10),
    training=lambda: TrainingConfig(epochs=2, batch_size=16,
                                    learning_rate=2e-3, seed=0),
)


def tiny_config() -> ReproConfig:
    return ReproConfig(data=TINY_CONFIG["data"](), model=TINY_CONFIG["model"](),
                       training=TINY_CONFIG["training"](), seed=0)


@pytest.fixture(scope="module")
def session():
    session = Session(tiny_config())
    session.train()
    return session


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(24, seed=17)


class TestServingEquivalences:
    def test_cold_and_warm_predict_batch_agree(self, session, corpus):
        session.clear_cache()
        before = session.cache_info()
        cold = session.predict_batch(corpus.sources(), "v100")
        mid = session.cache_info()
        warm = session.predict_batch(corpus.sources(), "v100")
        after = session.cache_info()

        assert cold.shape == (len(corpus),)
        assert np.isfinite(cold).all()
        np.testing.assert_array_equal(warm, cold)
        assert mid.misses - before.misses == len(corpus)
        assert after.hits - mid.hits == len(corpus)

    def test_batch_equals_singles(self, session, corpus):
        subset = corpus.sources()[:6]
        batched = session.predict_batch(subset, "v100")
        singles = [session.predict(spec, "v100") for spec in subset]
        np.testing.assert_allclose(batched, singles, rtol=1e-6)

    def test_repeated_traffic_is_stable(self, session, corpus):
        # soak-shaped: the same corpus tiled over must stay bit-stable
        tiled = corpus.repeated(3)
        predictions = session.predict_batch(tiled, "v100")
        per_pass = predictions.reshape(3, len(corpus))
        np.testing.assert_array_equal(per_pass[0], per_pass[1])
        np.testing.assert_array_equal(per_pass[1], per_pass[2])

    def test_execution_context_distinguishes_cache_entries(self, session, corpus):
        spec = corpus.specs[0]
        session.clear_cache()
        session.predict(spec.source, "v100", sizes=spec.sizes, num_teams=8)
        misses = session.cache_info().misses
        session.predict(spec.source, "v100", sizes=spec.sizes, num_teams=16)
        assert session.cache_info().misses == misses + 1


class TestConfigRoundtrip:
    def test_config_roundtrip_corpus(self):
        report = run_cases("config-roundtrip")
        assert report.ok and report.cases >= 2


class TestContextIsolation:
    """Seeded concurrent workloads: no engine state leaks across threads."""

    def test_serving_context_isolation_corpus(self):
        report = run_cases("serving-context-isolation")
        assert report.ok and report.cases >= 2


class TestServeUnderFaults:
    """Seeded chaos sweep: under fault injection every request either
    returns a float64 result bit-identical to the fault-free reference or
    a typed reliability error — never a hang, never silent corruption."""

    def test_serve_under_faults_corpus(self):
        report = run_cases("serve-under-faults")
        assert report.ok and report.cases >= 2


class TestTraceCompleteness:
    """Seeded tracing sweep: under any topology and seeded faults, every
    submitted request yields exactly one completed, well-formed
    ``serve.request`` span tree (validated + JSON fixpoint) or a typed
    error — trace accounting balances, nothing leaks or double-delivers."""

    def test_trace_completeness_corpus(self):
        report = run_cases("trace-completeness")
        assert report.ok and report.cases >= 2


class TestInvalidStageDicts:
    """ReproConfig.from_dict must reject bad stage payloads (satellite #4)."""

    def test_invalid_model_dict(self):
        with pytest.raises(ValueError, match="hidden_dim"):
            ReproConfig.from_dict({"model": {"hidden_dim": 0}})
        with pytest.raises(ValueError, match="unknown convolution"):
            ReproConfig.from_dict({"model": {"conv": "transformer"}})
        with pytest.raises(ValueError, match="readout"):
            ReproConfig.from_dict({"model": {"readout": "attention"}})

    def test_invalid_graph_dict(self):
        with pytest.raises(ValueError, match="unknown graph variant"):
            ReproConfig.from_dict({"graph": {"variant": "hypergraph"}})
        with pytest.raises(ValueError, match="default_trip_count"):
            ReproConfig.from_dict({"graph": {"default_trip_count": 0}})

    def test_invalid_data_dict(self):
        with pytest.raises(ValueError, match="unknown platform"):
            ReproConfig.from_dict({"data": {"platforms": ["tpu-v9"]}})
        with pytest.raises(ValueError, match="min_platform_samples"):
            ReproConfig.from_dict({"data": {"min_platform_samples": 1}})

    def test_invalid_top_level_values(self):
        with pytest.raises(ValueError, match="train_fraction"):
            ReproConfig.from_dict({"train_fraction": 1.5})
        with pytest.raises(TypeError, match="mapping"):
            ReproConfig.from_dict([("model", {})])

    def test_unknown_stage_keys_raise(self):
        with pytest.raises(TypeError):
            ReproConfig.from_dict({"model": {"not_a_field": 1}})


class TestWorkflowShim:
    """run_workflow stays a faithful DeprecationWarning shim (satellite #4)."""

    def test_emits_deprecation_warning_and_delegates(self, monkeypatch):
        from repro.api import session as session_module

        captured = {}

        def fake_workflow(self):
            captured["config"] = self.config
            return "sentinel"

        monkeypatch.setattr(session_module.Session, "workflow", fake_workflow)
        config = WorkflowConfig(sweep=SweepConfig(size_scales=(1.0,)),
                                hidden_dim=9, conv="rgcn", seed=3,
                                train_fraction=0.8, noisy_runtimes=False)
        with pytest.warns(DeprecationWarning, match="run_workflow is deprecated"):
            result = run_workflow(config)
        assert result == "sentinel"
        adapted = captured["config"]
        assert adapted.model.hidden_dim == 9
        assert adapted.model.conv == "rgcn"
        assert adapted.seed == 3
        assert adapted.train_fraction == 0.8
        assert adapted.data.noisy_runtimes is False
        assert adapted.data.sweep.size_scales == (1.0,)

    def test_shim_result_equals_pipeline_path(self):
        # the real end-to-end equality: legacy shim vs Session on the same
        # adapted config must produce identical metrics (deterministic seeds)
        legacy_config = WorkflowConfig(
            sweep=TINY_CONFIG["data"]().sweep, training=TINY_CONFIG["training"](),
            hidden_dim=10, seed=0)
        from repro.hardware import V100
        with pytest.warns(DeprecationWarning):
            legacy = run_workflow(legacy_config, platforms=(V100,))
        modern = Session(ReproConfig.from_workflow_config(
            legacy_config, (V100,))).workflow()
        assert legacy.metrics_table() == modern.metrics_table()

    def test_no_warning_from_session_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session(tiny_config())     # construction must not warn
