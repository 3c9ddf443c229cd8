"""Serving property suite: the full pipeline under synthetic traffic.

Drives a (tiny) trained :class:`repro.api.Session` with the generated
kernel corpus and asserts the serving-path equivalences: cold vs warm
``predict_batch``, batch vs single ``predict``, and cache accounting.  Also
sweeps the ``config-roundtrip``, ``serving-context-isolation`` and
``serving-contract`` scenarios (the last split by plan: chaos and
concurrent) and pins down ``ReproConfig`` rejection of invalid stage
dicts.
"""

import numpy as np
import pytest

from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.ml.trainer import TrainingConfig
from repro.pipeline import SweepConfig
from repro.synth import build_corpus, cases_for, run_cases, seeds_for
from repro.synth.harness import serving_plan


@pytest.fixture(scope="module")
def session():
    session = Session(ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul")]),
            platforms=("v100",)),
        model=ModelConfig(hidden_dim=10),
        training=TrainingConfig(epochs=2, batch_size=16,
                                learning_rate=2e-3, seed=0),
        seed=0))
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


def contract_seeds(plan: str) -> list:
    """The ``serving-contract`` seeds that take *plan*.  At least seven
    consecutive seeds are drawn, so every plan gets some at any scale."""
    count = max(7, cases_for("serving-contract"))
    return [seed for seed in seeds_for("serving-contract", count)
            if serving_plan(seed) == plan]


class TestServeUnderFaults:
    """Seeded chaos sweep (the ``serving-contract`` chaos plan: one caller,
    ``max_batch_size=1``, at least one fault): under fault injection every
    request either returns a float64 result bit-identical to the
    fault-free reference or a typed reliability error — never a hang,
    never silent corruption — and yields exactly one complete trace."""

    def test_serve_under_faults_corpus(self):
        report = run_cases("serving-contract", seeds=contract_seeds("chaos"))
        assert report.ok and report.cases >= 2


class TestTraceCompleteness:
    """Seeded tracing sweep (the ``serving-contract`` concurrent plan: 1-3
    callers, coalesced batches, breaker on or off): every submitted request
    yields exactly one completed, well-formed ``serve.request`` span tree
    (validated + JSON fixpoint) and a bit-identical result or a typed
    error — trace accounting balances, nothing leaks or double-delivers."""

    def test_trace_completeness_corpus(self):
        report = run_cases("serving-contract",
                           seeds=contract_seeds("concurrent"))
        assert report.ok and report.cases >= 2


class TestInvalidStageDicts:
    """ReproConfig.from_dict must reject bad stage payloads."""

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

