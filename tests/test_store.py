"""Tests for ``repro.store``: artifacts, checkpointing, warm-start serving.

The acceptance property of the artifact store: a session loaded from an
artifact serves float64 predictions **bit-identical** to
the session that wrote it — including through a multi-worker
:class:`repro.serve.Server` — with zero retraining.  Plus the layer
plumbing the store rides on (``Module`` buffers + dtype-preserving
``load_state_dict``, ``Vocabulary`` / scaler dict round trips), the
corrupt/truncated/version-mismatch error paths (every error names the
offending field), the ``ModelRegistry`` pinning semantics, and the
``python -m repro.store`` CLI.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.compoff import COMPOFFConfig, COMPOFFModel
from repro.compoff.features import NUM_FEATURES, FeatureSample
from repro.ml.scaler import (
    LogMinMaxScaler,
    MinMaxScaler,
    StandardScaler,
    scaler_from_dict,
)
from repro.ml.trainer import TrainingConfig
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.paragraph.vocab import Vocabulary, default_vocabulary
from repro.pipeline import SweepConfig
from repro.serve import Server, ServerConfig
from repro.store import (
    CorruptArtifactError,
    ModelRegistry,
    SCHEMA_VERSION,
    StoreError,
    VersionMismatchError,
    inspect_artifact,
    load_compoff,
    load_session,
    verify_artifact,
)
from repro.store.cli import main as cli_main

PLATFORM = "v100"

SOURCES = [
    "void kernel(int n) { for (int i = 0; i < 50; i++) { n += i; } }",
    "void other(int n) { for (int i = 0; i < 9; i++) { for (int j = 0; j < 4; j++) { n += i * j; } } }",
]


def tiny_config() -> ReproConfig:
    return ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul")]),
            platforms=(PLATFORM,)),
        model=ModelConfig(hidden_dim=10),
        training=TrainingConfig(epochs=2, batch_size=16,
                                learning_rate=2e-3, seed=0),
        seed=0,
    )


@pytest.fixture(scope="module")
def trained_session():
    session = Session(tiny_config())
    session.train()
    yield session
    session.close()


@pytest.fixture(scope="module")
def artifact(trained_session, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "artifact"
    trained_session.save(str(path), name="tiny")
    return str(path)


@pytest.fixture()
def broken_copy(artifact, tmp_path):
    """A private mutable copy of the artifact for corruption tests."""
    destination = tmp_path / "broken"
    shutil.copytree(artifact, destination)
    return str(destination)


def _manifest(path: str) -> dict:
    with open(os.path.join(path, "manifest.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def _write_manifest(path: str, payload: dict) -> None:
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(payload, f)


# --------------------------------------------------------------------- #
# nn.Module: buffers + dtype-preserving load_state_dict
# --------------------------------------------------------------------- #
class TestModuleStateDict:
    def test_buffers_travel_with_state_dict(self):
        a = Linear(3, 2, rng=np.random.default_rng(0))
        a.register_buffer("steps", np.array([7], dtype=np.int64))
        state = a.state_dict()
        assert state["steps"].dtype == np.int64
        b = Linear(3, 2, rng=np.random.default_rng(1))
        b.register_buffer("steps", np.array([0], dtype=np.int64))
        b.load_state_dict(state)
        assert b.steps.tolist() == [7]
        np.testing.assert_array_equal(b.weight.data, a.weight.data)

    def test_nested_buffers_round_trip(self):
        class Wrapper(Module):
            def __init__(self, seed):
                super().__init__()
                self.inner = Linear(2, 2, rng=np.random.default_rng(seed))
                self.inner.register_buffer("scale", np.array([1.5, 2.5]))

        a, b = Wrapper(0), Wrapper(1)
        a.inner.scale = np.array([3.0, 4.0])
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(b.inner.scale, [3.0, 4.0])
        np.testing.assert_array_equal(b.inner._buffers["scale"], [3.0, 4.0])

    def test_buffer_attribute_assignment_stays_registered(self):
        layer = Linear(2, 2)
        layer.register_buffer("steps", np.array([0], dtype=np.int64))
        layer.steps = np.array([5], dtype=np.int64)
        assert layer._buffers["steps"].tolist() == [5]
        assert "steps" in dict(layer.named_buffers())

    def test_dtype_mismatch_names_entry_and_refuses(self):
        layer = Linear(3, 2)
        state = layer.state_dict()
        state["weight"] = state["weight"].astype(np.float32)
        with pytest.raises(ValueError, match="dtype mismatch for weight.*float32"):
            layer.load_state_dict(state)

    def test_explicit_cast_opt_in(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        state = layer.state_dict()
        state["weight"] = state["weight"].astype(np.float32)
        layer.load_state_dict(state, cast=True)
        assert layer.weight.data.dtype == np.float64

    def test_cast_that_overflows_to_inf_is_refused(self):
        layer = Linear(2, 2)
        layer.register_buffer("scale", np.ones(2, dtype=np.float32))
        state = layer.state_dict()
        state["scale"] = np.array([1e300, 0.0])   # finite in float64...
        with pytest.raises(ValueError, match="overflowed to non-finite"):
            layer.load_state_dict(state, cast=True)

    def test_integer_cast_that_wraps_is_refused(self):
        layer = Linear(2, 2)
        layer.register_buffer("steps", np.zeros(2, dtype=np.int8))
        state = layer.state_dict()
        state["steps"] = np.array([300, 0], dtype=np.int64)  # wraps in int8
        with pytest.raises(ValueError, match="does not round-trip"):
            layer.load_state_dict(state, cast=True)
        state["steps"] = np.array([3, 0], dtype=np.int64)    # fits exactly
        layer.load_state_dict(state, cast=True)
        assert layer.steps.tolist() == [3, 0]

    def test_cross_kind_lossy_casts_are_refused(self):
        layer = Linear(2, 2)
        layer.register_buffer("ratio", np.zeros(1, dtype=np.float64))
        state = layer.state_dict()
        # int64 value not representable in float64: would silently round
        state["ratio"] = np.array([2**53 + 1], dtype=np.int64)
        with pytest.raises(ValueError, match="does not round-trip"):
            layer.load_state_dict(state, cast=True)
        flag = Linear(2, 2)
        flag.register_buffer("flag", np.zeros(1, dtype=np.bool_))
        state = flag.state_dict()
        state["flag"] = np.array([0.7])          # 0.7 -> True is lossy
        with pytest.raises(ValueError, match="does not round-trip"):
            flag.load_state_dict(state, cast=True)

    def test_parameter_names_cannot_be_shadowed_by_plain_arrays(self):
        layer = Linear(2, 2)
        with pytest.raises(ValueError, match="cannot shadow parameter"):
            layer.weight = np.zeros((2, 2))
        layer.weight.data = np.zeros((2, 2))     # the supported spelling
        assert not layer.weight.data.any()

    def test_signed_to_unsigned_wrap_is_refused(self):
        layer = Linear(2, 2)
        layer.register_buffer("count", np.zeros(1, dtype=np.uint64))
        state = layer.state_dict()
        state["count"] = np.array([-1], dtype=np.int64)   # wraps invertibly
        with pytest.raises(ValueError, match="does not round-trip"):
            layer.load_state_dict(state, cast=True)

    def test_parameter_and_module_names_cannot_collide(self):
        from repro.nn.module import Module, Parameter

        outer = Module()
        outer.slot = Parameter(np.zeros(2))
        with pytest.raises(ValueError, match="already a parameter"):
            outer.slot = Linear(2, 2)
        other = Module()
        other.slot = Linear(2, 2)
        with pytest.raises(ValueError, match="already a child module"):
            other.slot = Parameter(np.zeros(2))
        with pytest.raises(ValueError, match="cannot shadow child module"):
            other.slot = np.zeros(2)
        with pytest.raises(ValueError, match="already a parameter"):
            outer.register_module("slot", Linear(2, 2))

    def test_non_finite_values_fail_loudly(self):
        layer = Linear(3, 2)
        state = layer.state_dict()
        state["bias"][0] = np.inf
        with pytest.raises(ValueError, match="'bias' contains non-finite"):
            layer.load_state_dict(state)

    def test_failed_load_leaves_module_untouched(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        before = layer.state_dict()
        bad = layer.state_dict()
        bad["weight"][:] = 1.0          # would change the module...
        bad["bias"][0] = np.nan         # ...but this entry is corrupt
        with pytest.raises(ValueError):
            layer.load_state_dict(bad)
        np.testing.assert_array_equal(layer.weight.data, before["weight"])

    def test_name_cannot_be_both_buffer_and_parameter(self):
        from repro.nn.module import Parameter

        layer = Linear(2, 2)
        layer.register_buffer("scale", np.ones(2))
        with pytest.raises(ValueError, match="already a buffer"):
            layer.scale = Parameter(np.zeros(2))
        with pytest.raises(ValueError, match="already a parameter"):
            layer.register_buffer("weight", np.zeros((2, 2)))

    def test_object_dtype_buffers_are_rejected(self):
        layer = Linear(2, 2)
        with pytest.raises(ValueError, match="object dtype"):
            layer.register_buffer("bad", None)
        layer.register_buffer("steps", np.array([0], dtype=np.int64))
        with pytest.raises(ValueError, match="object dtype"):
            layer.steps = None

    def test_buffer_names_cannot_shadow_module_machinery(self):
        layer = Linear(2, 2)
        for reserved in ("parameters", "training", "_buffers", "state_dict"):
            with pytest.raises(ValueError, match="already has an attribute"):
                layer.register_buffer(reserved, np.zeros(2))
        layer.register_buffer("steps", np.zeros(1, dtype=np.int64))
        layer.register_buffer("steps", np.ones(1, dtype=np.int64))  # update ok
        assert layer.steps.tolist() == [1]

    def test_dotted_buffer_names_are_rejected(self):
        # '.' delimits the module hierarchy: "child.w" as a buffer name
        # would collide with a child module's parameter key in state_dict
        layer = Linear(2, 2)
        with pytest.raises(ValueError, match="invalid buffer name"):
            layer.register_buffer("child.w", np.zeros(2))
        with pytest.raises(ValueError, match="invalid buffer name"):
            layer.register_buffer("", np.zeros(2))

    def test_name_cannot_be_both_buffer_and_module(self):
        outer = Module()
        outer.register_buffer("x", np.zeros(2))
        with pytest.raises(ValueError, match="already a buffer"):
            outer.x = Linear(2, 2)
        other = Module()
        other.child = Linear(2, 2)
        with pytest.raises(ValueError, match="already a child module"):
            other.register_buffer("child", np.zeros(2))


# --------------------------------------------------------------------- #
# Vocabulary / scaler dict round trips
# --------------------------------------------------------------------- #
class TestSerializationPlumbing:
    def test_vocabulary_round_trip_is_exact(self):
        vocabulary = default_vocabulary()
        rebuilt = Vocabulary.from_dict(
            json.loads(json.dumps(vocabulary.to_dict())))
        assert rebuilt == vocabulary
        assert rebuilt.labels() == vocabulary.labels()
        assert rebuilt.index("ForStmt") == vocabulary.index("ForStmt")

    @pytest.mark.parametrize("payload", [
        "not a dict", {}, {"labels": "ForStmt"}, {"labels": [1, 2]},
        {"labels": ["A", "A"]},
    ])
    def test_vocabulary_rejects_bad_payloads(self, payload):
        with pytest.raises(ValueError):
            Vocabulary.from_dict(payload)

    @pytest.mark.parametrize("scaler_cls", [MinMaxScaler, StandardScaler,
                                            LogMinMaxScaler])
    def test_scaler_round_trip_bit_exact_through_json(self, scaler_cls):
        rng = np.random.default_rng(3)
        data = rng.uniform(0.001, 1000.0, size=(17, 2))
        scaler = scaler_cls().fit(data)
        rebuilt = scaler_from_dict(json.loads(json.dumps(scaler.to_dict())))
        probe = rng.uniform(0.001, 1000.0, size=(5, 2))
        np.testing.assert_array_equal(rebuilt.transform(probe),
                                      scaler.transform(probe))
        np.testing.assert_array_equal(
            rebuilt.inverse_transform(scaler.transform(probe)),
            scaler.inverse_transform(scaler.transform(probe)))

    def test_scaler_from_dict_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown scaler type"):
            scaler_from_dict({"type": "zscore"})

    def test_scaler_from_dict_rejects_corrupted_state(self):
        good = MinMaxScaler().fit(np.arange(6.0).reshape(3, 2)).to_dict()
        with pytest.raises(ValueError, match="non-finite"):
            scaler_from_dict({**good, "data_min": [0.0, float("nan")]})
        with pytest.raises(ValueError, match="disagree in length"):
            scaler_from_dict({**good, "data_min": [0.0]})
        with pytest.raises(ValueError, match="not a numeric array"):
            scaler_from_dict({**good, "data_max": ["high", "low"]})
        with pytest.raises(ValueError, match="inverted"):
            scaler_from_dict({**good, "data_min": good["data_max"],
                              "data_max": good["data_min"]})
        standard = StandardScaler().fit(np.arange(6.0).reshape(3, 2)).to_dict()
        with pytest.raises(ValueError, match="strictly positive"):
            scaler_from_dict({**standard, "std": [1.0, 0.0]})

    def test_corrupt_feature_range_is_a_value_error(self):
        good = MinMaxScaler().fit(np.arange(6.0).reshape(3, 2)).to_dict()
        for bad in (None, 1.5, [0.0], ["low", "high"]):
            with pytest.raises(ValueError, match="feature_range"):
                scaler_from_dict({**good, "feature_range": bad})

    def test_vocabulary_stays_hashable(self):
        assert hash(default_vocabulary()) == hash(default_vocabulary())
        assert len({default_vocabulary(), default_vocabulary()}) == 1

    def test_unfitted_scaler_refuses_to_dict(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().to_dict()


# --------------------------------------------------------------------- #
# the acceptance property: save → load → serve, bit-identical
# --------------------------------------------------------------------- #
class TestWarmStartServing:
    def test_load_is_bit_identical_through_multiworker_server(
            self, trained_session, artifact):
        reference = trained_session.predict_batch(SOURCES, PLATFORM)
        loaded = Session.load(artifact)
        try:
            assert loaded.warm_started
            # straight through the facade...
            np.testing.assert_array_equal(
                loaded.predict_batch(SOURCES, PLATFORM),
                reference)
            # ...and through a standalone server
            with Server(loaded, ServerConfig()) as server:
                np.testing.assert_array_equal(
                    server.predict_batch(SOURCES, PLATFORM),
                    reference)
                assert server.stats().warm_started
        finally:
            loaded.close()

    def test_loaded_session_skips_training(self, artifact):
        loaded = Session.load(artifact)
        try:
            results = loaded.train()          # must be a restored no-op
            assert sorted(results) == ["NVIDIA V100"]
            assert len(results["NVIDIA V100"].dataset) == 0
            assert loaded._build is None
            with pytest.raises(RuntimeError, match="warm-started"):
                loaded.workflow()
        finally:
            loaded.close()

    def test_config_and_vocabulary_round_trip_through_store(
            self, trained_session, artifact):
        loaded = Session.load(artifact)
        try:
            assert loaded.config.to_dict() == trained_session.config.to_dict()
            assert loaded.encoder.vocabulary == \
                trained_session.encoder.vocabulary
            assert loaded.encoder.feature_dim == \
                trained_session.encoder.feature_dim
        finally:
            loaded.close()

    def test_provenance_and_stats(self, trained_session, artifact):
        loaded = Session.load(artifact)
        try:
            provenance = loaded.provenance
            assert provenance["name"] == "tiny"
            assert provenance["schema_version"] == SCHEMA_VERSION
            assert provenance["dataset_fingerprint"]
            assert not trained_session.warm_started
        finally:
            loaded.close()

    def test_resaving_a_warm_session_keeps_the_fingerprint(self, artifact,
                                                           tmp_path):
        loaded = Session.load(artifact)
        try:
            resaved = tmp_path / "resaved"
            loaded.save(str(resaved))
            assert _manifest(str(resaved))["dataset_fingerprint"] == \
                _manifest(artifact)["dataset_fingerprint"]
        finally:
            loaded.close()

    def test_session_subclasses_load_as_themselves(self, artifact):
        class TracedSession(Session):
            pass

        loaded = TracedSession.load(artifact)
        try:
            assert isinstance(loaded, TracedSession)
            assert loaded.warm_started
        finally:
            loaded.close()

    def test_server_from_artifact(self, trained_session, artifact):
        reference = trained_session.predict_batch(SOURCES, PLATFORM)
        with Server.from_artifact(artifact, ServerConfig()) as server:
            np.testing.assert_array_equal(
                server.predict_batch(SOURCES, PLATFORM),
                reference)
            assert server.stats().warm_started
            server.session.close()

    def test_save_refuses_silent_overwrite(self, trained_session, artifact):
        with pytest.raises(StoreError, match="already exists"):
            trained_session.save(artifact)

    def test_overwrite_clears_stale_payloads(self, trained_session, tmp_path):
        path = str(tmp_path / "rewritten")
        trained_session.save(path)
        stale = os.path.join(path, "weights", "ghost-platform.npz")
        with open(stale, "wb") as handle:
            handle.write(b"stale payload")
        trained_session.save(path, overwrite=True)
        assert not os.path.exists(stale)
        assert verify_artifact(path).ok

    def test_failed_save_preserves_existing_artifact(self, trained_session,
                                                     tmp_path):
        from repro.store import save_trainers

        path = str(tmp_path / "art")
        trained_session.save(path)
        before = _manifest(path)
        trainer = trained_session.train()["NVIDIA V100"].trainer
        weight = trainer.model.parameters()[0]
        original = weight.data
        weight.data = np.full_like(original, np.nan)
        try:
            with pytest.raises(StoreError, match="non-finite"):
                save_trainers(path, {"NVIDIA V100": trainer},
                              config=trained_session.config,
                              encoder=trained_session.encoder,
                              overwrite=True)
        finally:
            weight.data = original
        # the previously valid artifact survived the failed overwrite intact
        assert _manifest(path) == before
        assert verify_artifact(path).ok
        assert not any(entry.startswith("art.staging")
                       for entry in os.listdir(str(tmp_path)))

    def test_colliding_platform_slugs_get_distinct_files(self, trained_session,
                                                        tmp_path):
        from repro.store import save_trainers

        trainer = trained_session.train()["NVIDIA V100"].trainer
        path = str(tmp_path / "collisions")
        save_trainers(path, {"p": trainer, "p 2": trainer, "p.": trainer},
                      config=trained_session.config,
                      encoder=trained_session.encoder)
        manifest = _manifest(path)
        files = [entry["weights"] for entry in manifest["models"]]
        assert len(set(files)) == 3
        assert verify_artifact(path).ok


# --------------------------------------------------------------------- #
# error paths: every failure names the offending field
# --------------------------------------------------------------------- #
class TestArtifactErrorPaths:
    def test_missing_artifact_directory(self, tmp_path):
        with pytest.raises(CorruptArtifactError, match="does not exist"):
            load_session(str(tmp_path / "nope"))

    def test_truncated_manifest_is_corrupt(self, broken_copy):
        manifest_path = os.path.join(broken_copy, "manifest.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(text[:len(text) // 2])
        with pytest.raises(CorruptArtifactError, match="unreadable"):
            load_session(broken_copy)

    def test_schema_violation_names_the_field(self, broken_copy):
        payload = _manifest(broken_copy)
        del payload["vocabulary"]
        _write_manifest(broken_copy, payload)
        with pytest.raises(CorruptArtifactError, match="'vocabulary'"):
            load_session(broken_copy)

    def test_bad_checksum_field_names_itself(self, broken_copy):
        payload = _manifest(broken_copy)
        payload["models"][0]["sha256"] = "zz" * 32
        _write_manifest(broken_copy, payload)
        with pytest.raises(CorruptArtifactError, match=r"models\[0\].sha256"):
            load_session(broken_copy)

    def test_flipped_payload_bytes_fail_the_checksum(self, broken_copy):
        weights = os.path.join(broken_copy, "weights", "nvidia-v100.npz")
        with open(weights, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            load_session(broken_copy)
        report = verify_artifact(broken_copy)
        assert not report.ok
        assert any("checksum mismatch" in problem
                   for problem in report.problems)

    def test_missing_weights_file(self, broken_copy):
        os.remove(os.path.join(broken_copy, "weights", "nvidia-v100.npz"))
        with pytest.raises(CorruptArtifactError, match="missing from the "
                                                       "artifact"):
            load_session(broken_copy)

    def test_unreadable_weights_payload_is_reported_not_raised(
            self, broken_copy):
        weights = os.path.join(broken_copy, "weights", "nvidia-v100.npz")
        os.remove(weights)
        os.makedirs(weights)          # a directory where the file should be
        with pytest.raises(CorruptArtifactError, match="cannot read payload"):
            load_session(broken_copy)
        report = verify_artifact(broken_copy)
        assert not report.ok
        assert any("cannot read payload" in problem
                   for problem in report.problems)

    def test_schema_version_mismatch(self, broken_copy):
        payload = _manifest(broken_copy)
        payload["schema_version"] = SCHEMA_VERSION + 1
        _write_manifest(broken_copy, payload)
        with pytest.raises(VersionMismatchError, match="'schema_version'"):
            load_session(broken_copy)

    def test_repro_major_version_mismatch(self, broken_copy):
        payload = _manifest(broken_copy)
        payload["repro_version"] = "99.0.0"
        _write_manifest(broken_copy, payload)
        with pytest.raises(VersionMismatchError,
                           match="'repro_version'.*99.0.0"):
            load_session(broken_copy)

    def test_verify_collects_every_problem(self, broken_copy):
        payload = _manifest(broken_copy)
        payload["models"][0]["sha256"] = "0" * 64
        _write_manifest(broken_copy, payload)
        report = verify_artifact(broken_copy)
        assert not report.ok and report.problems
        assert "FAILED" in report.summary()

    def test_non_dict_model_entry_is_named_precisely(self, broken_copy):
        payload = _manifest(broken_copy)
        payload["models"].append("oops")
        _write_manifest(broken_copy, payload)
        with pytest.raises(CorruptArtifactError,
                           match=r"models\[1\]'. expected an object"):
            load_session(broken_copy)

    def test_aliased_platform_entries_are_rejected(self, broken_copy):
        payload = _manifest(broken_copy)
        clone = json.loads(json.dumps(payload["models"][0]))
        clone["name"] = "v100"     # distinct string, same canonical platform
        payload["models"].append(clone)
        _write_manifest(broken_copy, payload)
        with pytest.raises(CorruptArtifactError,
                           match="another model entry already claims"):
            load_session(broken_copy)

    def test_non_numeric_metrics_fail_schema_validation(self, broken_copy):
        payload = _manifest(broken_copy)
        payload["models"][0]["metrics"]["rmse"] = "bad"
        _write_manifest(broken_copy, payload)
        with pytest.raises(CorruptArtifactError, match=r"metrics\['rmse'\]"):
            load_session(broken_copy)
        assert not verify_artifact(broken_copy).ok
        assert cli_main(["inspect", broken_copy]) == 2

    def test_verify_catches_config_weight_mismatch(self, broken_copy):
        payload = _manifest(broken_copy)
        payload["config"]["model"]["hidden_dim"] += 2
        _write_manifest(broken_copy, payload)
        report = verify_artifact(broken_copy)   # checksums still pass...
        assert not report.ok                    # ...but reconstruction must too
        assert any("does not fit" in problem for problem in report.problems)
        with pytest.raises(CorruptArtifactError, match="does not fit"):
            load_session(broken_copy)

    def test_kind_mismatch_is_actionable(self, artifact):
        with pytest.raises(StoreError, match="expected a 'compoff' artifact"):
            load_compoff(artifact)

    def test_corrupt_scaler_state_is_caught_by_verify_and_load(
            self, broken_copy):
        payload = _manifest(broken_copy)
        scalers = payload["models"][0]["scalers"]
        scalers["target"]["feature_range"] = None
        scalers["aux"]["data_min"] = [0.0, float("nan")]
        _write_manifest(broken_copy, payload)
        report = verify_artifact(broken_copy)
        assert not report.ok
        assert any("feature_range" in problem for problem in report.problems)
        assert any("non-finite" in problem for problem in report.problems)
        with pytest.raises(CorruptArtifactError, match=r"scalers\.target"):
            load_session(broken_copy)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestModelRegistry:
    def test_publish_versions_and_latest_pointer(self, trained_session,
                                                 tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        assert registry.publish("paragraph", trained_session) == "paragraph@v1"
        assert registry.publish("paragraph", trained_session) == "paragraph@v2"
        assert registry.versions("paragraph") == ["v1", "v2"]
        assert registry.latest("paragraph") == "v2"
        assert registry.path_for("paragraph") == \
            registry.path_for("paragraph@v2")
        assert registry.path_for("paragraph@latest") == \
            registry.path_for("paragraph@v2")
        registry.set_latest("paragraph", "v1")
        assert registry.path_for("paragraph").endswith("v1")

    def test_pinned_load_serves_bit_identically(self, trained_session,
                                                tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        ref = registry.publish("paragraph", trained_session)
        reference = trained_session.predict_batch(SOURCES, PLATFORM)
        loaded = registry.load(ref)
        try:
            assert loaded.warm_started
            np.testing.assert_array_equal(
                loaded.predict_batch(SOURCES, PLATFORM),
                reference)
        finally:
            loaded.close()

    def test_publish_existing_artifact_directory(self, artifact, tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        ref = registry.publish("imported", artifact=artifact, version="v7")
        assert ref == "imported@v7"
        assert registry.latest("imported") == "v7"
        assert inspect_artifact(registry.path_for(ref))["name"] == "tiny"
        # republish over the live version: swap, no destroy-then-copy
        registry.publish("imported", artifact=artifact, version="v7",
                         overwrite=True)
        assert verify_artifact(registry.path_for("imported@v7")).ok
        assert registry.versions("imported") == ["v7"]

    def test_evaluation_pinned_session_helper(self, trained_session,
                                              tmp_path):
        from repro.evaluation import pinned_session

        registry = ModelRegistry(str(tmp_path / "registry"))
        ref = registry.publish("paragraph", trained_session)
        loaded = pinned_session(ref, registry_root=str(tmp_path / "registry"))
        try:
            assert loaded.warm_started
        finally:
            loaded.close()

    def test_publish_rejects_corrupt_artifacts(self, broken_copy, tmp_path):
        weights = os.path.join(broken_copy, "weights", "nvidia-v100.npz")
        with open(weights, "ab") as handle:
            handle.write(b"trailing garbage")
        registry = ModelRegistry(str(tmp_path / "registry"))
        with pytest.raises(StoreError, match="refusing to publish"):
            registry.publish("broken", artifact=broken_copy)
        assert registry.names() == []

    def test_publish_rejects_artifacts_load_cannot_serve(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = [FeatureSample(features=rng.uniform(0, 1, NUM_FEATURES),
                                 runtime_us=50.0, metadata={})
                   for _ in range(8)]
        model = COMPOFFModel(COMPOFFConfig(epochs=1))
        model.fit(samples)
        compoff_path = str(tmp_path / "compoff")
        model.save(compoff_path)
        registry = ModelRegistry(str(tmp_path / "registry"))
        with pytest.raises(StoreError, match="cannot publish 'compoff'"):
            registry.publish("baseline", artifact=compoff_path)

    def test_unpublished_refs_and_bad_names_raise(self, tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        with pytest.raises(StoreError, match="nothing published"):
            registry.path_for("ghost")
        with pytest.raises(StoreError, match="invalid model name"):
            registry.path_for("../escape@v1")
        with pytest.raises(StoreError, match="exactly one source"):
            registry.publish("paragraph")

    def test_corrupt_latest_pointer_never_resolves(self, trained_session,
                                                   tmp_path):
        root = str(tmp_path / "registry")
        registry = ModelRegistry(root)
        registry.publish("m", trained_session)
        with open(os.path.join(root, "m", "LATEST"), "w") as handle:
            handle.write("../escape/v3\n")
        with pytest.raises(StoreError, match="corrupt LATEST pointer"):
            registry.path_for("m")

    def test_reserved_version_names_are_rejected(self, trained_session,
                                                 tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        with pytest.raises(StoreError, match="reserved for the latest"):
            registry.publish("m", trained_session, version="LATEST")
        with pytest.raises(StoreError, match="reserved for the latest"):
            registry.publish("m", trained_session, version="latest")
        with pytest.raises(StoreError, match="reserved for in-flight"):
            registry.publish("m", trained_session, version="v1.staging.7")
        ref = registry.publish("m", trained_session)
        # staging leftovers and the pointer file never list as versions
        os.makedirs(os.path.join(str(tmp_path / "registry"), "m",
                                 "v9.staging.123"))
        assert registry.versions("m") == ["v1"]
        with pytest.raises(StoreError, match="reserved"):
            registry.path_for("m@v9.staging.123")
        assert registry.path_for(ref).endswith("v1")


class TestRegistryFallback:
    """Corrupt-artifact degradation: ``load`` quarantines the bad version
    and falls back to the previous good one instead of failing the serving
    deployment (STORE.md "Corrupt artifacts")."""

    @staticmethod
    def _corrupt_weights(registry, name, version):
        weights = os.path.join(registry.root, name, version, "weights",
                               "nvidia-v100.npz")
        with open(weights, "ab") as handle:
            handle.write(b"trailing garbage")

    @pytest.fixture()
    def two_versions(self, trained_session, tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish("paragraph", trained_session)    # v1 (good)
        registry.publish("paragraph", trained_session)    # v2 (latest)
        reference = trained_session.predict_batch(SOURCES, PLATFORM)
        return registry, reference

    def test_latest_falls_back_to_previous_good_version(self, two_versions):
        registry, reference = two_versions
        self._corrupt_weights(registry, "paragraph", "v2")
        with pytest.warns(UserWarning, match="fell back to paragraph@v1"):
            loaded = registry.load("paragraph")
        try:
            np.testing.assert_array_equal(
                loaded.predict_batch(SOURCES, PLATFORM),
                reference)
        finally:
            loaded.close()
        # the bad version is out of the way, not deleted
        assert registry.versions("paragraph") == ["v1"]
        quarantined = registry.quarantined("paragraph")
        assert len(quarantined) == 1
        assert quarantined[0].startswith("v2.quarantine.")
        # LATEST no longer points at the quarantined version
        assert registry.latest("paragraph") == "v1"
        assert registry.path_for("paragraph").endswith("v1")

    def test_pinned_load_falls_back_too(self, two_versions):
        registry, reference = two_versions
        self._corrupt_weights(registry, "paragraph", "v2")
        with pytest.warns(UserWarning, match="quarantined"):
            loaded = registry.load("paragraph@v2")
        try:
            np.testing.assert_array_equal(
                loaded.predict_batch(SOURCES, PLATFORM),
                reference)
        finally:
            loaded.close()

    def test_fallback_false_fails_fast(self, two_versions):
        registry, _ = two_versions
        self._corrupt_weights(registry, "paragraph", "v2")
        with pytest.raises(CorruptArtifactError, match="checksum"):
            registry.load("paragraph", fallback=False)
        # strict mode quarantines nothing
        assert registry.versions("paragraph") == ["v1", "v2"]
        assert registry.quarantined("paragraph") == []

    def test_no_good_version_left_raises(self, two_versions):
        registry, _ = two_versions
        self._corrupt_weights(registry, "paragraph", "v1")
        self._corrupt_weights(registry, "paragraph", "v2")
        with pytest.raises(StoreError, match="no remaining version"):
            registry.load("paragraph")

    def test_quarantine_names_are_reserved(self, trained_session, tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        with pytest.raises(StoreError, match="quarantine"):
            registry.publish("m", trained_session,
                             version="v1.quarantine.bad")
        registry.publish("m", trained_session)
        with pytest.raises(StoreError, match="reserved"):
            registry.path_for("m@v1.quarantine.x")

    def test_resolution_errors_do_not_trigger_fallback(self, tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        with pytest.raises(StoreError, match="nothing published"):
            registry.load("ghost")


# --------------------------------------------------------------------- #
# COMPOFF coefficients as artifacts
# --------------------------------------------------------------------- #
class TestCompoffArtifacts:
    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = [FeatureSample(features=rng.uniform(0, 1, NUM_FEATURES),
                                 runtime_us=float(rng.uniform(10, 1000)),
                                 metadata={})
                   for _ in range(16)]
        model = COMPOFFModel(COMPOFFConfig(epochs=2))
        model.fit(samples)
        path = str(tmp_path / "compoff")
        model.save(path)
        assert _manifest(path)["kind"] == "compoff"
        assert verify_artifact(path).ok
        restored = COMPOFFModel.load(path)
        np.testing.assert_array_equal(restored.predict(samples),
                                      model.predict(samples))

    def test_unfitted_model_refuses_to_save(self, tmp_path):
        with pytest.raises(StoreError, match="not fitted"):
            COMPOFFModel().save(str(tmp_path / "compoff"))

    def test_compoff_subclasses_load_as_themselves(self, tmp_path):
        class TracedCompoff(COMPOFFModel):
            pass

        rng = np.random.default_rng(0)
        samples = [FeatureSample(features=rng.uniform(0, 1, NUM_FEATURES),
                                 runtime_us=50.0, metadata={})
                   for _ in range(8)]
        model = TracedCompoff(COMPOFFConfig(epochs=1))
        model.fit(samples)
        path = str(tmp_path / "compoff")
        model.save(path)
        assert isinstance(TracedCompoff.load(path), TracedCompoff)

    def test_verify_reports_unreconstructable_config_without_crashing(
            self, tmp_path):
        rng = np.random.default_rng(0)
        samples = [FeatureSample(features=rng.uniform(0, 1, NUM_FEATURES),
                                 runtime_us=50.0, metadata={})
                   for _ in range(8)]
        model = COMPOFFModel(COMPOFFConfig(epochs=1))
        model.fit(samples)
        path = str(tmp_path / "compoff")
        model.save(path)
        payload = _manifest(path)
        payload["config"]["hidden_dims"] = "abc"   # schema-valid, nonsense
        _write_manifest(path, payload)
        report = verify_artifact(path)             # must report, not raise
        assert not report.ok and report.problems
        with pytest.raises(CorruptArtifactError):
            load_compoff(path)

    def test_session_loader_rejects_compoff_artifacts(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = [FeatureSample(features=rng.uniform(0, 1, NUM_FEATURES),
                                 runtime_us=50.0, metadata={})
                   for _ in range(8)]
        model = COMPOFFModel(COMPOFFConfig(epochs=1))
        model.fit(samples)
        path = str(tmp_path / "compoff")
        model.save(path)
        with pytest.raises(StoreError, match="expected a 'session' artifact"):
            load_session(path)


# --------------------------------------------------------------------- #
# the seeded differential sweep (replay: python -m repro.synth store-roundtrip <seed>)
# --------------------------------------------------------------------- #
class TestStoreRoundtripScenario:
    def test_synth_store_roundtrip_sweep(self):
        from repro.synth import run_cases

        report = run_cases("store-roundtrip")
        assert report.ok
        assert report.cases >= 2


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestStoreCLI:
    def test_save_verify_inspect_load_round_trip(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config().to_dict()))
        artifact = str(tmp_path / "cli-artifact")
        assert cli_main(["save", artifact, "--config",
                         str(config_path)]) == 0
        assert cli_main(["verify", artifact]) == 0
        assert cli_main(["inspect", artifact, "--json"]) == 0
        captured = capsys.readouterr().out
        summary = json.loads(captured[captured.rindex("\n{"):])
        assert summary["kind"] == "session"
        source_path = tmp_path / "kernel.c"
        source_path.write_text(SOURCES[0])
        assert cli_main(["load", artifact, "--source", str(source_path),
                         "--platform", PLATFORM]) == 0
        assert "warm-started" in capsys.readouterr().out

    def test_verify_exits_nonzero_on_corruption(self, broken_copy, capsys):
        payload = _manifest(broken_copy)
        payload["models"][0]["sha256"] = "0" * 64
        _write_manifest(broken_copy, payload)
        assert cli_main(["verify", broken_copy]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_missing_artifact_is_a_clean_error(self, tmp_path, capsys):
        assert cli_main(["inspect", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_json_is_a_clean_error(self, tmp_path, capsys):
        config_path = tmp_path / "broken.json"
        config_path.write_text("{not json")
        assert cli_main(["save", str(tmp_path / "out"), "--config",
                         str(config_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_keys_fail_fast(self, tmp_path, capsys):
        config_path = tmp_path / "typo.json"
        config_path.write_text(json.dumps({"trainig": {"epochs": 2}}))
        assert cli_main(["save", str(tmp_path / "out"), "--config",
                         str(config_path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_platform_is_a_clean_error(self, artifact, tmp_path,
                                               capsys):
        source_path = tmp_path / "kernel.c"
        source_path.write_text(SOURCES[0])
        assert cli_main(["load", artifact, "--source", str(source_path),
                         "--platform", "no-such-gpu"]) == 2
        assert "error:" in capsys.readouterr().err
