"""Artifact save/load: trained model sets as content-addressed directories.

Layout of one artifact::

    <artifact>/
      manifest.json                 # schema: repro.store.manifest
      weights/<model-slug>.npz      # one float64 state_dict per model

``save_session`` / ``load_session`` persist a whole
:class:`~repro.api.session.Session` (per-platform trainers, vocabulary,
encoder settings, config, scaler state); ``save_compoff`` / ``load_compoff``
do the same for the COMPOFF baseline.  The lower-level ``save_trainers`` /
``load_trainers`` pair works on bare ``{name: Trainer}`` mappings and is
what the synth ``store-roundtrip`` scenario sweeps.

The contract that matters: a model set loaded from an artifact predicts
**bit-identically** (float64) to the in-process model set that wrote it.
Weights travel as ``.npz`` float64 arrays (lossless), scaler statistics as
JSON floats (repr round-trip, also lossless), and
:meth:`~repro.nn.module.Module.load_state_dict` validates dtype and
finiteness so silent corruption cannot survive a load.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..ml.scaler import scaler_from_dict
from ..obs.metrics import add_count
from ..obs.tracing import span
from ..reliability.faults import SITE_STORE_READ, SITE_STORE_WRITE, fault_point
from .manifest import (
    CorruptArtifactError,
    MANIFEST_NAME,
    SCHEMA_VERSION,
    StoreError,
    check_compatibility,
    validate_manifest,
)

__all__ = [
    "LoadedModelSet",
    "VerificationReport",
    "artifact_size_bytes",
    "dataset_fingerprint",
    "inspect_artifact",
    "load_compoff",
    "load_session",
    "load_trainers",
    "read_manifest",
    "save_compoff",
    "save_session",
    "save_trainers",
    "verify_artifact",
]

#: sub-directory of an artifact holding the ``.npz`` weight payloads.
WEIGHTS_DIR = "weights"


# --------------------------------------------------------------------- #
# small helpers
# --------------------------------------------------------------------- #
def _slug(name: str) -> str:
    """Filesystem-safe file stem for a model name (``NVIDIA V100`` →
    ``nvidia-v100``)."""
    cleaned = "".join(ch if ch.isalnum() else "-" for ch in name.lower())
    collapsed = "-".join(part for part in cleaned.split("-") if part)
    return collapsed or "model"


def _unique_suffix() -> str:
    """Per-call unique staging suffix: concurrent saves to one path (two
    threads, two processes) must never share a staging directory."""
    import uuid
    return f"{os.getpid()}.{uuid.uuid4().hex[:8]}"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _repro_version() -> str:
    import repro
    return repro.__version__


def _manifest_path(path: str) -> str:
    return os.path.join(path, MANIFEST_NAME)


def dataset_fingerprint(results: Mapping) -> Optional[str]:
    """SHA-256 over the training data a model set was fitted on.

    Hashes, per platform in sorted order, the sample names and the runtime
    labels — enough to notice "same config, different data" drift between
    an artifact and a retrained reference.  Returns ``None`` when no
    platform carries samples (e.g. re-saving a warm-started session)."""
    digest = hashlib.sha256()
    saw_samples = False

    def frame(raw: bytes) -> None:
        # length-prefix every field so differently partitioned inputs
        # ('ab'+'c' vs 'a'+'bc') can never collide to one fingerprint
        digest.update(len(raw).to_bytes(8, "little"))
        digest.update(raw)

    for name in sorted(results):
        dataset = getattr(results[name], "dataset", None)
        if dataset is None or len(dataset) == 0:
            continue
        saw_samples = True
        frame(name.encode("utf-8"))
        frame(np.ascontiguousarray(dataset.targets()).tobytes())
        for sample in dataset.samples:
            frame(sample.name.encode("utf-8"))
    return digest.hexdigest() if saw_samples else None


def artifact_size_bytes(path: str) -> int:
    """Total on-disk size of an artifact directory."""
    total = 0
    for root, _, files in os.walk(path):
        for filename in files:
            total += os.path.getsize(os.path.join(root, filename))
    return total


# --------------------------------------------------------------------- #
# manifest I/O
# --------------------------------------------------------------------- #
def read_manifest(path: str, *, check_versions: bool = True) -> dict:
    """Read + schema-validate ``manifest.json``; optionally check versions.

    Raises :class:`CorruptArtifactError` (unreadable / schema violation,
    naming the offending field) or :class:`VersionMismatchError`.
    """
    manifest_path = _manifest_path(path)
    if not os.path.isdir(path):
        raise CorruptArtifactError(f"artifact directory does not exist: {path}")
    if not os.path.exists(manifest_path):
        raise CorruptArtifactError(
            f"artifact has no {MANIFEST_NAME}: {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise CorruptArtifactError(
            f"unreadable {MANIFEST_NAME} at {manifest_path}: {error}") from error
    validate_manifest(payload)
    if check_versions:
        check_compatibility(payload)
    return payload


# --------------------------------------------------------------------- #
# saving
# --------------------------------------------------------------------- #
def _module_state(module) -> Dict[str, np.ndarray]:
    state = module.state_dict()
    for key, value in state.items():
        if np.issubdtype(value.dtype, np.inexact) and \
                not np.isfinite(value).all():
            raise StoreError(
                f"refusing to save model state {key!r}: it contains "
                "non-finite values (NaN/Inf)")
    return state


def _write_weights(path: str, slug: str, state: Mapping[str, np.ndarray]) -> Tuple[str, str]:
    """Write one ``.npz`` payload; returns (relative path, sha256).

    Serializes to memory first so one pass both hashes and writes the
    bytes — the save-path mirror of ``_load_state``'s single-read design.
    """
    weights_dir = os.path.join(path, WEIGHTS_DIR)
    os.makedirs(weights_dir, exist_ok=True)
    relative = f"{WEIGHTS_DIR}/{slug}.npz"
    target = os.path.join(path, *relative.split("/"))
    buffer = io.BytesIO()
    np.savez(buffer, **dict(state))
    raw = buffer.getvalue()
    with span("store.write", payload=relative, num_bytes=len(raw)):
        digest = hashlib.sha256(raw).hexdigest()
        # chaos hook *after* hashing: an injected write corruption lands on
        # disk with a now-stale recorded checksum, exactly like a real torn
        # write — verify/load catches it, nothing silently survives
        raw = fault_point(SITE_STORE_WRITE, raw)
        with open(target, "wb") as handle:
            handle.write(raw)
        add_count("store.bytes_written", len(raw))
        add_count("store.payloads_written")
    return relative, digest


def _staged_save(path: str, overwrite: bool, write_payloads) -> str:
    """Write an artifact via a staging directory, committing only on success.

    ``write_payloads(stage_dir) -> manifest dict`` does the actual writes.
    The existing artifact at *path* (if any) is only touched *after* the
    replacement is completely written, so a failed save — non-finite
    weights, a full disk — never destroys a previously valid artifact.
    The commit itself uses renames: the old manifest and ``weights/`` move
    to ``.old`` backups before the new ones move in, so even a hard kill
    mid-commit leaves the previous state recoverable on disk (the backups
    are deleted only as the final step).  Unrelated files in the directory
    are kept.
    """
    if os.path.exists(_manifest_path(path)) and not overwrite:
        raise StoreError(
            f"artifact already exists at {path} (pass overwrite=True to "
            "replace it)")
    stage = f"{path}.staging.{_unique_suffix()}"
    os.makedirs(stage)
    try:
        _dump_manifest(stage, write_payloads(stage))
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    if not os.path.exists(path):
        try:
            os.rename(stage, path)
        except OSError:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        return path
    manifest_backup = _manifest_path(path) + ".old"
    weights_backup = os.path.join(path, WEIGHTS_DIR + ".old")
    for leftover in (manifest_backup, weights_backup):
        if os.path.isdir(leftover):
            shutil.rmtree(leftover)
        elif os.path.exists(leftover):
            os.remove(leftover)
    old_weights = os.path.join(path, WEIGHTS_DIR)
    try:
        if os.path.exists(_manifest_path(path)):
            os.replace(_manifest_path(path), manifest_backup)
        if os.path.isdir(old_weights):
            os.rename(old_weights, weights_backup)
        os.rename(os.path.join(stage, WEIGHTS_DIR), old_weights)
        os.rename(_manifest_path(stage), _manifest_path(path))
    except BaseException:
        # roll back in reverse so the old artifact survives a mid-commit
        # failure *coherently*: if the old weights were moved aside, drop
        # any half-swapped new weights and put the old ones back, then
        # restore the old manifest — never old-manifest + new-weights
        if os.path.isdir(weights_backup):
            if os.path.isdir(old_weights):
                shutil.rmtree(old_weights)
            os.rename(weights_backup, old_weights)
        if not os.path.exists(_manifest_path(path)) and \
                os.path.exists(manifest_backup):
            os.replace(manifest_backup, _manifest_path(path))
        shutil.rmtree(stage, ignore_errors=True)
        raise
    shutil.rmtree(stage, ignore_errors=True)
    shutil.rmtree(weights_backup, ignore_errors=True)
    if os.path.exists(manifest_backup):
        os.remove(manifest_backup)
    return path


def _base_manifest(*, kind: str, name: str, seed, config_payload: dict,
                   models: List[dict], fingerprint: Optional[str] = None,
                   extra: Optional[dict] = None) -> dict:
    """The provenance/identity block every artifact kind shares."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "repro_version": _repro_version(),
        "created_at": _utc_now(),
        "seed": seed,
        "dataset_fingerprint": fingerprint,
        "config": config_payload,
        "models": models,
    }
    payload.update(extra or {})
    return payload


def _dump_manifest(path: str, manifest: dict) -> None:
    with open(_manifest_path(path), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_trainers(
    path: str,
    trainers: Mapping[str, "object"],
    *,
    config,
    encoder=None,
    metrics: Optional[Mapping[str, Mapping[str, float]]] = None,
    name: str = "session",
    fingerprint: Optional[str] = None,
    overwrite: bool = False,
) -> str:
    """Write a ``kind="session"`` artifact from ``{platform: Trainer}``.

    The shared core of :func:`save_session`; usable directly when the
    trainers were produced outside a :class:`~repro.api.session.Session`
    (the synth harness does this).  Returns the artifact path.
    """
    if not trainers:
        raise StoreError("cannot save an empty model set: no trained "
                         "platforms (did training drop every dataset?)")
    metrics = metrics or {}
    if encoder is None:
        encoder = config.make_encoder()

    def write_payloads(stage: str) -> dict:
        entries: List[dict] = []
        slugs: Dict[str, str] = {}
        for platform_name in sorted(trainers):
            trainer = trainers[platform_name]
            slug = base_slug = _slug(platform_name)
            suffix = 1
            while slug in slugs.values():
                slug = f"{base_slug}-{suffix}"
                suffix += 1
            slugs[platform_name] = slug
            state = _module_state(trainer.model)
            relative, sha256 = _write_weights(stage, slug, state)
            entries.append({
                "name": platform_name,
                "weights": relative,
                "sha256": sha256,
                "num_parameters": int(trainer.model.num_parameters()),
                "dtypes": {key: str(value.dtype)
                           for key, value in state.items()},
                "scalers": {
                    "target": trainer.target_scaler.to_dict(),
                    "aux": trainer.aux_scaler.to_dict(),
                },
                "metrics": {key: float(value) for key, value
                            in dict(metrics.get(platform_name, {})).items()},
            })
        return _base_manifest(
            kind="session", name=name, seed=int(config.seed),
            config_payload=config.to_dict(), models=entries,
            fingerprint=fingerprint,
            extra={
                "vocabulary": encoder.vocabulary.to_dict(),
                "encoder": {
                    "include_terminal_flag": bool(encoder.include_terminal_flag),
                    "log_scale_weights": bool(encoder.log_scale_weights),
                },
            })

    return _staged_save(path, overwrite, write_payloads)


def save_session(session, path: str, *, name: str = "session",
                 overwrite: bool = False) -> str:
    """Persist a trained session as an artifact directory.

    Trains first if the session has not trained yet (saving implies a
    model set to save).  Returns the artifact path.
    """
    results = session.train()
    fingerprint = dataset_fingerprint(results)
    if fingerprint is None:
        fingerprint = (session.provenance or {}).get("dataset_fingerprint")
    return save_trainers(
        path,
        {platform: result.trainer for platform, result in results.items()},
        config=session.config,
        encoder=session.encoder,
        metrics={platform: result.metrics
                 for platform, result in results.items()},
        name=name,
        fingerprint=fingerprint,
        overwrite=overwrite,
    )


# --------------------------------------------------------------------- #
# loading
# --------------------------------------------------------------------- #
@dataclass
class LoadedModelSet:
    """What :func:`load_trainers` reconstructs from a session artifact."""

    manifest: dict
    config: "object"
    encoder: "object"
    trainers: Dict[str, "object"] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def provenance(self) -> dict:
        """The identity/compat fields of the manifest, for bookkeeping."""
        manifest = self.manifest
        return {
            "name": manifest.get("name"),
            "repro_version": manifest.get("repro_version"),
            "schema_version": manifest.get("schema_version"),
            "created_at": manifest.get("created_at"),
            "seed": manifest.get("seed"),
            "dataset_fingerprint": manifest.get("dataset_fingerprint"),
        }


def _load_state(path: str, entry: Mapping, verify: bool) -> Dict[str, np.ndarray]:
    """Read one weight payload — a single read serves both the checksum and
    the decode, so verified cold starts never pay double I/O."""
    weights_path = os.path.join(path, *entry["weights"].split("/"))
    if not os.path.exists(weights_path):
        raise CorruptArtifactError(
            f"manifest field 'models[{entry['name']!r}].weights': payload "
            f"file {entry['weights']!r} is missing from the artifact")
    try:
        with span("store.read", payload=entry["weights"]):
            with open(weights_path, "rb") as handle:
                raw = handle.read()
            add_count("store.bytes_read", len(raw))
            add_count("store.payloads_read")
    except OSError as error:
        raise CorruptArtifactError(
            f"manifest field 'models[{entry['name']!r}].weights': cannot "
            f"read payload {entry['weights']!r}: {error}") from error
    # chaos hook before the checksum: injected read corruption (bit rot,
    # torn page) must be caught by the verify path below
    raw = fault_point(SITE_STORE_READ, raw)
    if verify:
        with span("store.verify", payload=entry["weights"],
                  num_bytes=len(raw)):
            actual = hashlib.sha256(raw).hexdigest()
            if actual != entry["sha256"]:
                raise CorruptArtifactError(
                    f"manifest field 'models[{entry['name']!r}].sha256': "
                    f"checksum mismatch for {entry['weights']!r} (manifest "
                    f"says {entry['sha256'][:12]}…, file hashes to "
                    f"{actual[:12]}…)")
    try:
        with np.load(io.BytesIO(raw)) as payload:
            state = {key: payload[key] for key in payload.files}
    except Exception as error:
        raise CorruptArtifactError(
            f"manifest field 'models[{entry['name']!r}].weights': cannot "
            f"decode {entry['weights']!r} as an npz payload: {error}") from error
    recorded = entry["dtypes"]
    if set(state) != set(recorded):
        missing = sorted(set(recorded) - set(state))
        unexpected = sorted(set(state) - set(recorded))
        raise CorruptArtifactError(
            f"manifest field 'models[{entry['name']!r}].dtypes': payload "
            f"arrays disagree with the manifest (missing={missing}, "
            f"unexpected={unexpected})")
    for key, array in state.items():
        if str(array.dtype) != recorded[key]:
            raise CorruptArtifactError(
                f"manifest field 'models[{entry['name']!r}].dtypes[{key!r}]': "
                f"manifest says {recorded[key]}, payload array is "
                f"{array.dtype}")
    return state


def _restore_scaler(entry: Mapping, scaler_key: str):
    """Scaler from a manifest entry; corruption becomes a field-naming error."""
    try:
        return scaler_from_dict(entry["scalers"][scaler_key])
    except (KeyError, ValueError, TypeError) as error:
        raise CorruptArtifactError(
            f"manifest field 'models[{entry['name']!r}].scalers."
            f"{scaler_key}': {error}") from error


def _load_into_module(module, state: Mapping[str, np.ndarray],
                      entry: Mapping) -> None:
    """``load_state_dict`` with mismatches reported as corrupt-artifact."""
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise CorruptArtifactError(
            f"manifest field 'models[{entry['name']!r}].weights': state "
            f"does not fit the configured model: {error}") from error


def load_trainers(path: str, *, verify: bool = True,
                  preloaded: Optional[Mapping[str, Mapping]] = None) -> LoadedModelSet:
    """Reconstruct the trainers of a ``kind="session"`` artifact.

    Rebuilds config, vocabulary and encoder from the manifest, instantiates
    each platform's model via ``config.model.build`` and restores weights
    (dtype-validated, finite-checked by ``load_state_dict``) and scaler
    state.  With ``verify=True`` (default) payload checksums are enforced.
    *preloaded* maps model names to already-decoded state dicts
    (``verify_artifact`` passes the states its integrity loop read, so a
    verify never decodes a payload twice).
    """
    from ..api.config import ReproConfig
    from ..ml.trainer import Trainer
    from ..paragraph.encoders import GraphEncoder
    from ..paragraph.vocab import Vocabulary

    manifest = read_manifest(path)
    if manifest["kind"] != "session":
        raise StoreError(
            f"expected a 'session' artifact at {path}, found kind "
            f"{manifest['kind']!r} (load it with the matching loader)")
    try:
        config = ReproConfig.from_dict(manifest["config"])
    except Exception as error:
        raise CorruptArtifactError(
            f"manifest field 'config': does not rebuild a ReproConfig: "
            f"{error}") from error
    try:
        vocabulary = Vocabulary.from_dict(manifest["vocabulary"])
    except ValueError as error:
        raise CorruptArtifactError(
            f"manifest field 'vocabulary': {error}") from error
    encoder = GraphEncoder(
        vocabulary=vocabulary,
        include_terminal_flag=manifest["encoder"]["include_terminal_flag"],
        log_scale_weights=manifest["encoder"]["log_scale_weights"],
    )
    loaded = LoadedModelSet(manifest=manifest, config=config, encoder=encoder)
    for entry in manifest["models"]:
        if preloaded is not None and entry["name"] in preloaded:
            state = preloaded[entry["name"]]
        else:
            state = _load_state(path, entry, verify)
        try:
            model = config.model.build(
                node_feature_dim=encoder.feature_dim,
                use_edge_weight=config.graph.use_edge_weight,
                seed=config.seed,
            )
        except Exception as error:
            raise CorruptArtifactError(
                f"manifest field 'config.model': cannot construct the "
                f"configured model: {error}") from error
        _load_into_module(model, state, entry)
        trainer = Trainer(model, config.training)
        trainer.target_scaler = _restore_scaler(entry, "target")
        trainer.aux_scaler = _restore_scaler(entry, "aux")
        trainer._fitted_scalers = True
        loaded.trainers[entry["name"]] = trainer
        loaded.metrics[entry["name"]] = dict(entry["metrics"])
    return loaded


def load_session(path: str, *, serve_config=None, graph_cache_size: int = 256,
                 verify: bool = True, session_cls=None):
    """Reconstruct a serving-ready :class:`~repro.api.session.Session`.

    The returned session is *warm-started*: ``train()`` is a no-op that
    returns the restored per-platform results, and ``predict_batch`` goes
    straight to the serving path — its predictions are bit-identical to the
    session that wrote the artifact.  *session_cls*
    lets ``Session`` subclasses reconstruct as themselves (what
    ``Session.load`` passes).
    """
    from ..api.registries import resolve_platform
    from ..api.session import Session
    from ..ml.dataset import GraphDataset
    from ..ml.trainer import History
    from ..api.stages import PlatformResult

    loaded = load_trainers(path, verify=verify)
    session = (session_cls or Session)(
        loaded.config, graph_cache_size=graph_cache_size,
        serve_config=serve_config)
    session.encoder = loaded.encoder
    results = {}
    for platform_name, trainer in loaded.trainers.items():
        try:
            spec = resolve_platform(platform_name)
        except Exception as error:
            raise CorruptArtifactError(
                f"manifest field 'models[{platform_name!r}].name': unknown "
                f"platform: {error}") from error
        if spec.name in results:
            raise CorruptArtifactError(
                f"manifest field 'models[{platform_name!r}].name': resolves "
                f"to platform {spec.name!r}, which another model entry "
                "already claims (aliases collapsing to one platform)")
        placeholder = GraphDataset(name=platform_name)
        results[spec.name] = PlatformResult(
            platform=spec,
            dataset=placeholder,
            train=placeholder,
            validation=placeholder,
            trainer=trainer,
            history=History(),
            metrics=loaded.metrics[platform_name],
        )
    session._install_restored_results(results, loaded.provenance)
    return session


# --------------------------------------------------------------------- #
# COMPOFF artifacts
# --------------------------------------------------------------------- #
def save_compoff(model, path: str, *, name: str = "compoff",
                 overwrite: bool = False) -> str:
    """Write a ``kind="compoff"`` artifact for a fitted COMPOFF baseline."""
    from dataclasses import asdict

    if not getattr(model, "_fitted", False):
        raise StoreError("COMPOFF model is not fitted; fit() before saving")

    def write_payloads(stage: str) -> dict:
        state = _module_state(model.network)
        relative, sha256 = _write_weights(stage, "compoff", state)
        config_payload = asdict(model.config)
        config_payload["hidden_dims"] = [int(d)
                                         for d in config_payload["hidden_dims"]]
        return _base_manifest(
            kind="compoff", name=name, seed=model.config.seed,
            config_payload=config_payload,
            models=[{
                "name": "compoff",
                "weights": relative,
                "sha256": sha256,
                "num_parameters": int(model.network.num_parameters()),
                "dtypes": {key: str(value.dtype)
                           for key, value in state.items()},
                "scalers": {
                    "feature": model.feature_scaler.to_dict(),
                    "target": model.target_scaler.to_dict(),
                },
                "metrics": {},
            }])

    return _staged_save(path, overwrite, write_payloads)


def load_compoff(path: str, *, verify: bool = True, model_cls=None,
                 preloaded: Optional[Mapping[str, Mapping]] = None):
    """Reconstruct a fitted COMPOFF baseline; predictions are bit-identical
    (the MLP always runs float64).  *model_cls* lets subclasses
    reconstruct as themselves (what ``COMPOFFModel.load`` passes);
    *preloaded* is the decoded-state cache ``verify_artifact`` shares."""
    from ..compoff.model import COMPOFFConfig, COMPOFFModel

    manifest = read_manifest(path)
    if manifest["kind"] != "compoff":
        raise StoreError(
            f"expected a 'compoff' artifact at {path}, found kind "
            f"{manifest['kind']!r} (load it with the matching loader)")
    payload = dict(manifest["config"])
    try:
        payload["hidden_dims"] = tuple(payload.get("hidden_dims", ()))
        config = COMPOFFConfig(**payload)
    except (TypeError, ValueError) as error:
        raise CorruptArtifactError(
            f"manifest field 'config': does not rebuild a COMPOFFConfig: "
            f"{error}") from error
    try:
        model = (model_cls or COMPOFFModel)(config)
    except Exception as error:
        raise CorruptArtifactError(
            f"manifest field 'config': cannot construct the configured "
            f"network: {error}") from error
    entry = manifest["models"][0]
    if preloaded is not None and entry["name"] in preloaded:
        state = preloaded[entry["name"]]
    else:
        state = _load_state(path, entry, verify)
    _load_into_module(model.network, state, entry)
    model.feature_scaler = _restore_scaler(entry, "feature")
    model.target_scaler = _restore_scaler(entry, "target")
    model._fitted = True
    return model


# --------------------------------------------------------------------- #
# inspection / verification
# --------------------------------------------------------------------- #
@dataclass
class VerificationReport:
    """Outcome of :func:`verify_artifact`."""

    path: str
    ok: bool
    problems: List[str] = field(default_factory=list)
    kind: Optional[str] = None
    name: Optional[str] = None
    num_models: int = 0
    size_bytes: int = 0

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [f"{status}: {self.path} (kind={self.kind}, "
                 f"models={self.num_models}, {self.size_bytes} bytes)"]
        lines.extend(f"  - {problem}" for problem in self.problems)
        return "\n".join(lines)


def verify_artifact(path: str) -> VerificationReport:
    """Full integrity check: schema, version compatibility, payload
    checksums, npz decodability, dtype agreement and finiteness.

    Collects *every* problem instead of stopping at the first, so one
    verify run describes the whole damage.
    """
    report = VerificationReport(path=path, ok=True,
                                size_bytes=artifact_size_bytes(path)
                                if os.path.isdir(path) else 0)
    try:
        manifest = read_manifest(path)
    except StoreError as error:
        report.ok = False
        report.problems.append(str(error))
        return report
    report.kind = manifest.get("kind")
    report.name = manifest.get("name")
    report.num_models = len(manifest.get("models", ()))
    decoded: Dict[str, Mapping] = {}
    for entry in manifest["models"]:
        try:
            state = _load_state(path, entry, verify=True)
        except StoreError as error:
            report.ok = False
            report.problems.append(str(error))
            continue
        decoded[entry["name"]] = state
        for key, array in state.items():
            if np.issubdtype(array.dtype, np.inexact) and \
                    not np.isfinite(array).all():
                report.ok = False
                report.problems.append(
                    f"models[{entry['name']!r}] array {key!r} contains "
                    "non-finite values (NaN/Inf)")
        for scaler_name, payload in entry["scalers"].items():
            try:
                scaler_from_dict(payload)
            except (ValueError, TypeError) as error:
                report.ok = False
                report.problems.append(
                    f"models[{entry['name']!r}] scaler {scaler_name!r}: "
                    f"{error}")
    if report.ok:
        # deep check: the manifest must actually *reconstruct* — config and
        # vocabulary rebuild, and every payload fits the configured model
        # (catches e.g. a tampered config.model.hidden_dim whose weight
        # files still checksum cleanly)
        try:
            if manifest["kind"] == "session":
                load_trainers(path, verify=False, preloaded=decoded)
            else:
                load_compoff(path, verify=False, preloaded=decoded)
        except StoreError as error:
            report.ok = False
            report.problems.append(str(error))
        except Exception as error:  # noqa: BLE001 - a verify must report,
            report.ok = False       # never crash, whatever the corruption
            report.problems.append(
                f"reconstruction failed: {type(error).__name__}: {error}")
    return report


def inspect_artifact(path: str) -> dict:
    """A human-oriented summary dict of an artifact (used by the CLI)."""
    manifest = read_manifest(path, check_versions=False)
    return {
        "path": path,
        "kind": manifest["kind"],
        "name": manifest["name"],
        "schema_version": manifest["schema_version"],
        "repro_version": manifest["repro_version"],
        "created_at": manifest["created_at"],
        "seed": manifest.get("seed"),
        "dataset_fingerprint": manifest.get("dataset_fingerprint"),
        "size_bytes": artifact_size_bytes(path),
        "models": [
            {
                "name": entry["name"],
                "weights": entry["weights"],
                "num_parameters": entry["num_parameters"],
                "metrics": entry["metrics"],
            }
            for entry in manifest["models"]
        ],
    }
