"""``repro.api`` — the composable public surface of the reproduction.

The session layer runs the paper's workflow (Fig. 3) as staged, typed,
registry-driven components:

* :class:`~repro.api.session.Session` — train once, predict many times;
  :meth:`~repro.api.session.Session.predict_batch` is the serving hot path
  with an LRU graph-construction cache, and
  :meth:`~repro.api.session.Session.workflow` returns the
  :class:`~repro.api.session.WorkflowResult` of one training run,
* :class:`~repro.api.pipeline.Pipeline` and the stages in
  :mod:`repro.api.stages` — chainable ``ParseStage`` / ``GraphStage`` /
  ``EncodeStage`` / ``DatasetStage`` / ``TrainStage`` / ``PredictStage``,
* :class:`~repro.api.config.ReproConfig` — per-stage config dataclasses
  with validation and dict round-tripping,
* the registries in :mod:`repro.api.registries` — pluggable convolutions,
  kernels and platforms (``@register_conv`` & co).

Quickstart::

    from repro.api import ReproConfig, Session

    session = Session(ReproConfig())
    print(session.workflow().metrics_table())
    runtimes = session.predict_batch(sources, platform="v100")

Everything is exported lazily (PEP 562), so ``import repro.api`` is cheap.
"""

import importlib

_EXPORTS = {
    # session facade
    "Session": ".session",
    "CacheInfo": ".session",
    "WorkflowResult": ".session",
    # pipeline & stages
    "Pipeline": ".pipeline",
    "PipelineContext": ".pipeline",
    "PipelineError": ".pipeline",
    "Stage": ".stages",
    "SourceSpec": ".stages",
    "ParseStage": ".stages",
    "GraphStage": ".stages",
    "EncodeStage": ".stages",
    "DatasetStage": ".stages",
    "TrainStage": ".stages",
    "PlatformResult": ".stages",
    "PredictStage": ".stages",
    # configuration
    "ReproConfig": ".config",
    "DataConfig": ".config",
    "GraphConfig": ".config",
    "ModelConfig": ".config",
    "READOUTS": ".config",
    "config_from_dict": ".serialization",
    "config_to_dict": ".serialization",
    "sweep_from_dict": ".serialization",
    "sweep_to_dict": ".serialization",
    # registries
    "Registry": ".registries",
    "RegistryError": ".registries",
    "conv_registry": ".registries",
    "kernel_registry": ".registries",
    "platform_registry": ".registries",
    "register_conv": ".registries",
    "register_kernel": ".registries",
    "register_platform": ".registries",
    "get_conv": ".registries",
    "get_kernel": ".registries",
    "get_platform": ".registries",
    "resolve_platform": ".registries",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
