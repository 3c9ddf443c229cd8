"""ParaGraph reproduction library.

A from-scratch Python implementation of *ParaGraph: Weighted Graph
Representation for Performance Optimization of HPC Kernels* (TehraniJamsaz
et al.), including every substrate the paper depends on:

* ``repro.api`` -- the composable public surface: ``Session``, staged
  ``Pipeline`` objects, registries and the batched predict/serve facade,
* ``repro.clang`` -- C/OpenMP frontend producing Clang-style ASTs,
* ``repro.paragraph`` -- the weighted, typed program-graph representation,
* ``repro.nn`` / ``repro.gnn`` -- NumPy autograd + RGAT GNN stack,
* ``repro.ml`` -- datasets, scalers, metrics and the training loop,
* ``repro.kernels`` -- the Table I benchmark applications,
* ``repro.advisor`` -- kernel analysis and the six OpenMP transformations,
* ``repro.analysis`` -- pluggable static-analysis checkers (uninitialized
  reads, array bounds, dead stores, OpenMP races, loop-carried
  dependences) with text/JSON reports and a CLI,
* ``repro.compoff`` -- the COMPOFF baseline cost model,
* ``repro.hardware`` -- analytical Summit/Corona accelerator simulator,
* ``repro.pipeline`` -- the data side of the workflow: configuration
  sweeps, graph generation, simulated runtimes and per-platform datasets,
* ``repro.reliability`` -- the failure model: seeded fault injection,
  deadline/retry/backoff semantics, per-shard circuit breakers and the
  typed error taxonomy the serving + store stack degrades through,
* ``repro.serve`` -- the caller-runs serving runtime (per-platform
  shards, leader combining into packed batches, re-entrant inference),
* ``repro.store`` -- the model artifact store: versioned, checksummed
  manifests + weight payloads, ``Session.save``/``Session.load``
  zero-retrain warm starts, a ``name@version`` model registry and the
  ``python -m repro.store`` CLI,
* ``repro.synth`` -- seeded synthetic-scenario generators and the
  differential property-testing harness over the whole pipeline,
* ``repro.evaluation`` -- drivers regenerating every table and figure.

Quickstart::

    from repro.api import ReproConfig, Session

    session = Session(ReproConfig())          # per-stage configs, validated
    result = session.workflow()               # datasets + one model/platform
    print(result.metrics_table())

    # serving hot path: batched prediction with graph-construction caching
    runtimes_us = session.predict_batch(
        sources, platform="v100", num_teams=128, num_threads=64)

Stages compose explicitly when you need only part of the workflow::

    from repro.api import GraphStage, ParseStage, Pipeline, SourceSpec

    graphs = Pipeline([ParseStage(), GraphStage()]).run(
        specs=[SourceSpec(source)])["graphs"]

Subpackages import lazily (PEP 562), so ``import repro`` is fast.
"""

import importlib

#: single source of truth — read by ``setup.py`` and recorded in every
#: ``repro.store`` artifact manifest for compatibility checks.
__version__ = "1.2.0"

_SUBPACKAGES = (
    "advisor",
    "analysis",
    "api",
    "clang",
    "compoff",
    "evaluation",
    "gnn",
    "hardware",
    "kernels",
    "ml",
    "nn",
    "obs",
    "paragraph",
    "pipeline",
    "reliability",
    "serve",
    "store",
    "synth",
)

__all__ = list(_SUBPACKAGES)


def __getattr__(name):
    if name in _SUBPACKAGES:
        module = importlib.import_module("." + name, __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBPACKAGES))
