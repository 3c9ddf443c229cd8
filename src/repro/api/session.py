"""The :class:`Session` facade: train once, predict many times.

A session owns one :class:`~repro.api.config.ReproConfig`, lazily builds the
per-platform datasets and trained models through the stage pipeline, and
exposes the hot path a serving tier calls:
:meth:`Session.predict_batch` — batched source→runtime prediction with an
LRU cache over graph construction (parse + analyze + build + encode), which
dominates the cost of a single prediction.

Warm predictions additionally run the GNN inference fast path: the model's
relational kernels consume a content-addressed cached edge layout (sorted
once per distinct graph — see :mod:`repro.gnn.edge_layout`), record no
autodiff graph, and compute in float64, bit-identical to training-time
evaluation.
``benchmarks/test_perf_gnn_forward.py`` measures the forward-pass speedup
and writes ``benchmarks/BENCH_pr2.json``.

Cold predictions construct graphs in two stages (see
:meth:`Session._encode_specs`): nodes and edges come from the source text
alone, so a text that appears under several contexts in one request is
parsed, built and encoded once, and only its ``Child``-edge weights and
aux features are recomputed per context.

The facade itself is a thin client of :class:`repro.serve.Server`: every
``predict`` / ``predict_batch`` call routes through an embedded server,
which executes on the calling thread (configured by the ``REPRO_SERVE_*``
variables or an explicit :class:`~repro.serve.ServerConfig`).  All session
state a request touches — the graph-construction cache, the lazily trained
models, the engine's no-grad switch — is lock-protected or
context-local, so concurrent callers need no external synchronization; see
``SERVING.md`` for the architecture and reproducibility contract.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..hardware.specs import HardwareSpec
from ..ml.trainer import Trainer
from ..paragraph.encoders import EncodedGraph
from ..pipeline.dataset_builder import DatasetBuildResult
from ..serve.server import Server, ServerConfig
from .config import ReproConfig
from .pipeline import Pipeline
from .registries import resolve_platform
from .stages import (
    DatasetStage,
    EncodeStage,
    GraphStage,
    ParseStage,
    PlatformResult,
    SourceSpec,
    TrainStage,
)

__all__ = ["CacheInfo", "Session", "WorkflowResult"]


@dataclass
class WorkflowResult:
    """Per-platform results plus the shared dataset build information."""

    build: DatasetBuildResult
    platforms: Dict[str, PlatformResult]

    def metrics_table(self) -> Dict[str, Dict[str, float]]:
        """Platform name → {rmse, normalized_rmse} (the Table III shape)."""
        return {name: dict(result.metrics) for name, result in self.platforms.items()}


class CacheInfo(NamedTuple):
    """Hit/miss/eviction statistics of the session's graph-construction
    cache (``evictions`` is appended with a default, keeping the tuple
    positionally compatible with its pre-observability shape)."""

    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int = 0


class _GraphCache:
    """A small LRU cache from source-spec keys to encoded graphs.

    Lock-protected: one instance is shared by every thread serving through
    :class:`repro.serve`, so lookups, inserts, eviction and the hit/miss
    counters all mutate under the lock and :meth:`info` returns one
    coherent snapshot instead of counters read at different instants.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(int(capacity), 0)
        self._entries: "OrderedDict[tuple, EncodedGraph]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Optional[EncodedGraph]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, value: EncodedGraph) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry; optionally also zero the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            if reset_stats:
                self.hits = 0
                self.misses = 0
                self.evictions = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without touching the cached graphs."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(hits=self.hits, misses=self.misses,
                             size=len(self._entries), capacity=self.capacity,
                             evictions=self.evictions)


class Session:
    """One configured instance of the whole system (Fig. 3 as an object).

    Dataset building and training are lazy and memoized: the first call to
    :meth:`train` / :meth:`workflow` / :meth:`predict_batch` pays for them,
    later calls reuse the results.  Memoization is lock-protected, so
    concurrent first callers (e.g. serving threads) train exactly once.

    Parameters
    ----------
    config:
        The :class:`ReproConfig`; defaults reproduce the paper's setup.
    graph_cache_size:
        Capacity of the lock-protected LRU graph-construction cache used by
        the predict facade (0 disables caching).
    serve_config:
        Configuration of the embedded :class:`repro.serve.Server` the
        predict facade routes through.  Defaults to
        :meth:`~repro.serve.ServerConfig.from_env`; the server runs every
        request on its caller's thread either way.
    """

    def __init__(self, config: Optional[ReproConfig] = None,
                 graph_cache_size: int = 256,
                 serve_config: Optional[ServerConfig] = None) -> None:
        self.config = config or ReproConfig()
        self.encoder = self.config.make_encoder()
        self._cache = _GraphCache(graph_cache_size)
        self._build: Optional[DatasetBuildResult] = None
        self._platform_results: Optional[Dict[str, PlatformResult]] = None
        self._train_lock = threading.RLock()
        self._serve_config = serve_config
        self._server: Optional[Server] = None
        self._server_lock = threading.Lock()
        #: artifact provenance when this session was warm-started from a
        #: ``repro.store`` artifact instead of trained in-process.
        self._provenance: Optional[dict] = None

    # ------------------------------------------------------------------ #
    @property
    def platforms(self) -> Tuple[HardwareSpec, ...]:
        """The resolved target platforms, in configured order."""
        return self.config.platform_specs()

    # ------------------------------------------------------------------ #
    # training side
    # ------------------------------------------------------------------ #
    def build_dataset(self) -> DatasetBuildResult:
        """Build (once) the per-platform datasets of the configured sweep."""
        with self._train_lock:
            if self._build is None:
                context = Pipeline([DatasetStage(self.config,
                                                 encoder=self.encoder)]).run()
                self._build = context["build"]
            return self._build

    def train(self) -> Dict[str, PlatformResult]:
        """Train (once) one model per platform; returns the per-platform results."""
        with self._train_lock:
            if self._platform_results is None:
                if self._build is None:
                    context = Pipeline([DatasetStage(self.config, encoder=self.encoder),
                                        TrainStage(self.config)]).run()
                    self._build = context["build"]
                else:
                    context = Pipeline([TrainStage(self.config)]).run(
                        build=self._build, encoder=self.encoder)
                self._platform_results = context["platform_results"]
            return self._platform_results

    def workflow(self) -> WorkflowResult:
        """The Fig. 3 workflow in one call: datasets + trained platforms."""
        platform_results = self.train()
        if self._build is None:
            raise RuntimeError(
                "this session was warm-started from a stored artifact and "
                "carries no dataset build; serve with predict/predict_batch, "
                "or construct a fresh Session to run the training workflow")
        return WorkflowResult(build=self._build, platforms=platform_results)

    def trainer_for(self, platform) -> Trainer:
        """The trained :class:`Trainer` for *platform* (name, alias or spec)."""
        spec = resolve_platform(platform)
        results = self.train()
        if spec.name not in results:
            raise KeyError(
                f"no trained model for platform {spec.name!r}; trained platforms: "
                f"{sorted(results)} (is it in config.data.platforms, and did its "
                "dataset reach config.data.min_platform_samples samples?)")
        return results[spec.name].trainer

    # ------------------------------------------------------------------ #
    # serving side
    # ------------------------------------------------------------------ #
    def _cache_key(self, spec: SourceSpec, snippet: bool) -> tuple:
        return (
            spec.source,
            tuple(sorted((str(k), int(v)) for k, v in spec.sizes.items())),
            int(spec.num_teams),
            int(spec.num_threads),
            self.config.graph.variant.value,
            bool(snippet),
        )

    def encode_source(self, source, sizes=None, num_teams: int = 1,
                      num_threads: int = 1, snippet: bool = False) -> EncodedGraph:
        """Parse/build/encode one source, going through the LRU cache."""
        spec = SourceSpec.of(source, sizes=sizes, num_teams=num_teams,
                             num_threads=num_threads)
        return self._encode_specs([spec], snippet=snippet)[0]

    def _encode_specs(self, specs: Sequence[SourceSpec],
                      snippet: bool = False) -> List[EncodedGraph]:
        """Encode *specs* in two stages: structure once per distinct text,
        ``Child``-edge weights and aux features once per context.

        Cache misses are deduplicated by cache key, then grouped by source
        text.  Parse → graph → encode runs once per text, on the text's
        first spec; every other spec of that text is re-weighted from the
        same analyzed AST and shares its structure arrays, which are made
        read-only (cached graphs are shared across requests anyway).
        """
        encoded: List[Optional[EncodedGraph]] = [None] * len(specs)
        misses: "OrderedDict[tuple, List[int]]" = OrderedDict()
        miss_specs: Dict[tuple, SourceSpec] = {}
        for index, spec in enumerate(specs):
            key = self._cache_key(spec, snippet)
            hit = self._cache.get(key)
            if hit is not None:
                encoded[index] = hit
            else:
                misses.setdefault(key, []).append(index)
                miss_specs.setdefault(key, spec)
        if not misses:
            return encoded  # type: ignore[return-value]
        texts: "OrderedDict[str, List[tuple]]" = OrderedDict()
        for key in misses:
            texts.setdefault(miss_specs[key].source, []).append(key)
        graph_stage = GraphStage(self.config.graph)
        context = Pipeline([
            ParseStage(snippet=snippet),
            graph_stage,
            EncodeStage(self.encoder),
        ]).run(specs=[miss_specs[keys[0]] for keys in texts.values()])
        for keys, ast, structure in zip(texts.values(), context["asts"],
                                        context["encoded"]):
            for array in (structure.node_features, structure.edge_index,
                          structure.edge_type):
                array.flags.writeable = False
            for position, key in enumerate(keys):
                spec = miss_specs[key]
                graph = structure if position == 0 else self.encoder.reweight(
                    structure, graph_stage.child_weights(ast, spec),
                    num_teams=spec.num_teams, num_threads=spec.num_threads,
                    name=spec.name)
                self._cache.put(key, graph)
                for index in misses[key]:
                    encoded[index] = graph
        return encoded  # type: ignore[return-value]

    def server(self) -> Server:
        """The embedded :class:`repro.serve.Server` the facade serves through.

        Created lazily (once) from ``serve_config``; it starts no threads
        and executes on its callers' threads.  For a standalone runtime
        with its own knobs, construct
        ``repro.serve.Server(session, ServerConfig(...))`` directly; any
        number of servers can share one session.
        """
        with self._server_lock:
            if self._server is None:
                self._server = Server(
                    self, self._serve_config or ServerConfig.from_env())
            return self._server

    def predict_batch(self, sources: Sequence, platform, *,
                      sizes=None, num_teams: int = 64, num_threads: int = 64,
                      snippet: bool = False) -> np.ndarray:
        """Predict runtimes (µs) for a batch of sources on one platform.

        ``sources`` may mix raw C strings, :class:`SourceSpec` objects and
        kernel variants (anything with a ``.source``).  Shared ``sizes`` /
        ``num_teams`` / ``num_threads`` apply to entries that don't carry
        their own.  Graph construction is cached per session, so repeated
        sources only pay for one batched GNN forward pass.

        The GNN forward runs on the inference fast path: vectorized
        relational kernels over a cached edge layout, no autodiff graph
        (``repro.nn.no_grad``) and float64 arithmetic, bit-identical to
        training-time evaluation.  Empty batches return an empty float64
        array.

        Thread-safe: this is a thin client of the embedded
        :class:`repro.serve.Server` (see :meth:`server`), the engine's
        no-grad flag is context-local, and every shared cache is
        lock-protected — concurrent callers need no external lock.  The
        request list executes as one job with its composition preserved,
        so for a fixed list the results are bit-reproducible regardless of
        concurrent traffic.
        """
        specs = [SourceSpec.of(source, sizes=sizes, num_teams=num_teams,
                               num_threads=num_threads) for source in sources]
        return self.server().predict_specs(specs, platform, snippet=snippet)

    def predict(self, source, platform, *, sizes=None, num_teams: int = 64,
                num_threads: int = 64, snippet: bool = False) -> float:
        """Predict the runtime (µs) of a single source on one platform."""
        return float(self.predict_batch(
            [source], platform, sizes=sizes, num_teams=num_teams,
            num_threads=num_threads, snippet=snippet)[0])

    # ------------------------------------------------------------------ #
    # persistence (repro.store)
    # ------------------------------------------------------------------ #
    def save(self, path, *, name: str = "session", overwrite: bool = False) -> str:
        """Persist the trained model set as a ``repro.store`` artifact.

        Trains first if needed, then writes ``manifest.json`` (config,
        vocabulary, encoder settings, scaler state, provenance) plus one
        ``.npz`` state dict per platform under *path*.  A session loaded
        back with :meth:`Session.load` serves predictions bit-identical to
        this one.  See ``STORE.md``.
        """
        from ..store.artifact import save_session
        return save_session(self, path, name=name, overwrite=overwrite)

    @classmethod
    def load(cls, path, *, serve_config: Optional[ServerConfig] = None,
             graph_cache_size: int = 256, verify: bool = True) -> "Session":
        """Warm-start a session from an artifact — zero retraining.

        The returned session's :meth:`train` is a no-op returning the
        restored per-platform results, and :meth:`predict_batch` goes
        straight to the serving path: its predictions are bit-identical to
        the session that produced the artifact.
        ``verify=True`` (default) enforces payload checksums; corrupt or
        version-mismatched artifacts raise ``repro.store`` errors naming
        the offending field.  Subclasses reconstruct as themselves (their
        ``__init__`` must keep this signature).
        """
        from ..store.artifact import load_session
        return load_session(path, serve_config=serve_config,
                            graph_cache_size=graph_cache_size, verify=verify,
                            session_cls=cls)

    def _install_restored_results(self, results: Dict[str, PlatformResult],
                                  provenance: dict) -> None:
        """Adopt artifact-restored platform results (``repro.store`` only)."""
        with self._train_lock:
            if self._platform_results is not None:
                raise RuntimeError(
                    "cannot install restored models into a session that "
                    "already trained")
            self._platform_results = dict(results)
            self._provenance = dict(provenance)

    @property
    def warm_started(self) -> bool:
        """True when the model set came from an artifact, not training."""
        return self._provenance is not None

    @property
    def provenance(self) -> Optional[dict]:
        """Artifact provenance of a warm-started session (else ``None``)."""
        return None if self._provenance is None else dict(self._provenance)

    # ------------------------------------------------------------------ #
    def cache_info(self) -> CacheInfo:
        """One coherent snapshot of the graph-construction cache counters."""
        return self._cache.info()

    def clear_cache(self, reset_stats: bool = False) -> None:
        """Drop every cached encoded graph; ``reset_stats=True`` also zeroes
        the hit/miss counters (they are kept by default)."""
        self._cache.clear(reset_stats=reset_stats)

    def reset_cache_stats(self) -> None:
        """Zero the cache hit/miss counters without dropping cached graphs."""
        self._cache.reset_stats()

    def close(self) -> None:
        """Close the embedded server, if one was created: it stops
        admitting work and the next :meth:`server` call makes a fresh one."""
        with self._server_lock:
            if self._server is not None:
                self._server.close()
                self._server = None
