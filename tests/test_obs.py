"""repro.obs suite: metrics registry, tracing, profiling and snapshots.

Covers the sketch's accuracy contract, the instrument/registry semantics,
the fault_point-style ambient fast paths, span-tree export fixpoints, the
``stats()``/``healthz()`` backward-compat regression (the counters now
live in the obs registry), the four-cache ``CacheStats`` surface, the
unified snapshot document and the ``python -m repro.obs`` CLI.
"""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    CacheStats,
    MetricsRegistry,
    QuantileSketch,
    Span,
    Trace,
    TraceError,
    active_metrics,
    add_count,
    collect_cache_stats,
    metrics_scope,
    observe,
    set_gauge,
    snapshot,
    span,
    trace_requests,
    tracing_active,
    validate_snapshot,
)
from repro.obs.cli import main as obs_main
from repro.obs.profile import stage_scope, working_set_bytes
from repro.serve import Server, ServerConfig
from repro.synth.harness import tiny_serving_stack


@pytest.fixture(scope="module")
def stack():
    return tiny_serving_stack(seed=5)


# --------------------------------------------------------------------- #
# quantile sketch
# --------------------------------------------------------------------- #
class TestQuantileSketch:
    def test_tracks_count_sum_min_max_exactly(self):
        sketch = QuantileSketch()
        values = [0.5, 2.0, 8.0, 0.25]
        for value in values:
            sketch.observe(value)
        assert sketch.count == 4
        assert sketch.sum == pytest.approx(sum(values))
        assert sketch.min == 0.25
        assert sketch.max == 8.0

    def test_small_sample_percentiles_hit_the_right_sample(self):
        sketch = QuantileSketch(relative_accuracy=0.01)
        for value in (0.001, 0.004, 1.0):
            sketch.observe(value)
        # ceil-rank: p95/p99 of three samples is the third, p50 the second
        assert sketch.quantile(0.95) == pytest.approx(1.0, rel=0.03)
        assert sketch.quantile(0.99) == pytest.approx(1.0, rel=0.03)
        assert sketch.quantile(0.50) == pytest.approx(0.004, rel=0.03)
        assert sketch.quantile(0.0) == pytest.approx(0.001, rel=0.03)
        assert sketch.quantile(1.0) == pytest.approx(1.0, rel=0.03)

    def test_bounded_relative_error_vs_exact_percentiles(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-3.0, sigma=1.2, size=5000)
        accuracy = 0.01
        sketch = QuantileSketch(relative_accuracy=accuracy)
        for value in samples:
            sketch.observe(float(value))
        for q in (0.10, 0.50, 0.90, 0.95, 0.99):
            exact = float(np.percentile(samples, q * 100.0,
                                        method="higher"))
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= 2.0 * accuracy * exact, (
                f"q={q}: sketch {estimate} vs exact {exact}")

    def test_zero_and_tiny_values_share_the_zero_bucket(self):
        sketch = QuantileSketch()
        for _ in range(10):
            sketch.observe(0.0)
        sketch.observe(5.0)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == 5.0

    def test_rejects_negative_and_nan(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.observe(-1.0)
        with pytest.raises(ValueError):
            sketch.observe(float("nan"))

    def test_empty_sketch_reports_nan_and_none(self):
        sketch = QuantileSketch()
        assert math.isnan(sketch.quantile(0.5))
        dump = sketch.to_dict()
        assert dump["count"] == 0 and dump["p99"] is None


# --------------------------------------------------------------------- #
# instruments + registry
# --------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc(3)
        assert registry.counter("a.b") is counter
        assert registry.counter("a.b").value == 3

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_set_add_and_running_max(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.0)
        gauge.add(1.5)
        assert gauge.value == 5.5
        gauge.set_max(3.0)           # lower: ignored
        assert gauge.value == 5.5
        gauge.set_max(9.0)
        assert gauge.value == 9.0

    def test_to_dict_sections(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(0.5)
        dump = registry.to_dict()
        assert dump["counters"] == {"c": 1}
        assert dump["gauges"] == {"g": 2.0}
        assert dump["histograms"]["h"]["count"] == 1
        assert registry.names() == ["c", "g", "h"]
        assert "c" in registry and "nope" not in registry


class TestAmbientScope:
    def test_helpers_are_noops_without_a_scope(self):
        assert active_metrics() is None
        observe("noop.h", 1.0)
        add_count("noop.c")
        set_gauge("noop.g", 2.0)
        assert active_metrics() is None

    def test_scope_records_and_clears(self):
        with metrics_scope() as registry:
            assert active_metrics() is registry
            add_count("s.c", 2)
            observe("s.h", 0.25)
            set_gauge("s.g", 7.0)
        assert active_metrics() is None
        assert registry.counter("s.c").value == 2
        assert registry.histogram("s.h").count == 1
        assert registry.gauge("s.g").value == 7.0

    def test_scopes_do_not_nest(self):
        with metrics_scope():
            with pytest.raises(RuntimeError, match="do not nest"):
                with metrics_scope():
                    pass


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
class TestTracing:
    def test_span_is_a_shared_noop_when_disabled(self):
        assert not tracing_active()
        assert span("a") is span("b")    # the single shared null context

    def test_span_tree_structure_and_mini_traces(self):
        with trace_requests() as collector:
            with span("outer", kind="test") as outer:
                with span("inner"):
                    pass
            assert outer.children[0].name == "inner"
        traces = collector.traces()
        assert len(traces) == 1          # parentless span rooted a trace
        assert traces[0].root is outer
        assert traces[0].root.status == "ok"

    def test_span_records_errors(self):
        with trace_requests() as collector:
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("boom")
        trace = collector.traces()[0]
        assert trace.root.status == "error"
        assert "RuntimeError: boom" in trace.root.error
        trace.validate()
        assert "!!" in trace.render() and "✗" in trace.render()

    def test_tracing_scopes_do_not_nest(self):
        with trace_requests():
            with pytest.raises(RuntimeError, match="do not nest"):
                with trace_requests():
                    pass

    def test_json_round_trip_is_a_fixpoint(self):
        root = Span("serve.request", {"kind": "single"})
        child = root.child("serve.submit")
        child.finish()
        root.finish()
        trace = Trace("t000042", root)
        trace._delivered = True
        payload = trace.to_json()
        restored = Trace.from_json(payload)
        assert restored.to_json() == payload
        restored.validate()
        assert restored.root.find("serve.submit") is not None

    def test_validate_rejects_unfinished_and_leaking_spans(self):
        root = Span("root")
        root.child("dangling")           # never finished
        root.finish()
        with pytest.raises(TraceError, match="not finished"):
            root.validate()
        parent = Span("parent", start_s=10.0)
        parent.finish(end_s=11.0)
        leaker = parent.child("leaker", start_s=20.0)
        leaker.finish(end_s=30.0)
        with pytest.raises(TraceError, match="leaks outside"):
            parent.validate()

    def test_from_json_rejects_bad_schema(self):
        with pytest.raises(TraceError, match="schema_version"):
            Trace.from_dict({"schema_version": 999, "trace_id": "x",
                             "root": {}})
        with pytest.raises(TraceError):
            Trace.from_json("not json {")


# --------------------------------------------------------------------- #
# profiling hooks
# --------------------------------------------------------------------- #
class TestProfile:
    def test_working_set_bytes_counts_arrays_and_containers(self):
        array = np.zeros((10, 10), dtype=np.float64)
        assert working_set_bytes(array) >= array.nbytes
        assert working_set_bytes([array, array]) >= 2 * array.nbytes
        assert working_set_bytes("abcd") >= 4
        assert working_set_bytes(None) == 0

    def test_stage_scope_is_a_shared_noop_when_disabled(self):
        class FakeStage:
            name = "FakeStage"
            provides = ()

        assert stage_scope(FakeStage(), {}) is stage_scope(FakeStage(), {})

    def test_pipeline_records_stage_metrics(self, stack):
        session, platform, sources = stack
        with metrics_scope() as registry:
            session.clear_cache()
            session.predict_batch(sources[:1], platform)
        wall = [name for name in registry.names()
                if name.startswith("stage.") and name.endswith(".wall_s")]
        assert wall, "no per-stage wall-time histograms were recorded"
        for name in wall:
            assert registry.histogram(name).count >= 1


# --------------------------------------------------------------------- #
# stats()/healthz() backward compatibility (satellite: re-routed counters)
# --------------------------------------------------------------------- #
class TestStatsCompat:
    STATS_FIELDS = (
        "singles_submitted", "jobs_submitted",
        "batches_executed", "requests_executed", "max_coalesced",
        "coalesced_total", "peak_depth", "warm_started", "shed",
        "deadline_expired", "failures", "retries", "breaker_rejections",
        "breakers_open", "queue_depth")
    HEALTHZ_FIELDS = (
        "status", "queue_depth", "requests_executed",
        "failures", "error_rate", "retries", "shed", "deadline_expired",
        "breaker_rejections", "breakers", "retry_budget_tokens",
        "warm_started")

    def test_inline_stats_shape_and_values(self, stack):
        session, platform, sources = stack
        server = Server(session, ServerConfig())
        try:
            for source in sources:
                server.submit(source, platform).result(timeout=30.0)
            stats = server.stats()
        finally:
            server.close()
        # the dict shape is the pre-obs one, bit for bit
        assert tuple(stats._asdict()) == self.STATS_FIELDS
        assert stats.requests_executed == len(sources)
        assert stats.failures == 0 and stats.retries == 0
        assert stats.shed == 0 and stats.breaker_rejections == 0
        assert stats.queue_depth == 0
        assert all(isinstance(value, (int, bool))
                   for value in stats._asdict().values())

    def test_stats_and_healthz_shape_after_mixed_traffic(self, stack):
        session, platform, sources = stack
        server = Server(session, ServerConfig(max_batch_size=4))
        try:
            futures = [server.submit(source, platform) for source in sources]
            for future in futures:
                future.result(timeout=30.0)
            server.predict_batch(sources, platform)
            stats = server.stats()
            health = server.healthz()
        finally:
            server.close()
        assert tuple(stats._asdict()) == self.STATS_FIELDS
        assert stats.singles_submitted == len(sources)
        assert stats.jobs_submitted == 1
        assert stats.requests_executed == 2 * len(sources)
        assert tuple(health) == self.HEALTHZ_FIELDS
        assert health["status"] == "ok"
        assert health["failures"] == 0

    def test_counters_live_in_the_obs_registry(self, stack):
        session, platform, sources = stack
        server = Server(session, ServerConfig())
        try:
            server.submit(sources[0], platform).result(timeout=30.0)
            assert server.metrics.counter(
                "serve.requests_executed").value == 1
            assert server.metrics.histogram(
                "serve.request_latency_s").count == 1
        finally:
            server.close()


# --------------------------------------------------------------------- #
# cache statistics (satellite: the four LRUs through one interface)
# --------------------------------------------------------------------- #
class TestCacheStats:
    def test_hit_rate_and_dict_shape(self):
        stats = CacheStats("x", hits=3, misses=1, evictions=2, size=4,
                           capacity=8)
        assert stats.hit_rate == 0.75
        assert CacheStats("y", 0, 0, 0, 0, 8).hit_rate == 0.0
        assert set(stats.to_dict()) == {"hits", "misses", "evictions",
                                        "size", "capacity", "hit_rate"}

    def test_collect_covers_all_four_caches(self, stack):
        session, platform, sources = stack
        session.predict_batch(sources, platform)
        stats = collect_cache_stats(session)
        names = [entry.name for entry in stats]
        assert names == ["edge-layout", "packed-layout", "scatter-matrix",
                         "session-graphs"]
        assert all(isinstance(entry, CacheStats) for entry in stats)

    def test_edge_layout_cache_counts_evictions(self):
        from repro.gnn.edge_layout import EdgeLayoutCache

        cache = EdgeLayoutCache(capacity=1)
        ei_a = np.array([[0, 1], [1, 0]], dtype=np.int64)
        ei_b = np.array([[0, 2], [2, 0]], dtype=np.int64)
        cache.get(ei_a, None, 3, 2)
        cache.get(ei_b, None, 3, 2)     # evicts the first layout
        info = cache.info()
        assert info.evictions == 1
        assert info.size == 1

    def test_session_cache_counts_evictions(self):
        from repro.api.session import _GraphCache

        cache = _GraphCache(capacity=1)
        cache.put(("a",), object())
        cache.put(("b",), object())     # evicts ("a",)
        assert cache.get(("a",)) is None
        info = cache.info()
        assert info.evictions == 1 and info.size == 1
        cache.clear(reset_stats=True)
        assert cache.info().evictions == 0

    def test_scatter_matrix_cache_reports_stats(self):
        from repro.nn.tensor import scatter_matrix_cache_info

        info = scatter_matrix_cache_info()
        assert info.hits >= 0 and info.misses >= 0 and info.evictions >= 0


# --------------------------------------------------------------------- #
# the unified snapshot + the traced request tree (acceptance)
# --------------------------------------------------------------------- #
class TestSnapshot:
    def test_server_snapshot_validates_and_covers_the_surface(self, stack):
        session, platform, sources = stack
        server = Server(session, ServerConfig(max_batch_size=4))
        try:
            with metrics_scope(), trace_requests():
                for source in sources:
                    server.submit(source, platform).result(timeout=30.0)
                document = server.snapshot()
        finally:
            server.close()
        validate_snapshot(document)
        assert set(document["caches"]) == {"edge-layout", "packed-layout",
                                           "scatter-matrix",
                                           "session-graphs"}
        latency = document["server"]["latency"]
        assert latency["count"] == len(sources)
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert document["process"]["tracing"]["active"] is True
        assert document["process"]["faults"] == {"active": False}
        counters = document["server"]["metrics"]["counters"]
        assert counters["serve.singles_submitted"] == len(sources)

    def test_snapshot_without_a_server_still_works(self):
        document = snapshot()
        validate_snapshot(document)
        assert document["server"] is None
        assert document["process"]["metrics"] is None

    def test_validate_rejects_malformed_documents(self):
        from repro.obs import SnapshotError

        good = snapshot()
        bad = dict(good, schema_version=999)
        with pytest.raises(SnapshotError, match="schema_version"):
            validate_snapshot(bad)
        broken = json.loads(json.dumps(good))
        broken["caches"]["edge-layout"]["hits"] = -3
        with pytest.raises(SnapshotError, match="hits"):
            validate_snapshot(broken)

    def test_traced_request_covers_submit_to_respond(self, stack):
        session, platform, sources = stack
        server = Server(session, ServerConfig(max_batch_size=2))
        try:
            with trace_requests() as collector:
                server.submit(sources[0], platform).result(timeout=30.0)
        finally:
            server.close()
        traces = collector.traces()
        assert len(traces) == 1
        trace = traces[0]
        assert trace.root.name == "serve.request"
        trace.validate()
        # a lone request executes directly under its own root: nothing
        # queued it, and it shared no forward
        assert trace.root.find("serve.queue") is None
        assert trace.root.find("serve.execute") is None
        for name in ("serve.submit", "serve.encode", "engine.pack",
                     "engine.forward"):
            assert trace.root.find(name) is not None, (
                f"span {name!r} missing from:\n{trace.render()}")

    def test_coalesced_requests_share_one_execute_span(self, stack):
        from _coalesce import coalesce

        session, platform, sources = stack
        server = Server(session, ServerConfig(max_batch_size=4))
        try:
            with trace_requests() as collector:
                futures = coalesce(server, platform, sources[0], sources[1:3])
                for future in futures:
                    future.result(timeout=30.0)
        finally:
            server.close()
        traces = collector.traces()
        assert len(traces) == 3
        coalesced = [trace for trace in traces
                     if trace.root.find("serve.queue") is not None]
        assert len(coalesced) == 2, "the two followers never coalesced"
        shared = {id(trace.root.find("serve.execute")) for trace in coalesced}
        assert len(shared) == 1, "coalesced requests ran separate forwards"
        for trace in coalesced:
            trace.validate()
            execute = trace.root.find("serve.execute")
            assert execute.attributes["batch_size"] == 2
            assert execute.find("engine.forward") is not None


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_snapshot_command_emits_valid_json(self, capsys):
        code = obs_main(["snapshot", "--requests", "2", "--indent", "0"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        validate_snapshot(document)
        assert document["server"]["health"]["status"] in ("ok", "degraded")

    def test_trace_command_renders_a_tree(self, capsys):
        code = obs_main(["trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve.request" in out and "engine.forward" in out

    def test_missing_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            obs_main([])
        assert excinfo.value.code == 2
