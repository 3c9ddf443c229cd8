"""Concurrency tests for the ``repro.serve`` runtime and the Session facade.

The acceptance property of the re-entrant engine refactor: N threads
hammering ``predict_batch`` on one shared :class:`repro.serve.Server` —
with **no external lock** — produce float64 predictions bit-identical to
the single-threaded reference.  Plus the micro-batching behaviour (single
submits coalesce, poisoned requests don't fail their batch neighbours),
the lifecycle (drain/close), and the satellite fixes: empty-batch dtype
and cache ``reset_stats``.
"""

import threading

import numpy as np
import pytest

from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.ml.trainer import TrainingConfig
from repro.pipeline import SweepConfig
from repro.serve import Server, ServerConfig
from repro.synth import build_corpus

PLATFORM = "v100"


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
def session():
    session = Session(tiny_config())
    session.train()
    return session


@pytest.fixture(scope="module")
def requests():
    return build_corpus(12, seed=31).sources()


@pytest.fixture(scope="module")
def reference(session, requests):
    """Single-threaded references, computed before any worker pool exists."""
    return session.predict_batch(requests, PLATFORM)


class TestConcurrentPredictBatch:
    def test_threads_match_single_thread_reference_bit_for_bit(
            self, session, requests, reference):
        """≥4 worker threads, ≥6 client threads, no lock."""
        errors = []
        config = ServerConfig(num_workers=4, max_batch_size=8,
                              batch_window_s=0.001)
        with Server(session, config) as server:
            def hammer(index: int) -> None:
                try:
                    for _ in range(3):
                        got = server.predict_batch(requests, PLATFORM)
                        if not np.array_equal(got, reference):
                            errors.append(
                                f"thread {index}: max diff "
                                f"{np.abs(got - reference).max():g}")
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(f"thread {index}: {type(error).__name__}: {error}")

            threads = [threading.Thread(target=hammer, args=(index,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors[0]

    def test_facade_and_standalone_server_agree_bitwise(
            self, session, requests, reference):
        with Server(session, ServerConfig(num_workers=2)) as server:
            np.testing.assert_array_equal(
                server.predict_batch(requests, PLATFORM),
                reference)

    def test_single_worker_matches_too(self, session, requests, reference):
        with Server(session, ServerConfig(num_workers=1)) as server:
            np.testing.assert_array_equal(
                server.predict_batch(requests, PLATFORM),
                reference)


class TestMicroBatching:
    def test_submitted_singles_coalesce(self, session, requests, reference):
        config = ServerConfig(num_workers=1, max_batch_size=16,
                              batch_window_s=0.05)
        with Server(session, config) as server:
            futures = [server.submit(spec, PLATFORM)
                       for spec in requests]
            values = np.array([future.result() for future in futures])
            stats = server.stats()
        # the packed forward keeps every BLAS call at solo shapes, so a
        # coalesced single is bit-identical to its solo run — whatever
        # micro-batch composition the scheduler happened to form
        np.testing.assert_array_equal(values, reference)
        assert stats.singles_submitted == len(requests)
        assert stats.max_coalesced >= 2, "no micro-batch was ever formed"
        assert stats.batches_executed < stats.singles_submitted

    def test_predict_routes_through_queue(self, session, requests, reference):
        with Server(session, ServerConfig(num_workers=2)) as server:
            value = server.predict(requests[0], PLATFORM)
        np.testing.assert_allclose(value, reference[0],
                                   rtol=1e-9, atol=1e-9)

    def test_poisoned_request_does_not_fail_batch_neighbours(
            self, session, requests):
        config = ServerConfig(num_workers=1, max_batch_size=8,
                              batch_window_s=0.05)
        with Server(session, config) as server:
            good = [server.submit(spec, PLATFORM) for spec in requests[:3]]
            bad = server.submit("this is } not C {", PLATFORM)
            for future in good:
                assert np.isfinite(future.result(timeout=30))
            with pytest.raises(Exception):
                bad.result(timeout=30)


class TestBatcherPolicy:
    """Queue-level scheduling properties (no model needed)."""

    def test_overdue_singles_are_not_starved_by_job_traffic(self):
        from repro.serve import MicroBatcher, ShardKey

        batcher = MicroBatcher(max_batch_size=4, batch_window_s=0.0)
        key = ShardKey("platform", False)
        batcher.enqueue_single(key, "single")
        for _ in range(3):
            batcher.enqueue_job(key, ["job"])
        # the single's window (0 ms) has expired: it must be scheduled ahead
        # of the standing job backlog, not starved behind it
        item = batcher.next_batch()
        assert item.kind == "singles"
        batcher.task_done()
        assert batcher.next_batch().kind == "job"
        batcher.task_done()

    def test_fresh_singles_wait_their_window_behind_jobs(self):
        from repro.serve import MicroBatcher, ShardKey

        batcher = MicroBatcher(max_batch_size=4, batch_window_s=60.0)
        key = ShardKey("platform", False)
        batcher.enqueue_single(key, "single")
        batcher.enqueue_job(key, ["job"])
        item = batcher.next_batch()      # job runs while the single coalesces
        assert item.kind == "job"
        batcher.task_done()

    def test_job_scheduling_rotates_across_shards(self):
        from repro.serve import MicroBatcher, ShardKey

        batcher = MicroBatcher(max_batch_size=4, batch_window_s=60.0)
        first = ShardKey("first", False)
        second = ShardKey("second", False)
        batcher.enqueue_job(first, ["f1"])
        batcher.enqueue_job(first, ["f2"])
        batcher.enqueue_job(second, ["s1"])
        served = []
        for _ in range(3):
            item = batcher.next_batch()
            served.append(item.key.platform)
            batcher.task_done()
        # the second shard's job must not be starved behind the backlog of
        # the first-created shard
        assert served.index("second") < 2, served


class TestLifecycle:
    def test_drain_then_stats_account_everything(self, session, requests):
        config = ServerConfig(num_workers=2, max_batch_size=4,
                              batch_window_s=0.01)
        with Server(session, config) as server:
            futures = [server.submit(spec, PLATFORM) for spec in requests]
            assert server.drain(timeout=60)
            stats = server.stats()
            assert stats.requests_executed >= len(requests)
            for future in futures:
                assert future.done()

    def test_close_finishes_queue_and_rejects_new_work(self, session, requests):
        server = Server(session, ServerConfig(num_workers=1,
                                              batch_window_s=0.05))
        futures = [server.submit(spec, PLATFORM) for spec in requests[:4]]
        server.close()
        for future in futures:    # queued futures are honored, never dropped
            assert np.isfinite(future.result(timeout=30))
        with pytest.raises(RuntimeError, match="shut down"):
            server.predict_batch(requests, PLATFORM)
        server.close()            # idempotent

    def test_abandoned_server_is_garbage_collected(self, session, requests):
        import gc
        import weakref

        server = Server(session, ServerConfig(num_workers=2))
        server.predict_batch(requests[:2], PLATFORM)
        workers = list(server._workers)
        ref = weakref.ref(server)
        del server                 # dropped without close(): workers hold no
        gc.collect()               # strong ref, the finalizer stops the queue
        assert ref() is None
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()

    def test_inline_server_close_rejects_new_work_too(self, session, requests):
        server = Server(session, ServerConfig())       # num_workers=0, inline
        assert server.predict_batch(requests[:2], PLATFORM).shape == (2,)
        server.close()
        with pytest.raises(RuntimeError, match="shut down"):
            server.predict_batch(requests[:2], PLATFORM)
        with pytest.raises(RuntimeError, match="shut down"):
            server.submit(requests[0], PLATFORM)


class TestTypedShutdownErrors:
    """Post-close use raises ServerClosedError (a RuntimeError subclass, so
    the historical ``pytest.raises(RuntimeError, match="shut down")`` tests
    above keep passing unchanged)."""

    def test_pooled_server_raises_typed_error_after_close(
            self, session, requests):
        from repro.serve import ServerClosedError

        server = Server(session, ServerConfig(num_workers=1))
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(requests[0], PLATFORM)
        with pytest.raises(ServerClosedError):
            server.predict(requests[0], PLATFORM)
        with pytest.raises(ServerClosedError):
            server.predict_batch(requests[:2], PLATFORM)

    def test_inline_server_raises_typed_error_after_close(
            self, session, requests):
        from repro.serve import ServerClosedError

        server = Server(session, ServerConfig())       # num_workers=0
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(requests[0], PLATFORM)
        with pytest.raises(ServerClosedError):
            server.predict_batch(requests[:2], PLATFORM)

    def test_drain_after_close_is_well_defined(self, session, requests):
        server = Server(session, ServerConfig(num_workers=1))
        server.predict(requests[0], PLATFORM)
        server.close()
        assert server.drain(timeout=1.0) is True    # nothing left to drain
        inline = Server(session, ServerConfig())
        inline.close()
        assert inline.drain(timeout=1.0) is True


class TestWedgedWorkerTimeouts:
    """wait_idle/drain must return False promptly when work is stuck —
    a wedged worker translates into a bounded False, not a caller hang."""

    def test_wait_idle_returns_false_in_bounded_time(self):
        import time

        from repro.serve import MicroBatcher, ShardKey

        batcher = MicroBatcher(max_batch_size=4, batch_window_s=0.0)
        key = ShardKey("platform", False)
        batcher.enqueue_single(key, "stuck")
        item = batcher.next_batch()        # a "worker" takes the item ...
        assert item is not None            # ... and never calls task_done()
        start = time.monotonic()
        assert batcher.wait_idle(timeout=0.2) is False
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"wait_idle overshot its timeout: {elapsed:.2f}s"
        assert batcher.wait_idle(timeout=0) is False   # poll form
        batcher.task_done()
        assert batcher.wait_idle(timeout=1.0) is True

    def test_drain_timeout_with_wedged_worker(self, session, requests):
        import time

        from repro.reliability import FaultPlan, FaultSpec, inject_faults
        from repro.reliability.faults import SITE_WORKER

        plan = FaultPlan(41, [FaultSpec(SITE_WORKER, "delay", 1.0,
                                        delay_s=1.0)])
        config = ServerConfig(num_workers=1, max_batch_size=1,
                              batch_window_s=0.0)
        with inject_faults(plan):
            with Server(session, config) as server:
                future = server.submit(requests[0], PLATFORM)
                start = time.monotonic()
                assert server.drain(timeout=0.1) is False
                assert time.monotonic() - start < 0.9
                assert np.isfinite(future.result(timeout=30))


class TestPoisonedBatchRetryPath:
    """The poisoned-batch splitter re-runs singles through the retry layer:
    neighbours still succeed, the poisoned request surfaces its *original*
    exception, and deterministic failures are not retried."""

    def test_neighbours_succeed_and_original_error_surfaces(
            self, session, requests, reference):
        from repro.clang.parser import ParseError

        config = ServerConfig(num_workers=1, max_batch_size=8,
                              batch_window_s=0.05)
        with Server(session, config) as server:
            good = [server.submit(spec, PLATFORM)
                    for spec in requests[:3]]
            bad = server.submit("this is } not C {", PLATFORM)
            # coalesced singles match to BLAS rounding (bit-identity is the
            # predict_batch job contract, not the coalescing one)
            for index, future in enumerate(good):
                np.testing.assert_allclose(future.result(timeout=30),
                                           reference[index],
                                           rtol=1e-12)
            with pytest.raises(ParseError):
                bad.result(timeout=30)
            stats = server.stats()
            assert stats.failures == 1
            assert stats.retries == 0, \
                "a deterministic parse error must not be retried"

    def test_transient_neighbour_faults_recover_in_batch(
            self, session, requests, reference):
        from repro.reliability import FaultPlan, FaultSpec, inject_faults
        from repro.reliability.faults import SITE_FORWARD

        # the whole batch fails its first forward, gets split, and each
        # single then succeeds (possibly after its own retry)
        plan = FaultPlan(43, [FaultSpec(SITE_FORWARD, "raise", 1.0,
                                        max_fires=1)])
        config = ServerConfig(num_workers=1, max_batch_size=8,
                              batch_window_s=0.05, max_retries=2,
                              retry_backoff_s=0.0)
        with inject_faults(plan):
            with Server(session, config) as server:
                futures = [server.submit(spec, PLATFORM)
                           for spec in requests[:3]]
                for index, future in enumerate(futures):
                    np.testing.assert_allclose(future.result(timeout=30),
                                               reference[index],
                                               rtol=1e-12)
                assert server.stats().retries >= 1
                assert server.stats().failures == 0


class TestPackedForward:
    """The packed block-diagonal serving path (ServerConfig.packed_forward)."""

    def test_packed_batch_matches_per_graph_loop_bit_for_bit(
            self, session, requests):
        legacy = Server(session, ServerConfig(packed_forward=False))
        packed = Server(session, ServerConfig())        # packed is the default
        per_graph = np.concatenate(
            [legacy.predict_batch([spec], PLATFORM)
             for spec in requests])
        np.testing.assert_array_equal(
            packed.predict_batch(requests, PLATFORM), per_graph,
            err_msg="packed forward diverged from the per-graph loop")

    def test_packed_forward_can_be_disabled(self, session, requests, reference):
        with Server(session, ServerConfig(num_workers=1,
                                          packed_forward=False)) as server:
            got = server.predict_batch(requests, PLATFORM)
        # the legacy collated loop matches only to BLAS rounding: batch
        # composition changes the GEMM shapes there
        np.testing.assert_allclose(got, reference, rtol=1e-9)

    def test_packed_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PACKED", "0")
        assert ServerConfig.from_env().packed_forward is False
        monkeypatch.setenv("REPRO_SERVE_PACKED", "true")
        assert ServerConfig.from_env().packed_forward is True


class TestServerConfigFromEnv:
    """Satellite: malformed REPRO_SERVE_* values raise a ValueError naming
    the offending variable, never a bare parse traceback."""

    VALID = [
        ("REPRO_SERVE_WORKERS", "3", "num_workers", 3),
        ("REPRO_SERVE_MAX_BATCH", "16", "max_batch_size", 16),
        ("REPRO_SERVE_WINDOW_MS", "5", "batch_window_s", 0.005),
        ("REPRO_SERVE_DEADLINE_MS", "250", "default_deadline_s", 0.25),
        ("REPRO_SERVE_MAX_QUEUE", "9", "max_queue_depth", 9),
        ("REPRO_SERVE_MAX_RETRIES", "1", "max_retries", 1),
        ("REPRO_SERVE_BREAKER_THRESHOLD", "4", "breaker_threshold", 4),
        ("REPRO_SERVE_BREAKER_RESET_MS", "1500", "breaker_reset_s", 1.5),
        ("REPRO_SERVE_PACKED", "no", "packed_forward", False),
    ]

    MALFORMED = [
        ("REPRO_SERVE_WORKERS", "three"),
        ("REPRO_SERVE_MAX_BATCH", "4.5"),
        ("REPRO_SERVE_WINDOW_MS", "soon"),
        ("REPRO_SERVE_DEADLINE_MS", "1e"),
        ("REPRO_SERVE_MAX_QUEUE", ""),      # blank-after-strip keeps default
        ("REPRO_SERVE_MAX_RETRIES", "none"),
        ("REPRO_SERVE_BREAKER_THRESHOLD", "0x8"),
        ("REPRO_SERVE_BREAKER_RESET_MS", "5,0"),
        ("REPRO_SERVE_PACKED", "maybe"),
    ]

    @pytest.mark.parametrize("name,raw,attr,expected", VALID)
    def test_valid_values_land_on_their_knob(self, monkeypatch, name, raw,
                                             attr, expected):
        monkeypatch.setenv(name, raw)
        assert getattr(ServerConfig.from_env(), attr) == expected

    @pytest.mark.parametrize("name,raw", MALFORMED)
    def test_malformed_values_name_the_variable(self, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        if not raw.strip():
            assert ServerConfig.from_env() == ServerConfig.from_env()
            return
        with pytest.raises(ValueError, match=name) as excinfo:
            ServerConfig.from_env()
        # `raise ... from None`: the int()/float() ValueError must not leak
        # as a chained traceback — the named message is the whole story
        assert excinfo.value.__suppress_context__
        assert repr(raw) in str(excinfo.value)

    def test_blank_values_keep_defaults(self, monkeypatch):
        for name, _ in self.MALFORMED:
            monkeypatch.setenv(name, "   ")
        assert ServerConfig.from_env() == ServerConfig()


class TestExpiredRequestInPackedBatch:
    """Satellite: one already-expired request in a coalesced batch is
    dropped alone at dequeue — it must not poison or delay its neighbours."""

    def test_batcher_drops_only_the_expired_single(self):
        import time

        from repro.reliability import DeadlineExceeded
        from repro.serve import MicroBatcher, ShardKey

        batcher = MicroBatcher(max_batch_size=8, batch_window_s=0.0)
        key = ShardKey("platform", False)
        expired = batcher.enqueue_single(key, "expired",
                                         deadline=time.monotonic() - 1.0)
        live = [batcher.enqueue_single(key, f"live-{i}") for i in range(3)]
        item = batcher.next_batch()
        assert item is not None and item.kind == "singles"
        assert item.specs == ["live-0", "live-1", "live-2"]
        batcher.task_done()
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=1.0)
        assert all(not future.done() for future in live)
        assert batcher.stats().deadline_expired == 1

    def test_live_neighbours_survive_bit_for_bit(self, session, requests,
                                                 reference):
        from repro.reliability import DeadlineExceeded

        config = ServerConfig(num_workers=1, max_batch_size=8,
                              batch_window_s=0.1)
        with Server(session, config) as server:
            expired = server.submit(requests[0], PLATFORM,
                                    deadline_s=0.0)
            live = [server.submit(spec, PLATFORM)
                    for spec in requests[1:4]]
            for index, future in enumerate(live, start=1):
                np.testing.assert_array_equal(future.result(timeout=30),
                                              reference[index])
            with pytest.raises(DeadlineExceeded):
                expired.result(timeout=10.0)
            stats = server.stats()
        assert stats.deadline_expired == 1
        assert stats.failures == 0


class TestSessionFacadeSatellites:
    def test_empty_batch_is_float64(self, session):
        assert session.predict_batch([], PLATFORM).dtype == np.float64
        assert session.predict_batch([], PLATFORM).shape == (0,)
        with Server(session, ServerConfig()) as server:
            assert server.predict_batch([], PLATFORM).dtype == np.float64

    def test_cache_reset_stats_keeps_entries(self, session, requests):
        session.clear_cache()
        session.predict_batch(requests, PLATFORM)
        primed = session.cache_info()
        assert primed.misses > 0 and primed.size > 0
        session.reset_cache_stats()
        info = session.cache_info()
        assert (info.hits, info.misses) == (0, 0)
        assert info.size == primed.size            # entries survived
        session.predict_batch(requests, PLATFORM)
        after = session.cache_info()
        assert after.hits == len(requests) and after.misses == 0

    def test_clear_cache_can_also_reset_counters(self, session, requests):
        session.predict_batch(requests, PLATFORM)
        before = session.cache_info()
        assert before.hits + before.misses > 0
        session.clear_cache()                      # default keeps counters
        kept = session.cache_info()
        assert (kept.hits, kept.misses) == (before.hits, before.misses)
        assert kept.size == 0
        session.clear_cache(reset_stats=True)
        info = session.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_session_embeds_worker_pool_from_config(self, requests, reference):
        session = Session(tiny_config(),
                          serve_config=ServerConfig(num_workers=2))
        try:
            got = session.predict_batch(requests, PLATFORM)
            np.testing.assert_array_equal(got, reference)
            assert session.server().config.num_workers == 2
        finally:
            session.close()

    def test_workers_env_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
        session = Session(tiny_config())
        try:
            assert session.server().config.num_workers == 3
        finally:
            session.close()
