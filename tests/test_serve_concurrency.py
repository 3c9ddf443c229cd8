"""Concurrency tests for the ``repro.serve`` runtime and the Session facade.

The acceptance property of the re-entrant engine refactor: N threads
hammering ``predict_batch`` on one shared :class:`repro.serve.Server` —
with **no external lock** — produce float64 predictions bit-identical to
the single-threaded reference.  Plus the leader-combining behaviour
(concurrent singles coalesce, poisoned requests don't fail their batch
neighbours), the combiner's batch policy, the lifecycle (drain/close),
and the satellite fixes: empty-batch dtype and cache ``reset_stats``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from _coalesce import coalesce, wait_until
from repro.api import DataConfig, ModelConfig, ReproConfig, Session, get_kernel
from repro.ml.trainer import TrainingConfig
from repro.pipeline import SweepConfig
from repro.reliability import DeadlineExceeded
from repro.serve import Combiner, Request, Server, ServerConfig, ShardKey
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
    """Single-threaded references, computed before any concurrency."""
    return session.predict_batch(requests, PLATFORM)


class TestConcurrentPredictBatch:
    def test_threads_match_single_thread_reference_bit_for_bit(
            self, session, requests, reference):
        """6 client threads, no lock."""
        errors = []
        with Server(session, ServerConfig(max_batch_size=8)) as server:
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
        with Server(session, ServerConfig()) as server:
            np.testing.assert_array_equal(
                server.predict_batch(requests, PLATFORM),
                reference)


class TestMicroBatching:
    def test_submitted_singles_coalesce(self, session, requests, reference):
        with Server(session, ServerConfig(max_batch_size=16)) as server:
            futures = coalesce(server, PLATFORM, requests[0], requests[1:])
            values = np.array([future.result() for future in futures])
            stats = server.stats()
        # the packed forward keeps every BLAS call at solo shapes, so a
        # coalesced single is bit-identical to its solo run — whatever
        # batch composition the callers happened to form
        np.testing.assert_array_equal(values, reference)
        assert stats.singles_submitted == len(requests)
        assert stats.max_coalesced >= 2, "no batch was ever coalesced"
        assert stats.batches_executed < stats.singles_submitted

    def test_predict_routes_through_queue(self, session, requests, reference):
        with Server(session, ServerConfig()) as server:
            value = server.predict(requests[0], PLATFORM)
        np.testing.assert_array_equal(value, reference[0])

    def test_poisoned_request_does_not_fail_batch_neighbours(
            self, session, requests):
        with Server(session, ServerConfig(max_batch_size=8)) as server:
            head, *good, bad = coalesce(server, PLATFORM, requests[0],
                                        [*requests[1:4], "this is } not C {"])
            for future in [head, *good]:
                assert np.isfinite(future.result(timeout=30))
            with pytest.raises(Exception):
                bad.result(timeout=30)

    def test_stress_settles_every_single_exactly_once(
            self, session, requests, reference):
        """More callers than cores, a short switch interval: a lost update
        in the combiner shows as a hang, a wrong value or a miscount."""
        rounds, callers = 4, 6
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Server(session, ServerConfig(max_batch_size=4)) as server:
                def hammer(offset: int) -> None:
                    try:
                        for step in range(rounds * len(requests) // callers):
                            index = (offset + step) % len(requests)
                            got = server.predict(requests[index], PLATFORM)
                            if got != reference[index]:
                                errors.append(f"request {index}: {got!r}")
                    except Exception as error:  # noqa: BLE001 - below
                        errors.append(f"{type(error).__name__}: {error}")

                # daemon: a deadlocked caller must fail the test, not hang
                # the interpreter's exit
                threads = [threading.Thread(target=hammer, args=(offset,),
                                            daemon=True)
                           for offset in range(callers)]
                for thread in threads:
                    thread.start()
                end = time.monotonic() + 60
                for thread in threads:
                    thread.join(timeout=max(end - time.monotonic(), 0))
                    assert not thread.is_alive(), "a caller hung"
                stats = server.stats()
                assert server.drain(timeout=0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        total = rounds * len(requests)
        assert stats.singles_submitted == total
        assert stats.requests_executed == total
        assert stats.coalesced_total == total
        assert stats.queue_depth == 0 and stats.failures == 0


class TestCombinerPolicy:
    """Queue-level batch formation and leadership (no model needed)."""

    KEY = ShardKey("platform", False)

    def queued(self, combiner, *names, job=False, key=None, deadline=None):
        requests = [Request(key or self.KEY, [name], job, deadline)
                    for name in names]
        for request in requests:
            combiner.enqueue(request)
        return requests

    def test_job_runs_alone_and_singles_never_queue_behind_it(self):
        combiner = Combiner(max_batch_size=8)
        (first,) = self.queued(combiner, "s0")
        jobs = self.queued(combiner, "j0", "j1", job=True)
        later = self.queued(combiner, "s1", "s2")
        # singles and jobs queue in separate lanes: the singles batch skips
        # the jobs queued between them, and either lane leads while the
        # other is led
        assert combiner.turn(later[0]) == [first, *later]
        assert combiner.turn(jobs[0]) == [jobs[0]]   # alone, never merged
        combiner.release(jobs[0])
        assert combiner.turn(jobs[1]) == [jobs[1]]
        combiner.release(jobs[1])
        combiner.release(later[0])
        assert combiner.wait_idle(timeout=0)

    def test_singles_batches_keep_fifo_order_up_to_max_batch_size(self):
        combiner = Combiner(max_batch_size=2)
        singles = self.queued(combiner, "a", "b", "c", "d", "e")
        batches = []
        for request in singles[::2]:
            batches.append([r.specs[0] for r in combiner.turn(request)])
            combiner.release(request)
        assert batches == [["a", "b"], ["c", "d"], ["e"]]
        assert combiner.pending() == 0

    def test_caller_leads_only_the_batch_holding_its_request(self):
        from repro.serve.batching import RESULT_GRACE_S

        combiner = Combiner(max_batch_size=1)
        ahead, behind = self.queued(combiner, "a", "b")
        behind.deadline = time.monotonic() + 0.1
        # the lane is free, but its head batch is another caller's: the
        # caller waits for its own turn, and its deadline bounds that wait
        start = time.monotonic()
        assert combiner.turn(behind) is None
        assert 0.05 < time.monotonic() - start < 0.1 + RESULT_GRACE_S
        assert isinstance(behind.error, DeadlineExceeded)
        assert ahead.queued and not ahead.done       # never run by `behind`
        assert combiner.turn(ahead) == [ahead]
        combiner.release(ahead)

    def test_led_lane_cannot_be_led_twice_and_shards_lead_independently(
            self):
        combiner = Combiner(max_batch_size=1)
        leader, follower = self.queued(combiner, "a", "b")
        other = ShardKey("other", False)
        (elsewhere,) = self.queued(combiner, "c", key=other)
        assert combiner.turn(leader) == [leader]
        # the first lane is led: its follower waits instead of leading,
        # until its deadline withdraws it from the queue
        follower.deadline = time.monotonic() + 0.05
        assert combiner.turn(follower) is None
        assert follower.done and isinstance(follower.error, DeadlineExceeded)
        # meanwhile the other shard leads independently
        assert combiner.turn(elsewhere) == [elsewhere]
        combiner.release(elsewhere)
        combiner.release(leader)

    def test_waiting_caller_withdraws_on_deadline(self):
        combiner = Combiner(max_batch_size=1)
        (leader,) = self.queued(combiner, "a")
        (waiting,) = self.queued(combiner, "b",
                                 deadline=time.monotonic() + 0.1)
        assert combiner.turn(leader) == [leader]
        start = time.monotonic()
        assert combiner.turn(waiting) is None
        assert 0.05 < time.monotonic() - start < 0.35
        assert waiting.done and isinstance(waiting.error, DeadlineExceeded)
        assert combiner.pending() == 0
        assert combiner.metrics.counter("serve.deadline_expired").value == 1
        combiner.release(leader)

    def test_leader_drops_expired_requests_of_its_batch(self):
        combiner = Combiner(max_batch_size=8)
        leader, expired, live = self.queued(combiner, "a", "b", "c")
        expired.deadline = time.monotonic()     # its caller has not woken yet
        assert combiner.turn(leader) == [leader, live]
        assert expired.done and isinstance(expired.error, DeadlineExceeded)
        assert combiner.metrics.counter("serve.deadline_expired").value == 1
        assert combiner.metrics.counter("serve.coalesced_total").value == 2
        combiner.release(leader)

    def test_request_being_executed_is_awaited_up_to_its_grace(self):
        from repro.serve.batching import RESULT_GRACE_S

        combiner = Combiner(max_batch_size=8)
        leader, taken = self.queued(combiner, "a", "b")
        assert combiner.turn(leader) == [leader, taken]
        start = taken.deadline = time.monotonic()
        assert combiner.turn(taken) is None          # abandoned, not settled
        assert RESULT_GRACE_S <= time.monotonic() - start < 1.0
        assert not taken.done
        combiner.release(leader)

    def test_wait_idle_returns_false_in_bounded_time_while_led(self):
        combiner = Combiner(max_batch_size=4)
        (stuck,) = self.queued(combiner, "stuck")
        assert combiner.turn(stuck) == [stuck]       # led, and never released
        start = time.monotonic()
        assert combiner.wait_idle(timeout=0.2) is False
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"wait_idle overshot its timeout: {elapsed:.2f}s"
        assert combiner.wait_idle(timeout=0) is False   # poll form
        combiner.release(stuck)
        assert combiner.wait_idle(timeout=1.0) is True


class TestLifecycle:
    def test_drain_then_stats_account_everything(self, session, requests):
        with Server(session, ServerConfig(max_batch_size=4)) as server:
            futures = [server.submit(spec, PLATFORM) for spec in requests]
            assert server.drain(timeout=60)
            stats = server.stats()
            assert stats.requests_executed >= len(requests)
            for future in futures:
                assert future.done()

    def test_close_finishes_queue_and_rejects_new_work(self, session, requests,
                                                       reference):
        from repro.serve import ServerClosedError

        server = Server(session, ServerConfig(max_batch_size=2))
        # close() lands while 4 singles are queued behind a held leader
        outcomes = coalesce(server, PLATFORM, requests[0], requests[1:5],
                            while_queued=server.close)
        for index, future in enumerate(outcomes):
            # queued requests are honored, never dropped
            np.testing.assert_array_equal(future.result(timeout=0),
                                          reference[index])
        with pytest.raises(ServerClosedError, match="shut down"):
            server.predict_batch(requests, PLATFORM)
        with pytest.raises(ServerClosedError):
            server.submit(requests[0], PLATFORM)
        server.close()            # idempotent

    def test_abandoned_server_is_garbage_collected(self, session, requests):
        import gc
        import weakref

        server = Server(session, ServerConfig())
        server.predict_batch(requests[:2], PLATFORM)
        ref = weakref.ref(server)
        del server                 # dropped without close()
        gc.collect()
        assert ref() is None


class TestTypedShutdownErrors:
    """Post-close use raises ServerClosedError (a RuntimeError subclass, so
    the historical ``pytest.raises(RuntimeError, match="shut down")`` tests
    above keep passing unchanged)."""

    def test_server_raises_typed_error_after_close(self, session, requests):
        from repro.serve import ServerClosedError

        server = Server(session, ServerConfig())
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(requests[0], PLATFORM)
        with pytest.raises(ServerClosedError):
            server.predict(requests[0], PLATFORM)
        with pytest.raises(ServerClosedError):
            server.predict_batch(requests[:2], PLATFORM)

    def test_drain_after_close_is_well_defined(self, session, requests):
        server = Server(session, ServerConfig())
        server.predict(requests[0], PLATFORM)
        server.close()
        assert server.drain(timeout=1.0) is True    # nothing left to drain


class TestWedgedWorkerTimeouts:
    """drain and waiting callers return promptly when a leader is stuck —
    a wedged or slow leader translates into a bounded False or a typed
    deadline error, not a caller hang — and a caller only ever waits on
    its own lane."""

    def test_drain_timeout_with_wedged_worker(self, session, requests):
        from repro.reliability import FaultPlan, FaultSpec, inject_faults
        from repro.reliability.faults import SITE_WORKER

        plan = FaultPlan(41, [FaultSpec(SITE_WORKER, "delay", 1.0,
                                        delay_s=1.0, max_fires=1)])
        server = Server(session, ServerConfig(max_batch_size=1))
        held = []
        with inject_faults(plan):
            leader = threading.Thread(target=lambda: held.append(
                server.submit(requests[0], PLATFORM)))
            leader.start()
            wait_until(lambda: server.stats().batches_executed >= 1)
            start = time.monotonic()
            assert server.drain(timeout=0.1) is False
            assert time.monotonic() - start < 0.9
            # a caller queued behind the wedged leader gets its deadline
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                server.predict(requests[1], PLATFORM, deadline_s=0.2)
            assert time.monotonic() - start < 0.2 + 0.25
            leader.join(timeout=30)
            assert not leader.is_alive()
        assert np.isfinite(held[0].result(timeout=0))
        assert server.drain(timeout=1.0) is True

    def test_queued_job_caller_never_runs_other_callers_jobs(
            self, session, requests):
        """A caller's deadline bounds its own wait even when its lane frees
        up while another caller's job is still queued ahead of it."""
        from repro.reliability import FaultPlan, FaultSpec, inject_faults
        from repro.reliability.faults import SITE_WORKER
        from repro.serve.batching import RESULT_GRACE_S

        # every batch holds its leader for 0.5 s
        plan = FaultPlan(41, [FaultSpec(SITE_WORKER, "delay", 1.0,
                                        delay_s=0.5)])
        server = Server(session, ServerConfig())
        outcomes = {}

        def job(name, deadline_s):
            start = time.monotonic()
            try:
                server.predict_batch(requests, PLATFORM,
                                     deadline_s=deadline_s)
                outcomes[name] = (None, time.monotonic() - start)
            except Exception as error:  # noqa: BLE001 - asserted below
                outcomes[name] = (error, time.monotonic() - start)

        threads = []
        with inject_faults(plan):
            for name, deadline_s in (("first", None), ("second", None),
                                     ("bounded", 0.7)):
                threads.append(threading.Thread(
                    target=job, args=(name, deadline_s), daemon=True))
                threads[-1].start()
                # queue strictly in order: first, second, bounded
                wait_until(lambda: server.stats().jobs_submitted
                           == len(threads))
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "a caller hung"
        error, elapsed = outcomes["bounded"]
        assert isinstance(error, DeadlineExceeded)
        assert elapsed < 0.7 + RESULT_GRACE_S
        assert outcomes["first"][0] is None and outcomes["second"][0] is None
        stats = server.stats()
        assert stats.requests_executed == 2 * len(requests)
        assert stats.deadline_expired == len(requests)

    def test_single_never_waits_behind_a_job(self, session, requests,
                                             reference):
        from repro.reliability import FaultPlan, FaultSpec, inject_faults
        from repro.reliability.faults import SITE_WORKER

        plan = FaultPlan(41, [FaultSpec(SITE_WORKER, "delay", 1.0,
                                        delay_s=1.0, max_fires=1)])
        server = Server(session, ServerConfig())
        with inject_faults(plan):
            job = threading.Thread(target=server.predict_batch,
                                   args=(requests, PLATFORM), daemon=True)
            job.start()
            wait_until(lambda: server.stats().batches_executed >= 1)
            # the job's leader is held; the single runs in its own lane
            start = time.monotonic()
            value = server.predict(requests[0], PLATFORM, deadline_s=0.5)
            assert time.monotonic() - start < 0.5
            job.join(timeout=30)
            assert not job.is_alive()
        np.testing.assert_array_equal(value, reference[0])


class TestPoisonedBatchRetryPath:
    """The poisoned-batch splitter re-runs singles through the retry layer:
    neighbours still succeed, the poisoned request surfaces its *original*
    exception, and deterministic failures are not retried."""

    def test_neighbours_succeed_and_original_error_surfaces(
            self, session, requests, reference):
        from repro.clang.parser import ParseError

        with Server(session, ServerConfig(max_batch_size=8)) as server:
            head, *good, bad = coalesce(server, PLATFORM, requests[0],
                                        [*requests[1:3], "this is } not C {"])
            for index, future in enumerate([head, *good]):
                np.testing.assert_array_equal(future.result(timeout=30),
                                              reference[index])
            with pytest.raises(ParseError):
                bad.result(timeout=30)
            stats = server.stats()
            assert stats.max_coalesced == 3
            assert stats.failures == 1
            assert stats.retries == 0, \
                "a deterministic parse error must not be retried"

    def test_transient_neighbour_faults_recover_in_batch(
            self, session, requests, reference):
        from repro.clang.parser import ParseError
        from repro.reliability import FaultSpec
        from repro.reliability.faults import SITE_FORWARD

        # the held head fails at parse, before any forward; the coalesced
        # batch behind it then fails its first forward and is retried, so
        # every single still succeeds bit for bit
        config = ServerConfig(max_batch_size=8, max_retries=2,
                              retry_backoff_s=0.0)
        with Server(session, config) as server:
            head, *futures = coalesce(
                server, PLATFORM, "this is } not C {", requests[:3],
                faults=[FaultSpec(SITE_FORWARD, "raise", 1.0, max_fires=1)],
                seed=43)
            with pytest.raises(ParseError):
                head.result(timeout=30)
            for index, future in enumerate(futures):
                np.testing.assert_array_equal(future.result(timeout=30),
                                              reference[index])
            stats = server.stats()
            assert stats.max_coalesced == 3
            assert stats.retries >= 1
            assert stats.failures == 1            # the head's parse error


class TestPackedForward:
    """The packed block-diagonal serving path."""

    def test_packed_batch_matches_per_graph_loop_bit_for_bit(
            self, session, requests):
        from repro.ml.dataset import GraphDataset

        trainer = session.trainer_for(PLATFORM)
        per_graph = np.concatenate(
            [trainer.predict(GraphDataset([session.encode_source(spec)]))
             for spec in requests])
        with Server(session, ServerConfig()) as server:
            np.testing.assert_array_equal(
                server.predict_batch(requests, PLATFORM), per_graph,
                err_msg="packed forward diverged from the per-graph loop")


class TestServerConfigFromEnv:
    """Satellite: malformed REPRO_SERVE_* values raise a ValueError naming
    the offending variable, never a bare parse traceback."""

    VALID = [
        ("REPRO_SERVE_MAX_BATCH", "16", "max_batch_size", 16),
        ("REPRO_SERVE_DEADLINE_MS", "250", "default_deadline_s", 0.25),
        ("REPRO_SERVE_MAX_QUEUE", "9", "max_queue_depth", 9),
        ("REPRO_SERVE_MAX_RETRIES", "1", "max_retries", 1),
        ("REPRO_SERVE_BREAKER_THRESHOLD", "4", "breaker_threshold", 4),
        ("REPRO_SERVE_BREAKER_RESET_MS", "1500", "breaker_reset_s", 1.5),
    ]

    MALFORMED = [
        ("REPRO_SERVE_MAX_BATCH", "4.5"),
        ("REPRO_SERVE_DEADLINE_MS", "1e"),
        ("REPRO_SERVE_MAX_QUEUE", ""),      # blank-after-strip keeps default
        ("REPRO_SERVE_MAX_RETRIES", "none"),
        ("REPRO_SERVE_BREAKER_THRESHOLD", "0x8"),
        ("REPRO_SERVE_BREAKER_RESET_MS", "5,0"),
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
    """Satellite: one expired request among coalescing neighbours leaves
    alone — it must not poison or delay the batch its neighbours form."""

    def test_live_neighbours_survive_bit_for_bit(self, session, requests,
                                                 reference):
        with Server(session, ServerConfig(max_batch_size=8)) as server:
            head, expired, *live = coalesce(
                server, PLATFORM, requests[0], requests[:4],
                deadlines=[0.0, None, None, None], wait_queued=3)
            with pytest.raises(DeadlineExceeded):
                expired.result(timeout=0)
            for index, future in enumerate([head, *live]):
                np.testing.assert_array_equal(future.result(timeout=30),
                                              reference[index])
            stats = server.stats()
        assert stats.deadline_expired == 1
        assert stats.failures == 0
        assert stats.max_coalesced == 3


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
