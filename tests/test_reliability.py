"""Tests for ``repro.reliability`` and its integration into serve + store.

Covers the four reliability primitives in isolation (typed errors +
transient classification, retry policy/budget, circuit breaker, seeded
fault injection) and then the behaviours they give the serving runtime:
deadlines honoured at dequeue and execution time, transparent transient
retries that stay bit-identical, fail-fast deterministic errors, load
shedding, breaker trips, and the ``stats()``/``healthz()`` observability
surface.  Store fault hooks are exercised through the checksum path: an
injected write or read corruption must always surface as
``CorruptArtifactError``, never as silently wrong weights.
"""

import threading
import time

import numpy as np
import pytest

from repro.clang.lexer import LexError, Token, TokenKind
from repro.clang.parser import MAX_DEPTH, ParseError, parse_source
from repro.reliability import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceeded,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ReliabilityError,
    RetryBudget,
    RetryPolicy,
    ServerClosedError,
    ServerOverloaded,
    TransientFaultError,
    call_with_retry,
    fault_kind_registry,
    fault_point,
    inject_faults,
    is_transient,
)
from repro.reliability.faults import (
    SITE_FORWARD,
    SITE_STORE_READ,
    SITE_STORE_WRITE,
    SITE_WORKER,
    SITES,
)
from repro.serve import Server, ServerConfig
from repro.synth.harness import tiny_serving_stack


def _parse_error(message: str = "syntax error") -> ParseError:
    """A deterministic user-content error (needs a token for its location)."""
    return ParseError(message, Token(TokenKind.PUNCTUATOR, "{", 1, 1))


def _deepest_parsing(make) -> int:
    """The largest n whose source ``make(n)`` still parses."""
    lo, hi = 1, 2 * MAX_DEPTH
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        try:
            parse_source(make(mid))
            lo = mid
        except ParseError:
            hi = mid
    return lo


@pytest.fixture(scope="module")
def warm_stack():
    """A serving-ready session without training (shared, read-only)."""
    session, platform, sources = tiny_serving_stack(917)
    yield session, platform, sources
    session.close()


# --------------------------------------------------------------------- #
# errors & transient classification
# --------------------------------------------------------------------- #
class TestErrorTaxonomy:
    def test_hierarchy_keeps_runtimeerror_compat(self):
        for exc in (DeadlineExceeded, ServerOverloaded, ServerClosedError,
                    CircuitOpenError, TransientFaultError):
            assert issubclass(exc, ReliabilityError)
            assert issubclass(exc, RuntimeError)
        # deadline errors also read as timeouts for generic handlers
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_transient_classification(self):
        assert is_transient(TransientFaultError("x"))
        assert is_transient(ConnectionError("x"))
        assert is_transient(OSError("disk hiccup"))
        # reliability verdicts are final: retrying them cannot help
        assert not is_transient(DeadlineExceeded("x"))
        assert not is_transient(ServerOverloaded("x"))
        assert not is_transient(CircuitOpenError("x"))
        # deterministic user/content errors fail fast
        assert not is_transient(_parse_error("bad source"))
        assert not is_transient(ValueError("bad argument"))
        assert not is_transient(FileNotFoundError("gone"))
        assert not is_transient(PermissionError("denied"))

    def test_transient_attribute_opt_in(self):
        error = ValueError("custom")
        error.transient = True
        assert is_transient(error)


# --------------------------------------------------------------------- #
# retry policy / budget / loop
# --------------------------------------------------------------------- #
class TestRetry:
    def test_backoff_is_exponential_capped_and_jittered(self):
        policy = RetryPolicy(max_retries=5, backoff_s=0.01,
                             backoff_cap_s=0.04, jitter=0.0)
        assert policy.backoff_for(0) == pytest.approx(0.01)
        assert policy.backoff_for(1) == pytest.approx(0.02)
        assert policy.backoff_for(4) == pytest.approx(0.04)  # capped
        jittered = RetryPolicy(backoff_s=0.01, jitter=0.5)
        draws = {jittered.backoff_for(0) for _ in range(32)}
        assert all(0.005 <= d <= 0.01 for d in draws)
        assert len(draws) > 1, "jitter must decorrelate sleeps"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_transient_failures_retry_then_succeed(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFaultError("blip")
            return "ok"

        result = call_with_retry(flaky,
                                 policy=RetryPolicy(max_retries=3,
                                                    backoff_s=0.0),
                                 sleep=lambda _: None)
        assert result == "ok"
        assert len(calls) == 3

    def test_deterministic_failures_fail_fast(self):
        calls = []

        def broken():
            calls.append(1)
            raise _parse_error()

        with pytest.raises(ParseError):
            call_with_retry(broken, policy=RetryPolicy(max_retries=5,
                                                       backoff_s=0.0),
                            sleep=lambda _: None)
        assert len(calls) == 1

    def test_exhausted_attempts_reraise_the_original(self):
        def always():
            raise TransientFaultError("persistent")

        with pytest.raises(TransientFaultError, match="persistent"):
            call_with_retry(always, policy=RetryPolicy(max_retries=2,
                                                       backoff_s=0.0),
                            sleep=lambda _: None)

    def test_budget_exhaustion_turns_retries_off(self):
        budget = RetryBudget(capacity=1.0, refill_per_success=0.5)
        calls = []

        def always():
            calls.append(1)
            raise TransientFaultError("blip")

        with pytest.raises(TransientFaultError):
            call_with_retry(always, policy=RetryPolicy(max_retries=5,
                                                       backoff_s=0.0),
                            budget=budget, sleep=lambda _: None)
        assert len(calls) == 2          # one try + the single budgeted retry
        assert budget.tokens == 0.0

    def test_success_refills_the_budget(self):
        budget = RetryBudget(capacity=4.0, refill_per_success=0.5)
        assert budget.take()
        call_with_retry(lambda: "ok", policy=RetryPolicy(), budget=budget)
        assert budget.tokens == pytest.approx(3.5)

    def test_deadline_beats_backoff_and_chains_the_cause(self):
        deadline = time.monotonic() + 0.001

        def always():
            raise TransientFaultError("blip")

        with pytest.raises(DeadlineExceeded) as info:
            call_with_retry(always,
                            policy=RetryPolicy(max_retries=5, backoff_s=10.0),
                            deadline=deadline, sleep=lambda _: None)
        assert isinstance(info.value.__cause__, TransientFaultError)

    def test_on_retry_observes_every_retry(self):
        seen = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFaultError("blip")
            return 1

        call_with_retry(flaky, policy=RetryPolicy(max_retries=3,
                                                  backoff_s=0.0),
                        on_retry=lambda e, n: seen.append(n),
                        sleep=lambda _: None)
        assert seen == [0, 1]


# --------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_s=5.0,
                                 clock=clock)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow(), "below threshold must still admit"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.now += 5.0
        assert breaker.state == "half-open"
        assert breaker.allow(), "half-open admits one trial"
        assert not breaker.allow(), "only one trial at a time"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_trial_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_s=2.0, clock=clock)
        breaker.record_failure()
        clock.now += 2.0
        assert breaker.allow()
        breaker.record_failure()        # the trial failed
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_s=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_lost_trial_is_written_off(self):
        # a trial that never reports (shed, dropped on deadline) must not
        # wedge the breaker half-open forever
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now += 1.0
        assert breaker.allow()          # trial admitted, then lost
        assert not breaker.allow()
        clock.now += 1.0
        assert breaker.allow(), "lost trial written off after reset_s"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_s=-1.0)


# --------------------------------------------------------------------- #
# fault injection
# --------------------------------------------------------------------- #
class TestFaultInjection:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("nowhere", "raise", 0.5)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(SITE_FORWARD, "explode", 0.5)
        with pytest.raises(ValueError, match="not allowed at site"):
            FaultSpec(SITE_FORWARD, "corrupt-payload", 0.5)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(SITE_FORWARD, "raise", 1.5)
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(SITE_FORWARD, "raise", 0.5, max_fires=0)

    def test_corrupt_payload_only_where_checksums_catch_it(self):
        for site, kinds in SITES.items():
            if "corrupt-payload" in kinds:
                assert site in (SITE_STORE_READ, SITE_STORE_WRITE), \
                    f"{site}: corruption without a downstream integrity check"

    def test_registry_is_extensible(self):
        assert set(fault_kind_registry.keys()) >= \
            {"raise", "delay", "corrupt-payload"}

    def test_no_injector_is_a_passthrough(self):
        payload = object()
        assert fault_point(SITE_FORWARD, payload) is payload
        assert fault_point(SITE_FORWARD) is None

    def test_decisions_replay_by_seed(self):
        plan = FaultPlan(1234, [FaultSpec(SITE_WORKER, "raise", 0.5)])

        def pattern():
            injector = FaultInjector(plan)
            fired = []
            for _ in range(64):
                try:
                    injector.apply(SITE_WORKER, None)
                    fired.append(False)
                except TransientFaultError:
                    fired.append(True)
            return fired

        first = pattern()
        assert first == pattern(), "same seed must replay the same decisions"
        assert any(first) and not all(first)
        other = FaultInjector(FaultPlan(4321, plan.specs))
        different = []
        for _ in range(64):
            try:
                other.apply(SITE_WORKER, None)
                different.append(False)
            except TransientFaultError:
                different.append(True)
        assert different != first, "different seeds must differ"

    def test_max_fires_caps_the_fault(self):
        plan = FaultPlan(7, [FaultSpec(SITE_WORKER, "raise", 1.0, max_fires=2)])
        injector = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(TransientFaultError):
                injector.apply(SITE_WORKER, None)
        injector.apply(SITE_WORKER, None)       # healed
        assert injector.fired(SITE_WORKER) == 2
        assert injector.fire_counts() == {(SITE_WORKER, "raise"): 2}

    def test_corrupt_payload_bytes_and_arrays(self):
        plan = FaultPlan(3, [FaultSpec(SITE_STORE_READ, "corrupt-payload", 1.0)])
        injector = FaultInjector(plan)
        original = b"payload-bytes"
        corrupted = injector.apply(SITE_STORE_READ, original)
        assert corrupted != original and len(corrupted) == len(original)
        array = np.arange(6, dtype=np.float64).reshape(2, 3)
        kept = array.copy()
        mangled = injector.apply(SITE_STORE_READ, array)
        np.testing.assert_array_equal(array, kept), "input must not mutate"
        assert not np.array_equal(mangled, kept, equal_nan=True)

    def test_scopes_do_not_nest(self):
        plan = FaultPlan(1, [])
        with inject_faults(plan):
            with pytest.raises(RuntimeError, match="do not nest"):
                with inject_faults(plan):
                    pass
        # and the scope always deactivates on exit
        assert fault_point(SITE_WORKER, "x") == "x"

    def test_delay_fault_sleeps(self):
        plan = FaultPlan(9, [FaultSpec(SITE_WORKER, "delay", 1.0,
                                       delay_s=0.05)])
        injector = FaultInjector(plan)
        start = time.monotonic()
        injector.apply(SITE_WORKER, None)
        assert time.monotonic() - start >= 0.04


# --------------------------------------------------------------------- #
# serving runtime integration
# --------------------------------------------------------------------- #
class TestServerDeadlines:
    def test_inline_expired_deadline_is_typed(self, warm_stack):
        session, platform, sources = warm_stack
        server = Server(session, ServerConfig())
        future = server.submit(sources[0], platform, deadline_s=0.0)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=1.0)
        with pytest.raises(DeadlineExceeded):
            server.predict_batch(sources, platform, deadline_s=0.0)
        assert server.stats().deadline_expired >= 1 + len(sources)

    def test_queued_expiry_is_dropped_at_dequeue(self, warm_stack):
        from _coalesce import coalesce

        session, platform, sources = warm_stack
        with Server(session, ServerConfig(max_batch_size=8)) as server:
            # the 0.2 s single expires while queued behind a 0.5 s leader
            head, expiring, live = coalesce(server, platform, sources[0],
                                            sources[1:3],
                                            deadlines=[0.2, None])
            with pytest.raises(DeadlineExceeded):
                expiring.result(timeout=0)
            assert np.isfinite(head.result(timeout=0))
            assert np.isfinite(live.result(timeout=0))
            stats = server.stats()
        assert stats.deadline_expired == 1
        assert stats.requests_executed == 2     # it never reached a forward

    def test_default_deadline_applies(self, warm_stack):
        session, platform, sources = warm_stack
        server = Server(session, ServerConfig(default_deadline_s=0.0))
        with pytest.raises(DeadlineExceeded):
            server.predict(sources[0], platform)

    def test_generous_deadline_serves_bit_identically(self, warm_stack):
        session, platform, sources = warm_stack
        server = Server(session, ServerConfig())
        reference = server.predict_batch(sources, platform)
        with Server(session, ServerConfig()) as bounded:
            result = bounded.predict_batch(sources, platform,
                                           deadline_s=30.0)
        np.testing.assert_array_equal(result, reference)

    def test_negative_deadline_is_rejected(self, warm_stack):
        session, platform, sources = warm_stack
        server = Server(session, ServerConfig())
        with pytest.raises(ValueError, match="deadline_s"):
            server.predict(sources[0], platform, deadline_s=-1.0)


class TestServerShedding:
    def test_overload_sheds_with_typed_error(self, warm_stack):
        from _coalesce import coalesce

        session, platform, sources = warm_stack
        config = ServerConfig(max_batch_size=1, max_queue_depth=1)
        with Server(session, config) as server:
            # a held leader, one queued caller, and five more that find
            # the 1-deep queue full
            outcomes = coalesce(server, platform, sources[0],
                                [sources[0]] * 6, hold_s=0.2, seed=5,
                                wait_queued=1)
            shed = sum(isinstance(outcome, ServerOverloaded)
                       for outcome in outcomes)
            for outcome in outcomes:
                if not isinstance(outcome, ServerOverloaded):
                    outcome.result(timeout=30.0)
            assert shed > 0, "a 1-deep queue under a held leader must shed"
            stats = server.stats()
            assert stats.shed == shed
            assert server.healthz()["shed"] == shed


class TestServerRetries:
    def test_transient_forward_fault_is_retried_bit_identically(
            self, warm_stack):
        session, platform, sources = warm_stack
        clean = Server(session, ServerConfig())
        reference = clean.predict_batch(sources[:1], platform)
        plan = FaultPlan(11, [FaultSpec(SITE_FORWARD, "raise", 1.0,
                                        max_fires=2)])
        config = ServerConfig(max_retries=3,
                              retry_backoff_s=0.0)
        with inject_faults(plan) as injector:
            server = Server(session, config)
            result = server.predict_batch(sources[:1], platform)
        np.testing.assert_array_equal(result, reference)
        assert injector.fired(SITE_FORWARD) == 2
        stats = server.stats()
        assert stats.retries == 2
        assert stats.failures == 0

    def test_exhausted_retries_surface_the_fault(self, warm_stack):
        session, platform, sources = warm_stack
        plan = FaultPlan(13, [FaultSpec(SITE_FORWARD, "raise", 1.0)])
        config = ServerConfig(max_retries=1,
                              retry_backoff_s=0.0, breaker_threshold=0)
        with inject_faults(plan):
            server = Server(session, config)
            with pytest.raises(TransientFaultError):
                server.predict(sources[0], platform)
        stats = server.stats()
        assert stats.retries == 1
        assert stats.failures == 1

    def test_deterministic_errors_are_not_retried(self, warm_stack):
        session, platform, _ = warm_stack
        server = Server(session, ServerConfig(max_retries=3))
        with pytest.raises(ParseError):
            server.predict("void broken( {", platform)
        stats = server.stats()
        assert stats.retries == 0
        assert stats.failures == 1

    def test_retry_budget_bounds_amplification(self, warm_stack):
        session, platform, sources = warm_stack
        plan = FaultPlan(17, [FaultSpec(SITE_FORWARD, "raise", 1.0)])
        config = ServerConfig(max_retries=5,
                              retry_backoff_s=0.0, retry_budget=2.0,
                              breaker_threshold=0)
        with inject_faults(plan):
            server = Server(session, config)
            with pytest.raises(TransientFaultError):
                server.predict(sources[0], platform)
            with pytest.raises(TransientFaultError):
                server.predict(sources[0], platform)
        assert server.stats().retries == 2, \
            "a drained budget must stop retry amplification"


class TestServerBreaker:
    def test_breaker_opens_then_recovers(self, warm_stack):
        session, platform, sources = warm_stack
        plan = FaultPlan(19, [FaultSpec(SITE_FORWARD, "raise", 1.0,
                                        max_fires=2)])
        config = ServerConfig(max_retries=0,
                              breaker_threshold=2, breaker_reset_s=0.05)
        with inject_faults(plan):
            server = Server(session, config)
            for _ in range(2):
                with pytest.raises(TransientFaultError):
                    server.predict(sources[0], platform)
            health = server.healthz()
            assert health["status"] == "degraded"
            assert "open" in health["breakers"].values()
            with pytest.raises(CircuitOpenError):
                server.predict(sources[0], platform)
            assert server.stats().breaker_rejections == 1
            assert server.stats().breakers_open == 1
            time.sleep(0.06)            # half-open: the faults healed
            value = server.predict(sources[0], platform)
            assert np.isfinite(value)
        assert server.healthz()["status"] == "ok"
        assert server.stats().breakers_open == 0

    def test_deadline_failures_do_not_trip_the_breaker(self, warm_stack):
        session, platform, sources = warm_stack
        server = Server(session, ServerConfig(breaker_threshold=1))
        with pytest.raises(DeadlineExceeded):
            server.predict(sources[0], platform, deadline_s=0.0)
        assert server.stats().breakers_open == 0
        assert np.isfinite(server.predict(sources[0], platform))

    def test_input_errors_do_not_trip_the_breaker(self, warm_stack):
        # one client's malformed or over-deep source fails that request
        # alone; it says nothing about the shard, so it must not open the
        # breaker for every other client (default threshold)
        session, platform, sources = warm_stack
        bad = ["void broken( {", "void k(int n) { n = n @ 2; }",
               "int k() { return " + "(" * 200 + "1" + ")" * 200 + "; }",
               "void k() { " + "{" * 1000 + "}" * 1000 + " }",
               "void k(int x) { " + "x = " * 1000 + "1; }",
               "int k(int x) { return " + " + ".join(["x"] * 1000) + "; }",
               # malformed integer literals (a bad octal digit, an empty hex
               # literal, more digits than Python's int() converts)
               "int k() { return 08; }", "int k() { return 0x; }",
               "int k() { return " + "9" * 4400 + "; }"]
        with Server(session, ServerConfig()) as server:
            rejected = 2 * server.config.breaker_threshold
            for index in range(rejected):
                with pytest.raises((ParseError, LexError)):
                    server.predict(bad[index % len(bad)], platform)
            assert server.stats().breakers_open == 0
            assert server.healthz()["status"] == "ok"
            assert np.isfinite(server.predict(sources[0], platform))
            assert server.stats().failures == rejected

    def test_deepest_accepted_sources_predict(self, warm_stack):
        # one level under the parser's nesting limit the whole pipeline
        # (analysis, ParaGraph build, encode, forward) still has stack to
        # spare; one level over it is a ParseError like any bad input
        session, platform, _ = warm_stack
        families = [
            lambda n: "int k() { return " + "(" * n + "1" + ")" * n + "; }",
            lambda n: "void k() { " + "{" * n + "}" * n + " }",
            lambda n: "void k(int x) { " + "x = " * n + "1; }",
            lambda n: "int k(int x) { return "
                      + " + ".join(["x"] * n) + "; }"]
        with Server(session, ServerConfig()) as server:
            for make in families:
                deepest = _deepest_parsing(make)
                assert np.isfinite(server.predict(make(deepest), platform))
                with pytest.raises(ParseError):
                    server.predict(make(deepest + 1), platform)
            assert server.healthz()["status"] == "ok"


class TestHostileConstants:
    """Constants that no 64-bit C type holds, or that fold only through a
    chain of declarations deeper than the fold budget, fall back to the
    default trip count, and execution counts saturate: each source predicts
    a finite value instead of raising (or answering ``nan``)."""

    SOURCES = [
        "void k(int n) { for (int i = 0; i < 1e999; i++) { n += i; } }",
        "void k(int n) { for (int i = 0; i < 1 << 2000; i++) { n += i; } }",
        "void k(int n) { for (int i = 0; i < "
        + " * ".join(["(1 << 62)"] * 17) + "; i++) { n += i; } }",
        "void k(int n) { " + "".join(f"for (int i{d} = 0; i{d} < (1 << 62); i{d}++) {{ "
                                     for d in range(20)) + "n += 1;" + " }" * 20 + " }",
        "void k(int n) { for (int i = 0; i < 1 << 8000000; i++) { n += i; } }",
        "void k(int n) { for (int i = 0; i < 1 << -1; i++) { n += i; } }",
        "void k(int n) { int x0 = 1; "
        + " ".join(f"int x{d} = x{d - 1} + 1;" for d in range(1, 400))
        + " for (int i = 0; i < x399; i++) { n += i; } }",
    ]

    def test_hostile_constants_predict_finite_values(self, warm_stack):
        session, platform, sources = warm_stack
        with Server(session, ServerConfig()) as server:
            for source in self.SOURCES:
                assert np.isfinite(server.predict(source, platform))
            for index in range(server.config.breaker_threshold):
                source = self.SOURCES[index % len(self.SOURCES)]
                assert np.isfinite(server.predict(source, platform))
            assert server.stats().failures == 0
            assert server.stats().breakers_open == 0
            assert server.healthz()["status"] == "ok"
            assert np.isfinite(server.predict(sources[0], platform))


class TestObservability:
    def test_stats_and_healthz_expose_reliability_counters(self, warm_stack):
        session, platform, sources = warm_stack
        server = Server(session, ServerConfig())
        server.predict(sources[0], platform)
        stats = server.stats()
        for field in ("shed", "deadline_expired", "failures", "retries",
                      "breaker_rejections", "breakers_open", "queue_depth"):
            assert getattr(stats, field) == 0
        health = server.healthz()
        assert health["status"] == "ok"
        assert health["requests_executed"] >= 1
        assert health["error_rate"] == 0.0
        assert health["retry_budget_tokens"] == server.config.retry_budget
        assert health["warm_started"] is True
        # one breaker per (platform, parse mode) shard
        server.predict("int x = 0; for (int i = 0; i < 8; i++) { x += i; }",
                       platform, snippet=True)
        assert server.healthz()["breakers"] == {
            "NVIDIA V100[full]": "closed", "NVIDIA V100[snippet]": "closed"}

    def test_healthz_reports_closed(self, warm_stack):
        session, platform, _ = warm_stack
        server = Server(session, ServerConfig())
        server.close()
        assert server.healthz()["status"] == "closed"


# --------------------------------------------------------------------- #
# store fault hooks
# --------------------------------------------------------------------- #
class TestStoreFaultHooks:
    @pytest.fixture()
    def tiny_artifact_inputs(self):
        from repro.synth.harness import tiny_serving_stack

        session, platform, _ = tiny_serving_stack(23)
        trainer = session.trainer_for(platform)
        yield session, platform, trainer
        session.close()

    def test_write_corruption_is_caught_by_verify(self, tiny_artifact_inputs,
                                                  tmp_path):
        from repro.store import save_trainers, verify_artifact

        session, platform, trainer = tiny_artifact_inputs
        plan = FaultPlan(29, [FaultSpec(SITE_STORE_WRITE, "corrupt-payload",
                                        1.0)])
        path = str(tmp_path / "corrupt-write")
        with inject_faults(plan) as injector:
            save_trainers(path, {platform: trainer}, config=session.config,
                          encoder=session.encoder)
        assert injector.fired(SITE_STORE_WRITE) == 1
        report = verify_artifact(path)
        assert not report.ok
        assert any("checksum" in problem for problem in report.problems)

    def test_read_corruption_is_caught_by_load(self, tiny_artifact_inputs,
                                               tmp_path):
        from repro.store import CorruptArtifactError, load_trainers, \
            save_trainers, verify_artifact

        session, platform, trainer = tiny_artifact_inputs
        path = str(tmp_path / "corrupt-read")
        save_trainers(path, {platform: trainer}, config=session.config,
                      encoder=session.encoder)
        assert verify_artifact(path).ok
        plan = FaultPlan(31, [FaultSpec(SITE_STORE_READ, "corrupt-payload",
                                        1.0)])
        with inject_faults(plan):
            with pytest.raises(CorruptArtifactError, match="checksum"):
                load_trainers(path)

    def test_transient_read_fault_is_typed(self, tiny_artifact_inputs,
                                           tmp_path):
        from repro.store import load_trainers, save_trainers

        session, platform, trainer = tiny_artifact_inputs
        path = str(tmp_path / "flaky-read")
        save_trainers(path, {platform: trainer}, config=session.config,
                      encoder=session.encoder)
        plan = FaultPlan(37, [FaultSpec(SITE_STORE_READ, "raise", 1.0,
                                        max_fires=1)])
        with inject_faults(plan):
            with pytest.raises(TransientFaultError):
                load_trainers(path)
            # the fault healed; the artifact itself was never damaged
            assert load_trainers(path).trainers
