"""Drive concurrent callers into one coalesced batch, deterministically.

The serving runtime has no batch window: singles coalesce only while
another caller leads their lane.  :func:`coalesce` makes that happen on
purpose — a *head* request leads the shard and is held inside a seeded
``serve.worker`` delay while every *follower* queues behind it from its
own thread, so the followers run as the next leader's batch.
"""

import threading
import time

from repro.reliability import FaultPlan, FaultSpec, inject_faults
from repro.reliability.faults import SITE_WORKER


def wait_until(condition, timeout: float = 10.0) -> None:
    """Poll *condition* until it holds; fail after *timeout* seconds."""
    end = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < end, "condition not reached in time"
        time.sleep(0.002)


def coalesce(server, platform, head, followers, *, hold_s: float = 0.5,
             faults=(), seed: int = 41, deadlines=None, wait_queued=None,
             while_queued=None):
    """Submit *head*, hold its leader for *hold_s*, queue *followers*.

    Returns one outcome per request, head first: the future ``submit``
    returned, or the exception it raised synchronously (e.g. a shed).
    *faults* are extra :class:`FaultSpec`\\ s for the same chaos scope;
    *deadlines* gives per-follower ``deadline_s`` values; the followers
    are released once *wait_queued* of them (default: all) are queued,
    after *while_queued* (if given) has been called on the test's thread.
    """
    deadlines = deadlines or [None] * len(followers)
    wait_queued = len(followers) if wait_queued is None else wait_queued
    outcomes = [None] * (len(followers) + 1)

    def call(index, source, deadline_s=None) -> None:
        try:
            outcomes[index] = server.submit(source, platform,
                                            deadline_s=deadline_s)
        except Exception as error:  # noqa: BLE001 - returned to the test
            outcomes[index] = error

    plan = FaultPlan(seed, [FaultSpec(SITE_WORKER, "delay", 1.0,
                                      delay_s=hold_s, max_fires=1),
                            *faults])
    with inject_faults(plan):
        # daemon: a hung caller must fail the test, not the interpreter exit
        leader = threading.Thread(target=call, args=(0, head), daemon=True)
        leader.start()
        wait_until(lambda: server.stats().batches_executed >= 1)
        threads = [threading.Thread(target=call,
                                    args=(index + 1, source, deadline_s),
                                    daemon=True)
                   for index, (source, deadline_s)
                   in enumerate(zip(followers, deadlines))]
        for thread in threads:
            thread.start()
        wait_until(lambda: server.stats().queue_depth >= wait_queued)
        if while_queued is not None:
            while_queued()
        for thread in [leader, *threads]:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "a caller hung"
    return outcomes
