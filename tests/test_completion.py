"""The completion contract of :class:`repro.serving.completion.BatchCompletion`.

A caller batch's ``n`` result slots resolve through one primitive lock,
held from construction and released once, by the settle that resolves the
last slot.  These tests pin what callers rely on — timeouts, repeated and
concurrent waits, ``done()``, done-callbacks and the ``on_settled`` drain
hook under concurrent settles — independently of how the wait is built
(``tests/test_broker.py::TestBatchCompletion`` has the slot-order and
stress cases).
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.serving.completion import BatchCompletion

#: Seconds any wait in this module may take before the test counts as failed
#: (a broken wait must fail the test, not hang the suite).
PATIENCE = 5.0
#: Seconds a test lets its waiter threads reach their blocking acquire
#: before it settles (a waiter arriving later takes the done fast path).
BLOCKED = 0.05


def _settled(n: int) -> BatchCompletion:
    completion = BatchCompletion(n)
    completion.settle(range(n), np.arange(n))
    return completion


class TestWaiting:
    @pytest.mark.parametrize("timeout", [0, 0.0, 0.01, -0.5, -1])
    def test_a_pending_completion_times_out_naming_what_is_pending(self, timeout):
        """``timeout=0`` and any negative timeout wait not at all; the error
        names how many slots are still pending (a bare ``lock.acquire``
        would raise ``ValueError`` on -0.5 and block forever on -1)."""
        completion = BatchCompletion(4)
        completion.settle(range(0, 1), [10])
        with pytest.raises(TimeoutError, match=rf"^3 of 4 results still pending after {timeout}s$"):
            completion.result(timeout)
        assert not completion.done()

    def test_result_twice_returns_equal_lists(self):
        completion = _settled(5)
        first = completion.result(0)
        second = completion.result()
        assert first == second == list(range(5))
        first.append("caller's own")  # each call hands out its own list
        assert completion.result() == list(range(5))

    def test_waits_after_the_first_still_pass(self):
        """A waiter takes the lock and gives it back: the completion stays
        resolvable for every later wait, blocking or not."""
        completion = BatchCompletion(3)
        waiter = threading.Thread(target=completion.result, args=(PATIENCE,))
        waiter.start()
        time.sleep(BLOCKED)
        completion.settle(range(3), ["a", "b", "c"])
        waiter.join(PATIENCE)
        assert not waiter.is_alive()
        for timeout in (None, PATIENCE, 0, -1):
            assert completion.result(timeout) == ["a", "b", "c"]

    def test_eight_waiters_on_one_completion_all_return(self):
        """More waiters than cores and a short switch interval: each waiter
        takes the lock and hands it on, so every one of them returns."""
        completion = BatchCompletion(8)
        got, started = [], threading.Barrier(9)

        def wait():
            started.wait(PATIENCE)
            got.append(completion.result(PATIENCE))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            waiters = [threading.Thread(target=wait) for _ in range(8)]
            for waiter in waiters:
                waiter.start()
            started.wait(PATIENCE)
            time.sleep(BLOCKED)  # every waiter blocked on the lock, not yet settled
            completion.settle(range(8), list(range(8)))
            for waiter in waiters:
                waiter.join(PATIENCE)
        finally:
            sys.setswitchinterval(interval)
        assert not any(waiter.is_alive() for waiter in waiters)
        assert got == [list(range(8))] * 8

    def test_a_partial_settle_wakes_no_waiter(self):
        completion = BatchCompletion(4)
        woke = threading.Event()

        def wait():
            completion.result(PATIENCE)
            woke.set()

        waiter = threading.Thread(target=wait)
        waiter.start()
        completion.settle(range(0, 2), [0, 1])
        assert not woke.wait(0.05)  # half the slots are still unresolved
        completion.settle(range(2, 4), [2, 3])
        assert woke.wait(PATIENCE)
        waiter.join(PATIENCE)
        assert completion.result() == [0, 1, 2, 3]


class TestDone:
    def test_done_only_from_the_last_settle_on(self):
        completion = BatchCompletion(3)
        assert not completion.done()
        completion.settle(range(0, 2), [0, 1])
        assert not completion.done()
        completion.settle(range(2, 3), error=RuntimeError("an error resolves a slot too"))
        assert completion.done()
        with pytest.raises(RuntimeError):
            completion.result(0)
        assert completion.done()

    def test_done_is_not_read_off_the_lock(self):
        """A waiter holds the lock for a moment after the last settle; the
        completion is done all the same.  The waiter is played here by
        taking the lock directly."""
        completion = _settled(2)
        assert completion._unresolved.acquire(timeout=PATIENCE)
        try:
            assert completion.done()
        finally:
            completion._unresolved.release()

    def test_a_zero_slot_completion_is_done_when_built(self):
        called = []
        completion = BatchCompletion(0, on_settled=called.append)
        assert completion.done()
        assert completion.result(0) == [] and completion.result(-1) == []
        completion.add_done_callback(lambda c: called.append(c))
        assert called == [completion]  # the callback ran at once; no settle ran


class TestSettling:
    @pytest.mark.parametrize("round_", range(25))
    def test_two_threads_settling_disjoint_ranges(self, round_):
        """Two workers settle halves of one caller batch at the same moment:
        every done-callback fires exactly once, ``on_settled`` once per
        settle with its slot count, and the waiter sees every value."""
        n = 64
        settled, fired = [], []
        completion = BatchCompletion(n, on_settled=settled.append)
        for tag in ("a", "b", "c"):
            completion.add_done_callback(lambda c, tag=tag: fired.append(tag))
        go = threading.Barrier(2)
        halves = [range(0, n // 2 + round_), range(n // 2 + round_, n)]

        def settle(slots):
            go.wait(PATIENCE)
            completion.settle(slots, [slot * 10 for slot in slots])

        workers = [threading.Thread(target=settle, args=(slots,)) for slots in halves]
        for worker in workers:
            worker.start()
        assert completion.result(PATIENCE) == [slot * 10 for slot in range(n)]
        for worker in workers:
            worker.join(PATIENCE)
        assert sorted(fired) == ["a", "b", "c"]
        assert sorted(settled) == sorted(len(slots) for slots in halves)
