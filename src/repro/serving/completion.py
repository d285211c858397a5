"""The completion contract: where a request's result goes.

The caller's batch is the unit of work in the serving runtime, so results
are delivered per caller batch too.  Every queued
:class:`~repro.serving.batching.Segment` — a contiguous run of one caller
batch's rows — carries its ``completion`` and the slot ``range`` its rows
fill; the pipeline resolves a segment with one ``completion.settle(slots,
values)`` — ``values`` a slice of the executed batch's outputs — or
``settle(slots, error=exc)``, then reports ``on_settled(len(slots))`` to
whoever accounts for outstanding work (the broker's ``drain``).

Two completions implement the contract:

* :class:`BatchCompletion` — ``n`` result slots behind one lock, what
  ``submit_many`` returns: held from construction, released once by the
  settle that resolves the last slot (no event, no condition);
* :class:`FutureSlot` — the ``n = 1`` case as a
  :class:`concurrent.futures.Future`, what the single-sample ``submit``
  returns (the only place a future is created).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Dict, Optional

__all__ = ["BatchCompletion", "FutureSlot"]


class BatchCompletion:
    """The results of one caller batch: ``n`` slots behind one lock.

    The pipeline fills slots with :meth:`settle` — one contiguous slot
    range at a time, possibly from several worker threads when the
    caller's rows were split across batches — and the caller collects
    them with one :meth:`result` wait.

    The wait is one primitive lock, held from construction while any slot
    is unresolved: the settle that resolves the last slot releases it,
    once.  A waiter acquires it and releases it again at once, so later
    waits and concurrent waiters pass too.  The slot bookkeeping sits
    behind a second, uncontended mutex.

    Args:
        n: Number of result slots.
        on_settled: Optional hook ``(n_slots,)`` invoked after each
            :meth:`settle` has resolved its slots (the broker's drain
            accounting: a slot stops counting only once it is resolved).
    """

    __slots__ = ("_results", "_errors", "_pending", "_lock", "_unresolved", "_callbacks", "on_settled")

    def __init__(self, n: int, on_settled: Optional[Callable[[int], None]] = None):
        self._results: list = [None] * n
        self._errors: Dict[int, BaseException] = {}
        self._pending = n
        self._lock = threading.Lock()
        self._unresolved = threading.Lock()
        #: Done-callbacks; ``None`` once every slot is resolved.
        self._callbacks: Optional[list] = []
        self.on_settled = on_settled
        if n:
            self._unresolved.acquire()
        else:
            self._callbacks = None

    def settle(self, slots: range, values=None, error: Optional[BaseException] = None) -> None:
        """Resolve the contiguous ``slots`` with ``values`` (one per slot,
        slice-assigned) or all of them with ``error``."""
        callbacks = None
        with self._lock:
            if error is None:
                self._results[slots.start : slots.stop] = values
            else:
                self._errors.update(dict.fromkeys(slots, error))
            self._pending -= len(slots)
            if not self._pending:
                callbacks, self._callbacks = self._callbacks, None
                self._unresolved.release()
        for callback in callbacks or ():
            callback(self)
        if self.on_settled is not None:
            self.on_settled(len(slots))

    def done(self) -> bool:
        """Whether every slot is resolved (result or error).  Not read off
        the lock, which a passing waiter holds for a moment."""
        return self._callbacks is None

    def add_done_callback(self, callback: Callable[["BatchCompletion"], None]) -> None:
        """Call ``callback(self)`` once every slot is resolved (immediately
        if they already are).  It runs on the settling worker thread and
        must not raise."""
        with self._lock:
            if self._callbacks is not None:
                self._callbacks.append(callback)
                return
        callback(self)

    def result(self, timeout: Optional[float] = None) -> list:
        """The ``n`` results in slot order.

        ``timeout`` bounds the whole call, not each slot (a negative one
        waits not at all).  If any slot failed, the first failure in slot
        order is raised.

        Raises:
            TimeoutError: Slots were still unresolved after ``timeout``.
        """
        if self._callbacks is not None:
            if not self._unresolved.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
                raise TimeoutError(
                    f"{self._pending} of {len(self._results)} results still pending after {timeout}s"
                )
            self._unresolved.release()
        if self._errors:
            raise self._errors[min(self._errors)]
        return list(self._results)


class FutureSlot(Future):
    """The ``n = 1`` completion behind the single-sample API: a
    :class:`concurrent.futures.Future` that takes the same ``settle``
    contract (and ``on_settled`` hook) as :class:`BatchCompletion`."""

    on_settled: Optional[Callable[[int], None]] = None

    def cancel(self) -> bool:
        """Never: a cancelled future would make the worker's set_result
        raise InvalidStateError and kill the worker thread mid-batch
        (asyncio.wrap_future tries during a transport shutdown).
        Shedding remains the only way a request dies early."""
        return False

    def settle(self, slots: range, values=None, error: Optional[BaseException] = None) -> None:
        if error is None:
            self.set_result(values[0])
        else:
            self.set_exception(error)
        if self.on_settled is not None:
            self.on_settled(1)
