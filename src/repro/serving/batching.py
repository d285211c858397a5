"""Dynamic micro-batching of single-sample inference requests.

Single requests arrive one at a time; the batched kernel path wants whole
hypermatrices.  :class:`MicroBatcher` sits between the two: requests queue
up in **priority lanes** and are released as one batch when a watermark
trips —

* **size**: ``max_batch_size`` requests are waiting across all lanes,
* **time**: the oldest waiting request has aged ``max_wait_seconds``, or
* **deadline**: some request's deadline is within ``max_wait_seconds`` of
  expiring, so waiting any longer risks shedding it.

The size watermark bounds per-batch work, the time watermark bounds the
latency cost a lightly-loaded service pays for batching, and the deadline
watermark keeps tightly-deadlined requests from losing their whole budget
to coalescing.

Batches are assembled highest-priority-lane first and, within a lane,
**earliest-deadline-first** (requests without a deadline flush after
deadlined ones, in arrival order).  A request whose deadline has already
passed is never dispatched: it is *shed* — its result slot resolves to a
typed :class:`DeadlineExceeded` error and the shed is reported through
``on_expire`` so :class:`~repro.serving.metrics.ServerStats` can account
for it.

The caller's batch is the unit of submission and of completion (see
:mod:`repro.serving.completion`): :meth:`MicroBatcher.submit_many`
enqueues ``n`` samples in one lock round, and every queued request
carries the ``(completion, slot)`` its result goes to.

Because compiled programs are traced per batch shape, batches can be padded
up to a small set of bucket sizes (:func:`bucket_for` / :func:`pad_batch`)
so the program cache stays small while every batch size still executes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.serving.completion import BatchCompletion, FutureSlot

__all__ = [
    "BatcherClosed",
    "DeadlineExceeded",
    "InferenceRequest",
    "MicroBatcher",
    "bucket_for",
    "bucket_ladder",
    "pad_batch",
    "shed_expired",
]


class DeadlineExceeded(TimeoutError):
    """Typed result of a request shed because its deadline expired.

    Raised out of the request's completion (``future.result()`` /
    ``completion.result()`` / ``InferenceServer.infer``); sheds are
    counted in ``ServerStats.deadline_exceeded``.
    """


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` / :meth:`MicroBatcher.adopt`
    on a closed batcher.

    The typed error lets the broker distinguish "this batcher was just
    hot-swapped out from under me — refetch and retry" from any other
    submit-time failure (see :meth:`RequestBroker.submit`'s
    retry-on-closed loop).
    """


@dataclass(eq=False, slots=True)
class InferenceRequest:
    """One queued single-sample request (compared by identity).

    Attributes:
        sample: The request payload (one sample of the servable's
            ``sample_shape``).
        priority: Lane selector; higher priorities flush first.  The
            default lane is 0 and negative priorities are allowed.
        deadline_ms: Optional latency budget in milliseconds, measured
            from enqueue.  Expired requests are shed with
            :class:`DeadlineExceeded` instead of executing.
        enqueued_at: ``time.monotonic()`` timestamp at submission.
        trace: Optional :class:`~repro.serving.observability.TraceContext`
            riding the request through the pipeline.  The batcher only
            fails it on shed; the broker records the spans.
        completion / slot: Where the request's result (or error) goes:
            ``completion.settle([slot], ...)``.
    """

    sample: np.ndarray
    priority: int = 0
    deadline_ms: Optional[float] = None
    enqueued_at: float = field(default_factory=time.monotonic)
    trace: Optional[object] = None
    completion: Optional[object] = None
    slot: int = 0

    @property
    def deadline_at(self) -> Optional[float]:
        """Absolute monotonic deadline, or ``None`` for no deadline."""
        if self.deadline_ms is None:
            return None
        return self.enqueued_at + self.deadline_ms / 1e3

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the request's deadline has passed."""
        deadline = self.deadline_at
        if deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= deadline


def _flush_key(request: InferenceRequest) -> tuple:
    """Within-lane flush order: earliest deadline first, then FIFO."""
    deadline = request.deadline_at
    return (deadline if deadline is not None else float("inf"), request.enqueued_at)


def fail_requests(requests: List[InferenceRequest], error: BaseException) -> None:
    """Resolve every request's slot with ``error``: traces are failed (and
    broker-owned ones finished) first, then one ``settle`` per distinct
    completion — the single definition of how requests die."""
    reason = f"{type(error).__name__}: {error}"
    groups: dict = {}
    for request in requests:
        trace = request.trace
        if trace is not None:
            trace.fail(reason)
            trace.finish_owned()
        groups.setdefault(request.completion, []).append(request.slot)
    for completion, slots in groups.items():
        completion.settle(slots, error=error)


def shed_expired(
    requests: List[InferenceRequest],
    now: Optional[float] = None,
    on_shed: Optional[Callable[[int], None]] = None,
) -> "tuple[List[InferenceRequest], int]":
    """Split requests into (live, n_shed), failing the expired ones.

    The single definition of shed semantics: every expired request's
    slot resolves to a typed :class:`DeadlineExceeded` here, whether
    the shed happens in the batcher lanes or later in the dispatcher.

    ``on_shed`` (the stats-accounting hook) is invoked with the shed
    count **before** the slots resolve: a caller that observes a
    request's ``DeadlineExceeded`` is therefore guaranteed to see that
    shed in the next metrics snapshot, so the drain-then-stats idiom
    never undercounts.
    """
    if not any(request.deadline_ms is not None for request in requests):
        return requests, 0  # nothing can expire: skip the per-request clock checks
    now = time.monotonic() if now is None else now
    live: List[InferenceRequest] = []
    expired: List[InferenceRequest] = []
    for request in requests:
        (expired if request.expired(now) else live).append(request)
    if expired and on_shed is not None:
        on_shed(len(expired))
    for request in expired:
        message = (
            f"request shed after {(now - request.enqueued_at) * 1e3:.1f}ms "
            f"(deadline {request.deadline_ms}ms)"
        )
        fail_requests([request], DeadlineExceeded(message))
    return live, len(expired)


def bucket_for(size: int, max_batch_size: int) -> int:
    """Round a batch size up to the next power-of-two bucket.

    Buckets cap the number of compiled program variants at
    ``log2(max_batch_size) + 1`` while wasting at most 2x padding work.
    """
    if size <= 0:
        raise ValueError("batch size must be positive")
    bucket = 1
    while bucket < size:
        bucket *= 2
    return min(bucket, max_batch_size)


def bucket_ladder(max_batch_size: int, full: bool = True) -> list:
    """The warm-bucket set for one deployment, smallest first.

    The single definition of the warming policy (used by registration
    warming and by hot-swap warming, which must agree):

    * ``full`` — the whole power-of-two ladder up to the batch watermark,
      so no batch shape ever compiles at request time;
    * not ``full`` — just ``{1, top}``, the two shapes a fresh service
      meets first.
    """
    buckets = {1, bucket_for(max_batch_size, max_batch_size)}
    if full:
        bucket = 1
        while bucket < max_batch_size:
            buckets.add(bucket)
            bucket *= 2
    return sorted(buckets)


def pad_batch(batch: np.ndarray, bucket: int) -> np.ndarray:
    """Pad a stacked batch up to ``bucket`` rows by repeating the last row.

    Repeating a real sample (rather than zero-filling) keeps the padding
    rows inside the data distribution, so approximated kernels see no
    out-of-range values; callers slice the first ``len(batch)`` results.
    """
    if batch.shape[0] > bucket:
        raise ValueError(f"batch of {batch.shape[0]} does not fit bucket {bucket}")
    if batch.shape[0] == bucket:
        return batch
    pad = np.repeat(batch[-1:], bucket - batch.shape[0], axis=0)
    return np.concatenate([batch, pad], axis=0)


class MicroBatcher:
    """Coalesce single-sample requests into batches under three watermarks.

    Requests land in per-priority lanes; :meth:`next_batch` drains the
    highest-priority lane first and orders each lane earliest-deadline-
    first.  Expired requests are shed (typed :class:`DeadlineExceeded` on
    their result slot) rather than dispatched.

    Args:
        max_batch_size: Size watermark — flush as soon as this many
            requests wait across all lanes.
        max_wait_seconds: Time watermark — flush once the oldest waiting
            request has aged this long; also the slack under which a
            pending deadline forces an early flush.
        on_expire: Optional callback ``(n_shed,)`` invoked (outside the
            batcher lock is NOT guaranteed; keep it cheap) whenever
            requests are shed, used by the server for stats accounting.
    """

    def __init__(
        self,
        max_batch_size: int = 64,
        max_wait_seconds: float = 0.002,
        on_expire: Optional[Callable[[int], None]] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.on_expire = on_expire
        #: Count of requests shed with :class:`DeadlineExceeded`.
        self.expired = 0
        self._lanes: Dict[int, List[InferenceRequest]] = {}
        # Queued requests, and how many of them carry a deadline (both
        # guarded by the lock).  While none does, lanes stay in arrival
        # order — nothing can expire, EDF is FIFO, and the oldest request
        # is a lane head — so a wake-up costs O(lanes), not O(queued).
        self._queued = 0
        self._deadlined = 0
        # One lock under two names: ``with self._lock`` enters it without
        # the Condition wrapper's Python-level __enter__ (the submit path).
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._closed = False

    # -- producer side ------------------------------------------------------------
    def submit(
        self,
        sample: np.ndarray,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        trace: Optional[object] = None,
    ) -> Future:
        """Enqueue one sample; the returned future resolves to its result.

        The ``n = 1`` case of :meth:`submit_many`, completing into a
        :class:`concurrent.futures.Future`.
        """
        return self.submit_many(
            (sample,),
            priority=priority,
            deadline_ms=deadline_ms,
            traces=None if trace is None else (trace,),
            completion=FutureSlot(),
        )

    def submit_many(
        self,
        samples: Sequence[np.ndarray],
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        traces: Optional[Sequence] = None,
        completion=None,
    ) -> BatchCompletion:
        """Enqueue a caller batch atomically: one lock round, one notify.

        All rows share the lane, the deadline budget and one enqueue
        timestamp, and land in the queue together or (on a closed
        batcher) not at all.

        Args:
            samples: The request samples, one result slot each.
            priority: Lane selector; higher flushes first (default 0).
            deadline_ms: Optional budget in milliseconds from now; a row
                resolves to :class:`DeadlineExceeded` if it expires
                before dispatch.
            traces: Optional trace contexts, one per sample, to ride
                along on the requests.
            completion: Where the results go (slot ``i`` for sample
                ``i``); a fresh :class:`BatchCompletion` by default.

        Returns:
            ``completion``.
        """
        n = len(samples)
        if completion is None:
            completion = BatchCompletion(n)
        priority = int(priority)
        if traces is None:
            traces = [None] * n
        with self._lock:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            now = time.monotonic()
            requests = [
                InferenceRequest(
                    np.asarray(sample), priority, deadline_ms, now, trace, completion, slot
                )
                for slot, (sample, trace) in enumerate(zip(samples, traces))
            ]
            lane = self._lanes.get(priority)
            if lane is None:
                self._lanes[priority] = requests
            else:
                lane += requests
            self._queued += n
            if deadline_ms is not None:
                self._deadlined += n
            self._cond.notify_all()
        return completion

    def __len__(self) -> int:
        with self._cond:
            return self._queued

    @property
    def closed(self) -> bool:
        return self._closed

    # -- request hand-off ---------------------------------------------------------
    def drain_requests(self) -> List[InferenceRequest]:
        """Remove and return every queued request (for batcher hand-over).

        Used when a batcher is replaced while no feeder is draining it
        (e.g. re-registering a model on a stopped server): the successor
        batcher :meth:`adopt`\\ s the requests so none are orphaned.
        """
        with self._cond:
            requests = [
                request for lane in self._lanes.values() for request in lane
            ]
            self._lanes.clear()
            self._queued = self._deadlined = 0
            return requests

    def adopt(self, requests: List[InferenceRequest]) -> None:
        """Take over already-submitted requests, keeping their metadata.

        Enqueue timestamps, priorities and deadlines are preserved, so
        adopted requests age (and shed) as if they had never moved.
        """
        with self._cond:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            for request in requests:
                self._lanes.setdefault(request.priority, []).append(request)
            self._queued += len(requests)
            self._deadlined += sum(request.deadline_ms is not None for request in requests)
            if requests:
                self._cond.notify_all()

    # -- shedding -----------------------------------------------------------------
    def _shed_expired(self, now: float) -> None:
        """Drop expired requests, resolving their slots with the typed error.

        Caller must hold the lock.  Accounting (``expired`` counter and
        the ``on_expire`` callback) runs before the slots resolve — see
        :func:`shed_expired` — so stats reads taken after observing a
        shed never miss it.
        """

        def account(n_shed: int) -> None:
            self.expired += n_shed
            if self.on_expire is not None:
                self.on_expire(n_shed)

        for priority in list(self._lanes):
            live, n_shed = shed_expired(self._lanes[priority], now, on_shed=account)
            self._queued -= n_shed
            self._deadlined -= n_shed
            if live:
                self._lanes[priority] = live
            else:
                del self._lanes[priority]

    # -- consumer side ------------------------------------------------------------
    def next_batch(self, timeout: Optional[float] = None) -> Optional[List[InferenceRequest]]:
        """Block until a batch is ready and return it.

        Returns ``None`` when ``timeout`` elapses with an empty queue, or
        when the batcher is closed and fully drained.  After ``close`` the
        remaining (unexpired) requests are still released in batches so
        shutdown never drops work.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                if self._deadlined:
                    self._shed_expired(now)
                if self._queued:
                    if self._queued >= self.max_batch_size or self._closed:
                        return self._pop_batch()
                    # The EDF sort of a partial pop leaves a lane out of
                    # arrival order, so heads are only the oldest while
                    # no queued request carries a deadline.
                    candidates = (
                        (request for lane in self._lanes.values() for request in lane)
                        if self._deadlined
                        else (lane[0] for lane in self._lanes.values())
                    )
                    age = now - min(request.enqueued_at for request in candidates)
                    if age >= self.max_wait_seconds:
                        return self._pop_batch()
                    # Wake up when the time watermark for the oldest
                    # request trips (or earlier, if new requests arrive).
                    wake = self.max_wait_seconds - age
                    if self._deadlined:
                        # Deadline watermark: flush early if waiting out the
                        # time watermark would eat a pending deadline's slack.
                        slack = min(
                            request.deadline_at
                            for lane in self._lanes.values()
                            for request in lane
                            if request.deadline_ms is not None
                        ) - now - self.max_wait_seconds
                        if slack <= 0:
                            return self._pop_batch()
                        wake = min(wake, slack)
                    self._cond.wait(max(wake, 1e-4))
                else:
                    if self._closed:
                        return None
                    if deadline is None:
                        self._cond.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return None
                        self._cond.wait(remaining)

    def _pop_batch(self) -> List[InferenceRequest]:
        """Assemble one batch: priority lanes high-to-low, EDF within a lane.

        Caller must hold the lock and have shed expired requests.
        """
        batch: List[InferenceRequest] = []
        for priority in sorted(self._lanes, reverse=True):
            room = self.max_batch_size - len(batch)
            if room <= 0:
                break
            lane = self._lanes[priority]
            if self._deadlined:
                lane = sorted(lane, key=_flush_key)
            batch.extend(lane[:room])
            if room >= len(lane):
                del self._lanes[priority]
            else:
                self._lanes[priority] = lane[room:]
        self._queued -= len(batch)
        if self._deadlined:
            self._deadlined -= sum(request.deadline_ms is not None for request in batch)
        return batch

    def close(self) -> None:
        """Stop accepting requests; queued work remains drainable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
