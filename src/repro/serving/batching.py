"""Dynamic micro-batching of caller batches.

Callers arrive with batches of any size — one row from ``submit``, an
``(n, *sample_shape)`` block from ``submit_many`` — and the batched kernel
path wants whole hypermatrices.  :class:`MicroBatcher` sits between the
two: each caller batch queues as one :class:`Segment` in a **priority
lane**, and queued rows are released as one batch when a watermark trips —

* **size**: ``max_batch_size`` rows are waiting across all lanes,
* **time**: the oldest waiting row has aged ``max_wait_seconds``, or
* **deadline**: some row's deadline is within ``max_wait_seconds`` of
  expiring, so waiting any longer risks shedding it.

The size watermark bounds per-batch work, the time watermark bounds the
latency cost a lightly-loaded service pays for batching, and the deadline
watermark keeps tightly-deadlined requests from losing their whole budget
to coalescing.

Batches are assembled highest-priority-lane first and, within a lane,
**earliest-deadline-first** (segments without a deadline flush after
deadlined ones, in arrival order).  A segment is split only where the
size watermark cuts it; every row of a segment shares its enqueue time
and deadline, so a stable sort of segments orders rows exactly as queuing
them one by one would.  Counters count rows.  An expired segment is never
dispatched: it is *shed* — its slots resolve to a typed
:class:`DeadlineExceeded` error, reported through ``on_expire`` so
:class:`~repro.serving.metrics.ServerStats` can account for it.

Compiled programs are traced per bucket (:func:`bucket_for`), a small set
of row capacities, so the program cache stays small; a batch runs its own
rows in the smallest bucket that holds them, unpadded.  :func:`pad_batch`
builds the full-bucket block a padded run would have executed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.serving.completion import BatchCompletion, FutureSlot

__all__ = [
    "BatcherClosed",
    "DeadlineExceeded",
    "MicroBatcher",
    "Segment",
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
class Segment:
    """A run of one caller batch's rows, queued as one unit (compared
    by identity).

    Attributes:
        block: The rows, an ``(n, *sample_shape)`` array.
        priority: Lane selector; higher priorities flush first.  The
            default lane is 0 and negative priorities are allowed.
        deadline_ms: Optional latency budget in milliseconds from
            enqueue, shared by every row.
        enqueued_at: ``time.monotonic()`` timestamp at submission.
        traces: Optional per-row trace contexts; the batcher only fails
            them on shed, the broker records the spans.
        completion / first: Where the rows' results go:
            ``completion.settle(segment.slots, ...)``.
    """

    block: np.ndarray
    priority: int = 0
    deadline_ms: Optional[float] = None
    enqueued_at: float = field(default_factory=time.monotonic)
    traces: Optional[Sequence] = None
    completion: Optional[object] = None
    first: int = 0

    @property
    def slots(self) -> range:
        """The completion slots this segment's rows fill."""
        return range(self.first, self.first + len(self.block))

    @property
    def deadline_at(self) -> Optional[float]:
        """Absolute monotonic deadline, or ``None`` for no deadline."""
        if self.deadline_ms is None:
            return None
        return self.enqueued_at + self.deadline_ms / 1e3

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the segment's deadline has passed."""
        deadline = self.deadline_at
        if deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= deadline

    def split(self, rows: int) -> "Segment":
        """Cut the first ``rows`` rows off as a new segment; this one keeps
        the rest, with its place, timestamp, deadline and trace slice."""
        traces = self.traces
        head = replace(self, block=self.block[:rows], traces=traces and traces[:rows])
        self.block, self.first = self.block[rows:], self.first + rows
        self.traces = traces and traces[rows:]
        return head


def _flush_key(segment: Segment) -> tuple:
    """Within-lane flush order: earliest deadline first, then FIFO."""
    deadline = segment.deadline_at
    return (deadline if deadline is not None else float("inf"), segment.enqueued_at)


def fail_segments(segments: List[Segment], error: BaseException) -> None:
    """Resolve every segment's slots with ``error``: traces are failed (and
    broker-owned ones finished) first, then one ``settle`` per segment —
    the single definition of how requests die."""
    reason = f"{type(error).__name__}: {error}"
    for segment in segments:
        for trace in segment.traces or ():
            trace.fail(reason)
            trace.finish_owned()
    for segment in segments:
        segment.completion.settle(segment.slots, error=error)


def shed_expired(
    segments: List[Segment],
    now: Optional[float] = None,
    on_shed: Optional[Callable[[int], None]] = None,
) -> "tuple[List[Segment], int]":
    """Split segments into (live, rows shed), failing the expired ones.

    The single definition of shed semantics: every expired segment's
    slots resolve to a typed :class:`DeadlineExceeded` here, whether the
    shed happens in the batcher lanes or later in the dispatcher.

    ``on_shed`` (the stats-accounting hook) is invoked with the shed row
    count **before** the slots resolve, so a caller that observes a row's
    ``DeadlineExceeded`` sees that shed in the next metrics snapshot.
    """
    if not any(segment.deadline_ms is not None for segment in segments):
        return segments, 0  # nothing can expire: skip the per-segment clock checks
    now = time.monotonic() if now is None else now
    live: List[Segment] = []
    expired: List[Segment] = []
    for segment in segments:
        (expired if segment.expired(now) else live).append(segment)
    n_shed = sum(len(segment.block) for segment in expired)
    if n_shed and on_shed is not None:
        on_shed(n_shed)
    for segment in expired:
        message = (
            f"request shed after {(now - segment.enqueued_at) * 1e3:.1f}ms "
            f"(deadline {segment.deadline_ms}ms)"
        )
        fail_segments([segment], DeadlineExceeded(message))
    return live, n_shed


def bucket_for(size: int, max_batch_size: int) -> int:
    """Round a batch size up to the next power-of-two bucket.

    Buckets cap the number of compiled program variants at
    ``log2(max_batch_size) + 1``; a batch runs its own rows in its bucket's
    program, so the cap costs no padding work.
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

    Serving runs a batch's own rows (a bucket is a capacity); this builds
    the full-bucket block for callers that time or check a padded run.
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
    """Coalesce caller batches into row batches under three watermarks.

    Segments land in per-priority lanes; :meth:`next_batch` drains the
    highest-priority lane first and orders each lane earliest-deadline-
    first.  Expired segments are shed (typed :class:`DeadlineExceeded` on
    their result slots) rather than dispatched.

    Args:
        max_batch_size: Size watermark — flush as soon as this many
            rows wait across all lanes.
        max_wait_seconds: Time watermark — flush once the oldest waiting
            row has aged this long; also the slack under which a pending
            deadline forces an early flush.
        on_expire: Optional callback ``(n_shed,)`` invoked (outside the
            batcher lock is NOT guaranteed; keep it cheap) whenever rows
            are shed, used by the server for stats accounting.
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
        #: Count of rows shed with :class:`DeadlineExceeded`.
        self.expired = 0
        self._lanes: Dict[int, List[Segment]] = {}
        # Queued rows, and how many of them carry a deadline (both
        # guarded by the lock).  While none does, lanes stay in arrival
        # order — nothing can expire, EDF is FIFO, and the oldest segment
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

        The ``n = 1`` case of :meth:`submit_many` on a one-row view,
        completing into a :class:`concurrent.futures.Future`.
        """
        return self.submit_many(
            np.asarray(sample)[None],
            priority=priority,
            deadline_ms=deadline_ms,
            traces=None if trace is None else (trace,),
            completion=FutureSlot(),
        )

    def submit_many(
        self,
        samples,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        traces: Optional[Sequence] = None,
        completion=None,
    ) -> BatchCompletion:
        """Enqueue a caller batch atomically as one segment: one lock
        round, one notify.

        All rows share the lane, the deadline budget and one enqueue
        timestamp, and land in the queue together or (on a closed
        batcher) not at all.

        Args:
            samples: The rows, one result slot each: an ``(n,
                *sample_shape)`` array, queued as is.
            priority: Lane selector; higher flushes first (default 0).
            deadline_ms: Optional budget in milliseconds from now; the
                rows resolve to :class:`DeadlineExceeded` if they expire
                before dispatch.
            traces: Optional trace contexts, one per row, to ride along.
            completion: Where the results go (slot ``i`` for row ``i``);
                a fresh :class:`BatchCompletion` by default.

        Returns:
            ``completion``.
        """
        block = np.asarray(samples)
        n = len(block)
        if completion is None:
            completion = BatchCompletion(n)
        priority = int(priority)
        with self._lock:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            if n:  # an empty caller batch is already complete
                self._lanes.setdefault(priority, []).append(
                    Segment(block, priority, deadline_ms, time.monotonic(), traces, completion)
                )
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

    # -- segment hand-off ---------------------------------------------------------
    def drain_segments(self) -> List[Segment]:
        """Remove and return every queued segment (for batcher hand-over).

        Used when a batcher is replaced while no feeder is draining it
        (e.g. re-registering a model on a stopped server): the successor
        batcher :meth:`adopt`\\ s the segments so none are orphaned.
        """
        with self._cond:
            segments = [segment for lane in self._lanes.values() for segment in lane]
            self._lanes.clear()
            self._queued = self._deadlined = 0
            return segments

    def adopt(self, segments: List[Segment]) -> None:
        """Take over already-submitted segments, keeping their metadata.

        Enqueue timestamps, priorities and deadlines are preserved, so
        adopted rows age (and shed) as if they had never moved.
        """
        with self._cond:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            for segment in segments:
                self._lanes.setdefault(segment.priority, []).append(segment)
            self._queued += sum(len(s.block) for s in segments)
            self._deadlined += sum(len(s.block) for s in segments if s.deadline_ms is not None)
            if segments:
                self._cond.notify_all()

    # -- shedding -----------------------------------------------------------------
    def _shed_expired(self, now: float) -> None:
        """Drop expired segments, resolving their slots with the typed error.

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
    def next_batch(self, timeout: Optional[float] = None) -> Optional[List[Segment]]:
        """Block until a batch is ready and return its segments.

        Returns ``None`` when ``timeout`` elapses with an empty queue, or
        when the batcher is closed and fully drained.  After ``close`` the
        remaining (unexpired) rows are still released in batches so
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
                    # no queued segment carries a deadline.
                    candidates = (
                        (segment for lane in self._lanes.values() for segment in lane)
                        if self._deadlined
                        else (lane[0] for lane in self._lanes.values())
                    )
                    age = now - min(segment.enqueued_at for segment in candidates)
                    if age >= self.max_wait_seconds:
                        return self._pop_batch()
                    # Wake up when the time watermark for the oldest
                    # row trips (or earlier, if new segments arrive).
                    wake = self.max_wait_seconds - age
                    if self._deadlined:
                        # Deadline watermark: flush early if waiting out the
                        # time watermark would eat a pending deadline's slack.
                        slack = min(
                            segment.deadline_at
                            for lane in self._lanes.values()
                            for segment in lane
                            if segment.deadline_ms is not None
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

    def _pop_batch(self) -> List[Segment]:
        """Assemble one batch: priority lanes high-to-low, EDF within a lane.

        Caller must hold the lock and have shed expired segments.
        """
        batch: List[Segment] = []
        room = self.max_batch_size
        for priority in sorted(self._lanes, reverse=True):
            lane = self._lanes[priority]
            if self._deadlined:
                lane.sort(key=_flush_key)
            taken = 0
            for segment in lane:
                rows = len(segment.block)
                if rows > room:
                    break
                room -= rows
                taken += 1
            batch += lane[:taken]
            if taken < len(lane) and room:
                batch.append(lane[taken].split(room))
                room = 0
            del lane[:taken]
            if not lane:
                del self._lanes[priority]
            if not room:
                break
        self._queued -= self.max_batch_size - room
        if self._deadlined:
            self._deadlined -= sum(
                len(segment.block) for segment in batch if segment.deadline_ms is not None
            )
        return batch

    def close(self) -> None:
        """Stop accepting requests; queued work remains drainable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
