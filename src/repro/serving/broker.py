"""The transport-agnostic request core of the serving runtime.

:class:`RequestBroker` owns the whole submit→batch→schedule→dispatch→settle
path and speaks **completions** (:mod:`repro.serving.completion`) at its
boundary — the caller's batch is the unit of work:
:meth:`RequestBroker.submit_many` enqueues ``n`` samples in one round and
returns one ``BatchCompletion``; :meth:`RequestBroker.submit` is the
``n = 1`` case of the same path, completing into a future.  Everything
above the broker is a *front end* adapting a caller interface onto that:

* :class:`repro.serving.server.InferenceServer` — the synchronous
  in-process API (``submit`` / ``infer`` / ``infer_many``), a thin
  adapter over a broker it owns;
* :mod:`repro.serving.transport` — the asyncio socket front end, which
  bridges completions onto awaitables (one loop wake-up per frame) so
  many network clients coalesce into the same micro-batches.

Request flow: the caller's batch (optionally with a ``priority`` lane and
a ``deadline_ms`` budget) is validated once and enters the model's
:class:`~repro.serving.batching.MicroBatcher` as one segment.  That is the
first of two thread hand-offs; no thread sits between the batcher and the
workers.  Each worker thread *pulls*: when it is free it looks at the
lanes whose deployment its target can run, keeps those whose batcher has
released a batch (size watermark, time watermark, or closed and
draining), and serves the lane the
:class:`~repro.serving.scheduler.FairScheduler` picks (weighted
round-robin with starvation aging).  A worker takes work only when it can
run it, so a hot model's backlog waits in its batcher, where the next
pull can still interleave a cold model's batch.  When nothing is
released, the workers wait on the pool's one condition, which every
submit, close, swap and stop notifies, for at most the earliest time
watermark.  The worker runs a batch that is exactly one segment on the
caller's memory (any other batch is one concatenate), runs its rows,
unpadded, through the warm :class:`~repro.backends.BoundProgram` handle of
the smallest power-of-two bucket that holds them (compiled at most once
per bucket via the shared program cache), and settles the executed batch
as a whole: one metrics round, then one ``settle`` per segment (a slice),
which wakes the caller — the second hand-off.

A sharded deployment's batch fans out from the worker that took it to
the inboxes of its N pinned workers (a worker serves its inbox before it
pulls), each searching its slice of the class memory through the same
execute body, and the last shard to finish reduces the gathered partial
scores back into predictions (see
:class:`~repro.serving.registry.Deployment`).

Requests whose deadline expires before a worker takes them are shed with a typed
:class:`~repro.serving.batching.DeadlineExceeded` error and counted in
``ServerStats.deadline_exceeded``.  Per deployment, the broker records the
queue-wait vs execute latency split and enforces the optional SLO
violation counter (see :mod:`repro.serving.metrics`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.serving.batching import (
    BatcherClosed,
    MicroBatcher,
    bucket_for,
    bucket_ladder,
    fail_segments,
)
from repro.serving.completion import BatchCompletion, FutureSlot
from repro.serving.metrics import ServerStats, ServingMetrics
from repro.serving.observability.catalogue import emit
from repro.serving.observability.trace import RequestTracer, SharedMarks, TraceContext
from repro.serving.registry import Deployment, ModelRegistry, StaleVersionError
from repro.serving.scheduler import BatchWork, FairScheduler, ShardGather, Worker, WorkerPool
from repro.serving.servable import Servable

__all__ = ["RequestBroker"]

#: Sentinel for swap()'s "keep the current setting" defaults (None is a
#: meaningful value for slo_ms: it clears the SLO).
_KEEP = object()

#: Swap-round kind -> how the replacement servable is derived.
_DERIVE = {"update": Servable.updated, "append": Servable.appended}


class _Queue(NamedTuple):
    """One installed request queue: the deployment its requests execute
    against, its batcher, and the pool's workers that can run it."""

    deployment: Deployment
    batcher: MicroBatcher
    workers: FrozenSet[Worker]


class RequestBroker:
    """The completion-speaking submit→batch→schedule→dispatch→settle core.

    Args:
        registry: Deployment lookup (and the shared compile cache).
        pool: The worker pool executing dispatched batches.
        max_batch_size: Micro-batching size watermark.
        max_wait_seconds: Micro-batching time watermark.
        tracing: Enable per-request tracing: every submitted request
            carries a :class:`~repro.serving.observability.TraceContext`
            whose contiguous spans (queue → batch → schedule → dispatch →
            execute → settle, with per-stage children) tile its lifetime;
            completed traces land in :attr:`tracer` under tail-based
            sampling.  Front ends may also pass their own ``trace`` into
            :meth:`submit` (they then own its completion).
        trace_capacity: Per-ring trace retention of the tracer.
        trace_sample_every: Keep 1-in-N healthy traces (errors and SLO
            violators are always retained).
        update_log: Optional :class:`~repro.serving.update_log.UpdateLog`;
            when set, every successful :meth:`update` round appends the
            labelled mini-batch it applied (and the version it produced),
            making served versions rebuildable by replaying the log into
            a freshly registered baseline.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        pool: WorkerPool,
        max_batch_size: int = 64,
        max_wait_seconds: float = 0.002,
        tracing: bool = False,
        trace_capacity: int = 512,
        trace_sample_every: int = 1,
        update_log=None,
    ):
        self.registry = registry
        self.pool = pool
        #: Optional :class:`~repro.serving.update_log.UpdateLog`: every
        #: successful :meth:`update` round appends its mini-batch (after
        #: the hot-swap lands), so a restarted broker can
        #: :meth:`~repro.serving.update_log.UpdateLog.replay` the log and
        #: rebuild the exact served versions bit-identically.
        self.update_log = update_log
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.metrics = ServingMetrics()
        #: The bounded trace ring (``None`` when tracing is disabled).
        self.tracer: Optional[RequestTracer] = (
            RequestTracer(capacity=trace_capacity, sample_every=trace_sample_every)
            if tracing
            else None
        )
        self._scheduler = FairScheduler()
        #: The pool's one condition guards the lanes, every batcher (they
        #: share it) and the worker inboxes.
        self._cond = pool.cond
        #: Each model's queues, oldest first: the queues hot-swaps retired,
        #: still draining, then the live one.  A queue pins the deployment
        #: it was installed for, so its requests execute against exactly
        #: that deployment, whatever the registry says later.
        self._lanes: Dict[str, List[_Queue]] = {}
        #: Pinned shard→worker plans, ``name -> ((version, n_shards),
        #: plan)``, read and written under the condition.
        self._placements: dict = {}
        self._weights: dict = {}
        self._running = False
        # Serializes whole online-update rounds (read state -> retrain ->
        # swap), so two concurrent update() calls of one model compose
        # instead of one clobbering the other's training step.
        self._update_lock = threading.Lock()
        # Outstanding-request accounting behind drain(): every submitted
        # slot counts until it resolves (result, failure or shed).
        self._outstanding = 0
        self._drainers = 0  # drain() calls waiting: a settle notifies only them
        self._drain_lock = threading.Lock()  # entered directly on the request path
        self._drain_cond = threading.Condition(self._drain_lock)

    @property
    def running(self) -> bool:
        return self._running

    @property
    def _batchers(self) -> dict:
        """Each model's live batcher: the last queue of its lane."""
        with self._cond:
            return {name: lane[-1].batcher for name, lane in self._lanes.items()}

    # -- model wiring -------------------------------------------------------------
    def add_model(
        self,
        deployment: Deployment,
        weight: float = 1.0,
        slo_ms: Optional[float] = None,
    ) -> None:
        """Set up (or replace) the request queue of one deployment.

        Re-adding under an existing name hot-swaps the model's queue.
        While running, the old batcher closes and stays in the model's
        lane until the workers have drained it (against the old
        deployment).  While stopped no worker drains it, so the new
        batcher adopts the queued requests instead — they resolve against
        the new deployment once the broker starts, never orphaned.

        Args:
            weight: Fair-scheduler share.  Under contention a deployment
                receives batches proportionally to its weight, with
                starvation aging protecting low-weight lanes.
            slo_ms: Optional end-to-end latency SLO; served requests
                exceeding it are counted per model in
                ``ServerStats.model_stats[name]["slo_violations"]``.
        """
        with self._cond:
            swapped = self._install_queue_locked(deployment, float(weight), slo_ms)
        if swapped:
            self.metrics.record_swap(deployment.name, deployment.version)
        emit(
            "register", model=deployment.name, version=deployment.version,
            shards=deployment.n_shards,
        )
        # Recorded unconditionally: installing an unpacked deployment over
        # a packed one must clear the stale residency document.  Eagerly
        # materialized (ensure_packed, not residency) so the class-memory
        # gauges reflect the installed constant bytes immediately even for
        # an unwarmed deployment, not lazily at the next stats() pass.
        self.metrics.record_residency(deployment.name, deployment.ensure_packed())

    def swap(
        self,
        deployment: Deployment,
        weight=_KEEP,
        slo_ms=_KEEP,
    ) -> None:
        """Hot-swap a live model's queue onto a replacement deployment.

        The safe swap path: the replacement batcher is installed first
        (so :meth:`submit`'s locked fetch + retry-on-closed hands every
        new request to it), and only then is the old batcher closed —
        which never drops work: the old queue stays at the head of the
        model's lane, closed and so released batch by batch, and its
        requests execute against the *old* deployment (each queue pins
        the deployment it was installed for); the workers drop it once it
        is empty.  The old deployment therefore quiesces exactly when its
        in-flight requests have settled, while the new one is already
        serving — zero downtime, zero drops.

        Call :meth:`ModelRegistry.swap` (which bumps the version) before
        this; or use :meth:`update`, which orchestrates the whole round.

        Args:
            weight / slo_ms: Omitted values keep the model's current
                fair-scheduler share / SLO threshold (``slo_ms=None``
                explicitly clears the SLO).

        Raises:
            KeyError: The model has no live queue (use :meth:`add_model`).
        """
        name = deployment.name
        with self._cond:
            if name not in self._lanes:
                raise KeyError(
                    f"no model {name!r} to swap (have {sorted(self._lanes)})"
                )
            new_weight = self._weights.get(name, 1.0) if weight is _KEEP else float(weight)
            self._install_queue_locked(deployment, new_weight, slo_ms)
        self.metrics.record_swap(name, deployment.version)
        # Eager: the swapped-in constants' packed bytes are gauged now, at
        # swap time, even if the replacement was never warmed.
        self.metrics.record_residency(name, deployment.ensure_packed())

    def _install_queue_locked(self, deployment: Deployment, weight: float, slo_ms) -> bool:
        """Install a fresh queue for one deployment (caller holds the
        condition); returns whether an existing queue was replaced.

        Replace-then-close ordering: the new batcher is in the lane before
        the old one closes, so a concurrent :meth:`submit` that loses the
        race against the close finds the replacement on its first retry.
        """
        name = deployment.name
        lane = self._lanes.setdefault(name, [])
        queue = _Queue(
            deployment, self._make_batcher(name), frozenset(self.pool.eligible(deployment.servable))
        )
        lane.append(queue)
        replaced = len(lane) > 1
        if replaced:
            old = lane[-2].batcher
            # Close BEFORE draining: a concurrent submit that already
            # fetched the old batcher now gets BatcherClosed and retries
            # into the replacement (installed above).  The reverse order
            # leaves a window — drain, racing enqueue succeeds, close —
            # that orphans the racing request in a batcher nothing will
            # ever drain or adopt again.
            old.close()
            if not self._running:  # no worker drains it: the replacement adopts its rows
                queue.batcher.adopt(old.drain_segments())
                del lane[-2]
        self._weights[name] = float(weight)
        if slo_ms is not _KEEP:  # the threshold is a ``keeps`` row: untouched, it stays
            self.metrics.set_slo(name, slo_ms)
        self._scheduler.ensure_lane(name, weight)
        return replaced

    def _make_batcher(self, name: str) -> MicroBatcher:
        return MicroBatcher(
            max_batch_size=self.max_batch_size,
            max_wait_seconds=self.max_wait_seconds,
            on_expire=partial(self.metrics.record_expired, model=name),
            cond=self._cond,
        )

    # -- online re-training -------------------------------------------------------
    def update(self, model: str, samples: np.ndarray, labels: np.ndarray) -> int:
        """One online re-training round; returns the new model version.

        Orchestrates the whole streaming-retraining step:

        1. apply the servable's ``update_batch`` rule to the labelled
           mini-batch (:meth:`Servable.updated` — the same callable an
           offline retrain uses, so the resulting state is bit-identical);
        2. build a same-shaped replacement deployment and bind its serving
           buckets on every eligible worker — the updated servable keeps
           its signature, so every bucket is a cache hit re-bound to the
           new constants, never a compile;
        3. bump the registry version (:meth:`ModelRegistry.swap`) and
           install the replacement queue (:meth:`swap`) — new requests
           cut over immediately, in-flight requests settle against the
           old version.

        Rounds are serialized per broker, so concurrent updates compose
        (each trains on top of the previous round's state) instead of
        clobbering one another.

        Raises:
            NotUpdatableError: The servable carries no update rule.
            KeyError: ``model`` is not registered (or has no live queue).
            RuntimeError: The model was re-registered concurrently during
                the round (the registry's compare-and-swap guard refused
                to clobber the newer deployment); re-issue the update.
        """
        return self._swap_round("update", model, samples, labels)

    # -- append-style growth ------------------------------------------------------
    def append(self, model: str, rows: np.ndarray) -> int:
        """One shape-changing growth round; returns the new model version.

        The append-side twin of :meth:`update`, for servables whose online
        mutation is *growth* (new k-mer buckets, new reference spectra,
        new centroids) rather than re-training.  Same zero-downtime
        choreography — grow (:meth:`Servable.appended`), rebuild the
        deployment for the new shapes, warm the full bucket ladder on
        every eligible worker, version-bump + CAS, queue cutover — but the
        replacement's program family is re-traced for the grown shapes
        (the signature changes on every round, so the old family's cache
        entries are evicted, shard derivatives included), packed class
        memories are repacked from the grown constants and the residency
        gauges refreshed at swap time, and a sharded deployment whose
        grown constant crosses its ``shard_capacity`` re-partitions live
        (:meth:`Deployment.with_servable`).

        Raises:
            NotAppendableError: The servable carries no append rule.
            KeyError: ``model`` is not registered (or has no live queue).
            RuntimeError: The model was re-registered concurrently during
                the round (compare-and-swap refused); re-issue the append.
        """
        return self._swap_round("append", model, rows)

    def _swap_round(self, kind: str, model: str, *arrays: np.ndarray) -> int:
        """The one swap round behind :meth:`update` and :meth:`append`:
        derive, build, warm, compare-and-swap + queue cutover, log, evict —
        each one step of a :class:`TraceContext` cursor, so the phases tile
        the round by construction.  The round lands in the model's
        ``swap_round`` / ``swap_profile`` rows and a ``swap`` event, tracing
        on or off, and never in the rings :meth:`traces` returns."""
        with self._update_lock:
            clock = TraceContext(model)
            with self._cond:
                # Checked before any registry mutation: a model known to
                # the registry but without a live queue here must fail
                # cleanly, not leave a bumped version no queue serves.
                if model not in self._lanes:
                    raise KeyError(
                        f"no model {model!r} with a live queue to {kind} "
                        f"(have {sorted(self._lanes)})"
                    )
            deployment = self.registry.get(model)
            new_servable = _DERIVE[kind](deployment.servable, *arrays)
            clock.step("derive")
            replacement = deployment.with_servable(new_servable)
            clock.step("build")
            buckets = self._swap_warm_buckets()
            for worker in self.pool.eligible(new_servable):
                replacement.warm(buckets, worker=worker)
            clock.step("warm")
            # Compare-and-swap against the deployment this round derived
            # from: a concurrent re-register under the same name refuses
            # the swap instead of being clobbered by a stale derivation.
            version = self.registry.swap(model, replacement, expected=deployment)
            self.swap(replacement)
            clock.step("swap")
            if self.update_log is not None:
                # Logged only after the swap landed, so the log never
                # describes a version that failed to serve.  (During
                # UpdateLog.replay the hook is a no-op — replayed rounds
                # are already in the log.)
                self.update_log.write(kind, model, *arrays, version=version)
            clock.step("log")
            if deployment.servable.signature != new_servable.signature:
                # Growth re-traced the family for new shapes, so the
                # replaced signature's compiled programs can never hit
                # again; reclaim them so periodic rounds don't grow the
                # cache without bound — evict_signature's prefix match
                # also drops the ":shardIofN" derivatives of a sharded
                # deployment.  (An update inherits the signature: its
                # programs are the ones just re-bound.)  In-flight batches
                # of the old deployment are unaffected: their handles are
                # already bound.
                self.registry.cache.evict_signature(deployment.servable.signature)
            clock.step("evict")
            phases = {span.name: span.duration for span in clock.spans}
            self.metrics.record_swap_round(model, kind, phases)
            emit(
                "swap", model=model, kind=kind, version=version,
                duration_ms=round(clock.duration * 1e3, 3),
                phases_ms={phase: round(seconds * 1e3, 3) for phase, seconds in phases.items()},
            )
            return version

    def _swap_warm_buckets(self) -> list:
        """Every bucket the swapped-in deployment can serve.

        The whole power-of-two ladder (not just ``{1, max}``): a swapped-in
        deployment starts with no handles, so any unwarmed bucket would be
        a bind (an update) or a compile (growth's new shapes) *on the
        request path* after every swap — exactly the latency spike a
        zero-downtime swap must not introduce.
        """
        return bucket_ladder(self.max_batch_size, full=True)

    def model_versions(self) -> dict:
        """``{name: version}`` for every deployment with a live queue."""
        return {name: self.registry.version(name) for name in self.model_names()}

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "RequestBroker":
        """Start (or restart) the worker threads."""
        with self._cond:
            if self._running:
                return self
            self._running = True
            for name, lane in self._lanes.items():
                live = lane[-1]
                if live.batcher.closed:  # restarted after stop(): reopen the queue
                    reopened = self._make_batcher(name)
                    reopened.adopt(live.batcher.drain_segments())
                    lane[-1] = live._replace(batcher=reopened)
            self.pool.start(self._execute, self._pull)
        return self

    def stop(self) -> None:
        """Drain queued requests, then join the worker threads."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            for lane in self._lanes.values():
                lane[-1].batcher.close()  # closed batchers release what they hold
        self.pool.stop()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted request has resolved.

        "Resolved" covers successful results, failures and deadline sheds
        alike.  This is the idiom for reading a consistent
        :class:`ServerStats` snapshot while the broker keeps running.

        Raises:
            TimeoutError: The queue did not empty within ``timeout``
                seconds (e.g. the broker was never started).
        """
        with self._drain_cond:
            self._drainers += 1
            try:
                drained = self._drain_cond.wait_for(lambda: self._outstanding == 0, timeout)
            finally:
                self._drainers -= 1
            if not drained:
                raise TimeoutError(f"drain timed out with {self._outstanding} requests outstanding")

    # -- request path -------------------------------------------------------------
    def submit_many(
        self,
        model: str,
        samples: Iterable[np.ndarray],
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        traces: Optional[Sequence] = None,
        min_version: Optional[int] = None,
    ) -> BatchCompletion:
        """Enqueue a caller batch; returns its one completion.

        ``completion.result(timeout)`` waits once for all ``n`` rows and
        returns their results in order, or raises the first failure in
        slot order.  The rows share the micro-batcher with everyone
        else's, so they may execute in several batches.

        A C-contiguous ``(n, *sample_shape)`` array is validated by its
        shape and queued as is; other ``samples`` (a list of rows, a
        strided view) are validated row by row and stacked once.

        Safe against concurrent hot-swaps: the batcher is fetched under
        the broker lock, and losing the fetch→enqueue race against a
        swap closing that batcher retries against the replacement — all
        ``n`` rows land in the new queue, exactly once.  Only a batcher
        that closed *without* being replaced (a stopped broker) rejects,
        preserving the submit-after-stop contract.

        Drain accounting registers the rows *before* they are enqueued
        (and rolls back if validation or the enqueue raises), so a
        concurrent :meth:`drain` can never return while a just-submitted
        row is still in flight.

        Args:
            priority: Batching lane; higher-priority requests flush first.
            deadline_ms: Latency budget from now, in milliseconds.  A row
                resolves to :class:`DeadlineExceeded` if the budget runs
                out before it executes.
            traces: Optional caller-minted trace contexts, one per
                sample; the caller then owns their completion
                (``tracer.finish``).  Omitted with tracing enabled, the
                broker mints them and finishes each when its row settles.
            min_version: Version pin (read-your-writes across replicas):
                raise :class:`~repro.serving.registry.StaleVersionError`
                instead of enqueueing when the deployment is older —
                checked before any drain accounting, so a refused batch
                leaves no trace in the queues.
        """
        return self._submit(model, samples, priority, deadline_ms, traces, min_version)

    def submit(
        self,
        model: str,
        sample: np.ndarray,
        priority: int = 0,
        deadline_ms: Optional[float] = None,
        trace=None,
        min_version: Optional[int] = None,
    ) -> Future:
        """Enqueue one sample; returns a future resolving to its result.

        The batch of one (a one-row view): :meth:`submit_many`'s path and
        guarantees, the result slot wrapped in a :class:`concurrent.futures.Future`.
        """
        slot = FutureSlot()
        slot.on_settled = self._release
        traces = None if trace is None else (trace,)
        block = np.asarray(sample)[None]
        return self._submit(model, block, priority, deadline_ms, traces, min_version, slot)

    def _submit(self, model, samples, priority, deadline_ms, traces, min_version, completion=None):
        deployment = self.registry.get(model)
        if min_version is not None and deployment.version < int(min_version):
            raise StaleVersionError(deployment.name, deployment.version, int(min_version))
        servable, block = deployment.servable, samples
        if not (isinstance(block, np.ndarray) and block.ndim and block.flags.c_contiguous
                and block.shape[1:] == tuple(servable.sample_shape)):
            block = list(samples)  # rows: validated one by one below, then stacked once
        n = len(block)
        if completion is None:
            completion = BatchCompletion(n, self._release)
        if not n:
            return completion
        if traces is None and self.tracer is not None:
            # Broker-minted traces are finished in-line wherever their
            # request terminally settles (_resolve, an exception site, or
            # a deadline shed) — cheaper than a done-callback.
            traces = self.tracer.begin_many(model, n)
        with self._drain_lock:
            self._outstanding += n
        try:
            if isinstance(block, list):
                block = np.stack([servable.validate_sample(row) for row in block])
            self._enqueue(deployment.name, block, priority, deadline_ms, traces, completion)
        except BaseException as exc:  # never enqueued: roll the drain count back
            self._release(n)
            for trace in traces or ():
                trace.fail(f"{type(exc).__name__}: {exc}")
                trace.finish_owned()
            raise
        return completion

    def _enqueue(self, name: str, block, priority, deadline_ms, traces, completion) -> None:
        """Hand a validated block to the model's live batcher, retrying
        when a concurrent hot-swap closes the fetched batcher."""
        while True:
            with self._cond:
                batcher = self._lanes[name][-1].batcher
            try:
                batcher.submit_many(
                    block,
                    priority=priority,
                    deadline_ms=deadline_ms,
                    traces=traces,
                    completion=completion,
                )
                return
            except BatcherClosed:
                with self._cond:
                    replaced = self._lanes[name][-1].batcher is not batcher
                if not replaced:
                    # Closed without replacement: the broker stopped (or
                    # the model was torn down) — reject, don't spin.
                    raise
                # Same trace id across the retry: the hot-swap rerouting
                # is part of each request's one causal story, visible as
                # a span rather than a fresh trace.
                for trace in traces or ():
                    trace.step("retry", reason="batcher closed by hot-swap")

    def _release(self, count: int) -> None:
        """``count`` slots resolved (or were never enqueued)."""
        with self._drain_lock:
            self._outstanding -= count
            if self._outstanding == 0 and self._drainers:
                self._drain_cond.notify_all()

    def _fail(self, work: BatchWork, exc: BaseException) -> None:
        """Count and fail one batch (metrics before any slot resolves)."""
        self.metrics.record_failure(work.rows, work.deployment.name)
        fail_segments(work.segments, exc)

    # -- pull (worker threads) ----------------------------------------------------
    def _pull(self, worker: Worker) -> "tuple[Optional[BatchWork], Optional[float]]":
        """A free worker's next batch (:meth:`WorkerPool.start`'s ``pull``,
        called under the pool's condition with the worker's inbox empty).

        Among the lanes whose head queue this worker can run and whose
        batcher has released a batch, the fair scheduler picks one; the
        worker takes its batch (the batcher has just shed its expired
        segments, counted before their slots resolve).  A sharded batch
        goes to its pinned workers' inboxes instead.  Returns ``(work,
        None)``, or ``(None, wait)``: the seconds until the earliest time
        watermark among its lanes, ``None`` when nothing it can run is
        queued.
        """
        while True:
            now = time.monotonic()
            heads: Dict[str, float] = {}
            idle: List[str] = []
            wait = None
            for name, lane in self._lanes.items():
                while len(lane) > 1 and not len(lane[0].batcher):
                    del lane[0]  # a retired queue, drained
                queue = lane[0]
                if queue.workers and worker not in queue.workers:
                    continue
                release = queue.batcher.release_in(now)
                if release == 0.0:
                    heads[name] = queue.batcher.oldest()
                    continue
                idle.append(name)
                if release is not None and (wait is None or release < wait):
                    wait = release
            if not heads:
                return None, wait
            name = self._scheduler.pick(heads, now, idle)
            deployment, batcher, workers = self._lanes[name][0]
            work = BatchWork(deployment, batcher.pop_batch())
            # One cheap comprehension per batch is the whole tracing-off
            # overhead of the pipeline; the traced rows then share one
            # mark list.
            traced = [trace for segment in work.segments if segment.traces for trace in segment.traces]
            if traced:
                work.marks = SharedMarks(traced)
                work.marks.step("queue", now, {"batch_size": work.rows})
                work.marks.step("batch", time.monotonic(), {"model": name})
                work.marks.step("schedule", time.monotonic())
            if not workers:  # no worker in the pool runs it: every worker may fail it
                self._fail(work, RuntimeError(
                    f"no worker in the pool supports {deployment.servable.name!r} "
                    f"(targets {deployment.servable.supported_targets})"
                ))
            elif deployment.n_shards == 1:
                return work, None
            else:  # scatter: shard i to its pinned worker, one rendezvous
                gather = ShardGather(deployment.n_shards)
                for shard, pinned in enumerate(self._placement_for(deployment)):
                    self.pool.assign(pinned, BatchWork(deployment, work.segments, shard, gather, work.marks))
                if worker.inbox:  # a worker serves its inbox before it pulls
                    return None, None

    def _placement_for(self, deployment: Deployment) -> List[Worker]:
        """The deployment's pinned shard→worker plan, cached per version.

        Pinning is what makes sharding pay on accelerator workers: shard
        *i* always executes on the same worker, whose ``DeviceSession``
        keeps that slice of the class memory resident, so steady-state
        batches skip the constants transfer.  The plan itself
        (:meth:`WorkerPool.plan_scatter`) is deterministic, so the cache
        is purely to avoid re-sorting the pool on every batch; a hot-swap
        bumps ``deployment.version`` and naturally rolls the cache over
        to the replacement's (identical) plan.
        """
        key = (deployment.version, deployment.n_shards)
        cached = self._placements.get(deployment.name)
        if cached is None or cached[0] != key:
            plan = self.pool.plan_scatter(deployment.servable, deployment.n_shards)
            cached = (key, plan)
            self._placements[deployment.name] = cached
        return cached[1]

    # -- execution (worker threads) -----------------------------------------------
    def _execute(self, worker: Worker, work: BatchWork) -> None:
        """Run one work item on a worker (called on the worker thread): a
        whole batch, or one shard's partial-score program of it — the last
        shard to finish reduces."""
        deployment, segments, rows = work.deployment, work.segments, work.rows
        gather, marks = work.gather, work.marks
        started = time.monotonic()
        stages = None  # the run's stage record, until a metrics round counts it
        try:
            servable = deployment.servable
            # A batch that is exactly one caller's segment runs on the
            # caller's memory; any other batch is one concatenate.
            blocks = [segment.block for segment in segments]
            batch = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            # Power-of-two buckets: at most ``log2(max_batch_size) + 1``
            # program variants compile per (model, target).  A bucket is a
            # capacity, not a shape: its handle runs the batch's own rows
            # (the query parameter is row-mapped, checked at register).
            bucket = bucket_for(rows, self.max_batch_size)
            handle = deployment.handle_for(bucket, worker=worker, shard=work.shard)
            result = handle.run(**{servable.query_param: batch})
            stages = result.report.stages
            outputs = np.asarray(result.output)
            if gather is not None:
                # A shard's run is counted before any shard settles the batch.
                self.metrics.record_execution(deployment.name, stages, bucket)
                stages = None
                if not gather.complete(work.shard, outputs):
                    return  # not the last shard (or the batch already failed)
                outputs = deployment.reduce(gather.partials)
            if servable.postprocess is not None:
                outputs = servable.postprocess(outputs)
        except Exception as exc:
            if stages is not None:  # the program ran; its stages still count
                self.metrics.record_execution(deployment.name, stages, bucket)
            if gather is None or gather.fail(exc):  # the first failure settles the batch
                if marks is not None:
                    marks.step("dispatch", started, {"worker": worker.name})
                self._fail(work, exc)
            return
        # Shard workers run concurrently over the same requests, so only
        # the worker that settles the batch — the sole surviving owner —
        # touches its trace marks: the spans are the settling shard's, and
        # "execute" is the critical-path tail (earlier shards overlap it)
        # rather than summed shard time.
        if marks is not None:
            executed = time.monotonic()
            marks.step("dispatch", started, {"worker": worker.name})
            # Per-stage child spans (the executor's profile rows share the
            # monotonic clock), nested inside the contiguous execute
            # step.  Every request in the batch ran the same stages, so
            # each stage records one shared mark.
            for stage, start, end, gate, _, route, _, _ in result.report.stages.profile:
                marks.child(f"stage:{stage}", start, end, {"route": route, "gate_ms": round(gate * 1e3, 4)})
            marks.step("execute", executed, {"bucket": bucket, "batch": rows})
        self._resolve(work, outputs, started, stages, bucket)

    def _resolve(
        self, work: BatchWork, outputs: np.ndarray, execute_started: float, stages, bucket: int
    ) -> None:
        """Settle one executed batch: one metrics round (the settling run's
        stage record, and the batch's requests), the trace marks, then one
        ``settle`` per segment, by slice of ``outputs``."""
        deployment, segments = work.deployment, work.segments
        now = time.monotonic()
        # Metrics are recorded *before* any slot resolves (matching the
        # shed path's on_shed ordering), so a caller that drained on the
        # resolved slots reads a snapshot that already counts them.
        # Requests are attributed to the deployment *version* that served
        # them — after a hot-swap, the old version's in-flight tail and
        # the new version's traffic stay separable in the snapshot.
        violated = self.metrics.record_execution(
            deployment.name,
            stages,
            bucket,
            [
                (now - s.enqueued_at, max(0.0, execute_started - s.enqueued_at), len(s.block))
                for s in segments
            ],
            now - execute_started,
            version=deployment.version,
        )
        if work.marks is not None:
            # All trace mutation happens BEFORE any slot resolves: the
            # moment a completion fires, the front end may resume on its
            # own thread and append its transport span.
            work.marks.step("settle", now)
            for index in violated:
                for trace in segments[index].traces or ():
                    trace.slo_violated = True
            owned = [t for s in segments for t in s.traces or () if t.owner is not None]
            if owned:  # broker-minted: finished in-line, not by a done-callback
                self.tracer.finish_many(owned)
        start = 0
        for segment in segments:
            segment.completion.settle(segment.slots, outputs[start : start + len(segment.block)])
            start += len(segment.block)

    # -- observability ------------------------------------------------------------
    def stats(self, reset: bool = False) -> ServerStats:
        """A :class:`ServerStats` snapshot (latency splits, throughput,
        cache, workers, deadline sheds, SLOs and fair-scheduler lanes).

        ``reset=True`` atomically zeroes the metrics window under the same
        lock that took the snapshot — the scrape-then-reset idiom without
        the gap in which concurrent requests would vanish from every
        interval.
        """
        # Packed-storage deployments pack constants lazily (on the first
        # handle compile), so refresh each live deployment's residency
        # document before the snapshot instead of trusting install time.
        with self._cond:
            deployments = {name: lane[-1].deployment for name, lane in self._lanes.items()}
            backlog = {
                name: sum(-(-len(queue.batcher) // self.max_batch_size) for queue in lane)
                for name, lane in self._lanes.items()
            }
        for name, deployment in deployments.items():
            self.metrics.record_residency(name, deployment.residency())
        # A lane's batches wait in its batchers until a worker pulls them.
        lanes = self._scheduler.stats()
        for name, pending in backlog.items():
            lanes[name]["pending_batches"] = pending
        return self.metrics.snapshot(
            cache=self.registry.cache,
            workers=self.pool.workers,
            scheduler=lanes,
            reset=reset,
        )

    def reset_stats(self) -> None:
        """Zero the metrics window (per-interval reporting; SLOs survive)."""
        self.metrics.reset()

    def traces(self, limit: Optional[int] = None, clear: bool = False) -> list:
        """Retained request traces as JSON-safe dicts (oldest first).

        Empty when tracing is disabled.  ``clear=True`` empties the trace
        rings after the read (scrape-then-clear).
        """
        if self.tracer is None:
            return []
        return self.tracer.traces(limit=limit, clear=clear)

    def model_names(self) -> list:
        """Deployments with a live request queue, sorted by name."""
        with self._cond:
            return sorted(self._lanes)

    def __repr__(self) -> str:
        return (
            f"RequestBroker(models={self.model_names()}, pool={self.pool!r}, "
            f"max_batch={self.max_batch_size}, wait={self.max_wait_seconds * 1e3:.1f}ms, "
            f"running={self._running})"
        )
