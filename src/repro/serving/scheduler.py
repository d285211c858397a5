"""Multi-model fair scheduling and the multi-backend worker pool.

Two layers live here.

**Fairness across deployments.**  Every registered model feeds batches into
a :class:`FairScheduler` lane; a single dispatcher drains the scheduler and
hands batches to the pool.  Lane selection is *weighted round-robin with
starvation aging* (stride scheduling): each lane advances a virtual "pass"
by ``1 / weight`` per served batch and the lane with the smallest pass —
minus an aging bonus that grows with its head batch's wait — is served
next.  Under a skewed load this interleaves the cold model's occasional
batch between the hot model's backlog instead of queueing behind it, which
bounds the cold model's wait at a couple of batch service times.  Plain
per-model FIFO dispatch (the previous design) gives the cold model a wait
proportional to the hot model's entire backlog.

**Workers.**  A :class:`Worker` owns one back-end instance and a serial
execution thread:

* CPU workers default to the batched host kernel path
  (``CPUBackend(batched=True)``) so coalesced micro-batches execute as
  whole-hypermatrix library routines;
* GPU workers use the batched library kernels and device model as usual;
* accelerator workers (``hdc_asic`` / ``hdc_reram``) are created with
  ``reuse_session=True``, so one warm :class:`~repro.backends.runtime
  .DeviceSession` spans the worker's whole request stream and the base /
  class memory transfers of every batch after the first are elided —
  the paper's "lift redundant data movements" host optimization applied
  fleet-wide.

A :class:`WorkerPool` sends each :class:`BatchWork` item to the eligible
worker with the fewest samples in flight and pins the shard tasks of a
sharded deployment's batches to distinct workers
(:meth:`WorkerPool.plan_scatter`).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.backends import backend_for_target
from repro.backends.base import Backend
from repro.ir.dataflow import Target

__all__ = [
    "default_worker_backend",
    "BatchWork",
    "ShardGather",
    "FairScheduler",
    "Worker",
    "WorkerPool",
]

_ACCELERATOR_TARGETS = {Target.HDC_ASIC, Target.HDC_RERAM}
_SENTINEL = object()


def default_worker_backend(target: Target) -> Backend:
    """The serving-default back end for a target: batched host kernels on
    the CPU, a warm reusable device session on the accelerators."""
    if target == Target.CPU:
        return backend_for_target(target, batched=True)
    if target in _ACCELERATOR_TARGETS:
        return backend_for_target(target, reuse_session=True)
    return backend_for_target(target)


# ---------------------------------------------------------------------------
# Work items
# ---------------------------------------------------------------------------


@dataclass
class BatchWork:
    """One unit of worker work: a coalesced batch bound to a deployment.

    ``rows`` counts the rows of its ``segments`` (every load figure is in
    rows).  For sharded deployments one logical batch fans out into ``n_shards``
    ``BatchWork`` items sharing a :class:`ShardGather`; ``shard`` selects
    which slice of the class memory this item's worker searches.
    ``marks`` is the batch's shared trace-mark list
    (:class:`~repro.serving.observability.trace.SharedMarks`), ``None``
    when no request in the batch is traced.
    """

    deployment: object
    segments: list
    shard: int = 0
    gather: Optional["ShardGather"] = None
    marks: Optional[list] = None
    rows: int = field(init=False)

    def __post_init__(self) -> None:
        self.rows = sum(len(segment.block) for segment in self.segments)

    @property
    def enqueued_at(self) -> float:
        """Enqueue time of the oldest segment in the batch (for aging)."""
        return min(s.enqueued_at for s in self.segments) if self.segments else time.monotonic()


class ShardGather:
    """Rendezvous for the partial results of one scatter-executed batch.

    Each shard worker calls :meth:`complete` with its partial score
    matrix; the call that delivers the final missing partial returns
    ``True`` and its worker performs the reduction (so the reduce runs on
    whichever worker finishes last, with no extra thread).  The first
    shard to fail wins :meth:`fail` and resolves the batch's result slots with
    its error exactly once.
    """

    def __init__(self, n_shards: int):
        self.n_shards = n_shards
        self.partials: List[Optional[object]] = [None] * n_shards
        self._pending = n_shards
        self._failed = False
        self._lock = threading.Lock()

    def complete(self, shard: int, partial) -> bool:
        """Deliver one shard's partial; True when this was the last one."""
        with self._lock:
            if self._failed:
                return False
            self.partials[shard] = partial
            self._pending -= 1
            return self._pending == 0

    def fail(self, exc: BaseException) -> bool:
        """Mark the batch failed; True only for the first failing shard."""
        with self._lock:
            if self._failed:
                return False
            self._failed = True
            return True


# ---------------------------------------------------------------------------
# Fair scheduling across deployments
# ---------------------------------------------------------------------------


class FairScheduler:
    """Weighted round-robin over deployment lanes with starvation aging.

    Implements stride scheduling: lane ``i`` carries a virtual *pass*
    that advances by ``1 / weight_i`` each time the lane is served, and
    :meth:`next_ready` serves the non-empty lane with the smallest
    effective pass.  A lane that was idle re-enters at the global virtual
    time (it cannot hoard credit while empty).  The effective pass
    subtracts ``head_wait / aging_seconds`` stride units, so a lane whose
    head batch has waited long jumps the queue — the starvation-aging
    guarantee on top of proportional sharing.

    Args:
        aging_seconds: Wait time that earns one stride unit of priority
            boost.  Smaller values age faster (more latency-fair, less
            throughput-proportional).
    """

    def __init__(self, aging_seconds: float = 0.25):
        if aging_seconds <= 0:
            raise ValueError("aging_seconds must be positive")
        self.aging_seconds = aging_seconds
        self._queues: Dict[str, deque] = {}
        self._weights: Dict[str, float] = {}
        self._passes: Dict[str, float] = {}
        self._served: Dict[str, int] = {}
        self._vtime = 0.0
        self._cond = threading.Condition()
        self._closed = False

    # -- lanes --------------------------------------------------------------------
    def ensure_lane(self, name: str, weight: float = 1.0) -> None:
        """Create (or re-weight) the lane for one deployment."""
        if weight <= 0:
            raise ValueError("lane weight must be positive")
        with self._cond:
            self._queues.setdefault(name, deque())
            self._weights[name] = float(weight)
            self._passes.setdefault(name, self._vtime)
            self._served.setdefault(name, 0)

    # -- producer side ------------------------------------------------------------
    def offer(self, name: str, work: BatchWork) -> None:
        """Queue one batch on a deployment's lane."""
        with self._cond:
            lane = self._queues.get(name)
            if lane is None:
                self.ensure_lane(name)
                lane = self._queues[name]
            if not lane:
                # Re-entering after idling: no hoarded credit.
                self._passes[name] = max(self._passes[name], self._vtime)
            lane.append(work)
            self._cond.notify_all()

    # -- consumer side ------------------------------------------------------------
    def next_ready(
        self,
        timeout: Optional[float] = None,
        admissible: Optional[Callable[[BatchWork], bool]] = None,
    ) -> Optional[BatchWork]:
        """The next batch under weighted round-robin with aging.

        Blocks up to ``timeout`` for work; returns ``None`` on timeout or
        when the scheduler is closed and drained.

        Args:
            admissible: Optional predicate over a lane's head batch; a
                lane whose head fails it is skipped this round.  The
                server passes worker-capacity admission control here, so
                one model's saturated workers never head-of-line block
                another model whose workers are idle.  Inadmissible lanes
                are re-polled on a short tick (capacity frees up without
                a notification).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                name, blocked = self._select(admissible)
                if name is not None:
                    work = self._queues[name].popleft()
                    self._vtime = self._passes[name]
                    self._passes[name] += 1.0 / self._weights[name]
                    self._served[name] += 1
                    return work
                if self._closed and not blocked:
                    return None
                # With only inadmissible work queued, poll on a short
                # tick; otherwise sleep until offered work or timeout.
                wait = 5e-4 if blocked else None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._cond.wait(wait)

    def _select(
        self, admissible: Optional[Callable[[BatchWork], bool]] = None
    ) -> "tuple[Optional[str], bool]":
        """(Best admissible lane, whether any lane was skipped as blocked).

        Best = non-empty lane with the smallest aging-adjusted pass.
        """
        now = time.monotonic()
        best, best_score, blocked = None, None, False
        for name, lane in self._queues.items():
            if not lane:
                continue
            if admissible is not None and not admissible(lane[0]):
                blocked = True
                continue
            wait = now - lane[0].enqueued_at
            score = self._passes[name] - wait / self.aging_seconds
            if best_score is None or score < best_score:
                best, best_score = name, score
        return best, blocked

    # -- lifecycle / observability ------------------------------------------------
    def pending(self) -> int:
        with self._cond:
            return sum(len(lane) for lane in self._queues.values())

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop blocking consumers once the remaining lanes drain."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def stats(self) -> dict:
        """Per-lane weight / served / pending snapshot for ServerStats."""
        with self._cond:
            return {
                name: {
                    "weight": self._weights.get(name, 1.0),
                    "served_batches": self._served.get(name, 0),
                    "pending_batches": len(lane),
                }
                for name, lane in self._queues.items()
            }

    def __repr__(self) -> str:
        return f"FairScheduler(lanes={sorted(self._queues)}, aging={self.aging_seconds}s)"


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


class Worker:
    """One serial execution lane bound to a back-end instance."""

    def __init__(
        self,
        name: str,
        target: Union[str, Target],
        backend: Optional[Backend] = None,
    ):
        self.name = name
        self.target = Target(target) if not isinstance(target, Target) else target
        self.backend = backend if backend is not None else default_worker_backend(self.target)
        if self.backend.target != self.target:
            raise ValueError(f"backend targets {self.backend.target}, worker wants {self.target}")
        #: Cache scope: compiled programs for the stateless CPU/GPU back
        #: ends are shared per target; accelerator artifacts are tied to
        #: one device's residency state, so they are scoped per worker.
        self.scope = (
            f"{self.target.value}:{name}" if self.target in _ACCELERATOR_TARGETS else self.target.value
        )
        self.queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.inflight = 0
        self.batches = 0
        self.samples = 0
        self.busy_seconds = 0.0
        #: Exponentially-weighted seconds per sample (a worker stat).
        self.ewma_seconds_per_sample = 0.0

    # -- load accounting ----------------------------------------------------------
    def pending_samples(self) -> int:
        with self._lock:
            return self.inflight

    def submit(self, work: BatchWork) -> None:
        """Queue one :class:`BatchWork` for this worker's thread."""
        with self._lock:
            self.inflight += work.rows
        self.queue.put(work)

    def _record(self, n_samples: int, seconds: float) -> None:
        with self._lock:
            self.inflight -= n_samples
            self.batches += 1
            self.samples += n_samples
            self.busy_seconds += seconds
            per_sample = seconds / max(1, n_samples)
            if self.ewma_seconds_per_sample == 0.0:
                self.ewma_seconds_per_sample = per_sample
            else:
                self.ewma_seconds_per_sample += 0.25 * (per_sample - self.ewma_seconds_per_sample)

    def stats(self) -> dict:
        with self._lock:
            stats = {
                "target": self.target.value,
                "batches": self.batches,
                "samples": self.samples,
                "busy_seconds": self.busy_seconds,
                "ewma_seconds_per_sample": self.ewma_seconds_per_sample,
            }
        session = getattr(self.backend, "last_session", None)
        stats["elided_transfers"] = session.elided_transfers if session is not None else 0
        stats["capacity_evictions"] = getattr(session, "capacity_evictions", 0) if session is not None else 0
        return stats

    # -- thread -------------------------------------------------------------------
    def start(self, execute: Callable[["Worker", BatchWork], None]) -> None:
        """Start the worker thread; ``execute(worker, work)`` runs a batch."""
        if self._thread is not None:
            return

        def loop() -> None:
            while True:
                work = self.queue.get()
                if work is _SENTINEL:
                    break
                start = time.perf_counter()
                try:
                    execute(self, work)
                finally:
                    self._record(work.rows, time.perf_counter() - start)

        self._thread = threading.Thread(target=loop, name=f"hdc-worker-{self.name}", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Process remaining queued work, then join the thread."""
        if self._thread is None:
            return
        self.queue.put(_SENTINEL)
        self._thread.join()
        self._thread = None

    def __repr__(self) -> str:
        return f"Worker({self.name!r}, target={self.target.value}, batches={self.batches})"


class WorkerPool:
    """A fleet of workers; each batch goes to the least-loaded eligible one."""

    def __init__(self, workers: Iterable[Union[str, Target, Worker]] = ("cpu",)):
        self.workers: List[Worker] = []
        counts: dict = {}
        for spec in workers:
            if isinstance(spec, Worker):
                self.workers.append(spec)
                continue
            target = Target(spec) if not isinstance(spec, Target) else spec
            index = counts.get(target.value, 0)
            counts[target.value] = index + 1
            self.workers.append(Worker(f"{target.value}-{index}", target))
        if not self.workers:
            raise ValueError("worker pool needs at least one worker")
        self._started = False

    def eligible(self, servable) -> List[Worker]:
        return [w for w in self.workers if servable.supports_target(w.target)]

    def min_backlog(self, servable) -> int:
        """Smallest in-flight sample count among eligible workers.

        The server's dispatcher uses this for admission control: holding
        batches in the :class:`FairScheduler` until a worker is nearly
        free is what lets weighted round-robin actually interleave models
        — once a batch sits in a worker's FIFO queue its order is fixed.
        """
        workers = self.eligible(servable)
        if not workers:
            return 0
        return min(w.pending_samples() for w in workers)

    def dispatch(self, servable, work: BatchWork) -> Worker:
        """Route one batch to the eligible worker with the fewest samples in
        flight; a tie goes to the first one listed."""
        worker = min(self._require_eligible(servable), key=Worker.pending_samples)
        worker.submit(work)
        return worker

    def plan_scatter(self, servable, n_shards: int) -> List[Worker]:
        """A deterministic shard→worker pinning for one sharded deployment.

        Eligible workers in stable name order, shard *i* pinned to worker
        ``i % len(workers)``: with at least as many workers as shards each
        takes one (true scatter — no single worker holds the whole class
        memory); with fewer, shards wrap around and execute serially on
        their shared workers, which stays correct.  A shard that always
        lands on the same worker keeps its slice resident in that worker's
        ``DeviceSession`` (and its compiled handles hot), so steady-state
        shard execution elides the per-batch constants transfer — ranking
        by load instead would migrate shards batch to batch and re-stream
        a slice on every migration, ruinous for accelerator workers whose
        class memory is the expensive resource.  Deterministic across
        processes and across hot-swaps (the plan depends only on pool
        composition), so a swapped deployment re-pins each shard to the
        worker already holding that slice's predecessor — the new slice
        replaces the old one in the same ``DeviceSession`` instead of
        rotating all shards to new workers.
        """
        workers = sorted(self._require_eligible(servable), key=lambda w: w.name)
        return [workers[index % len(workers)] for index in range(int(n_shards))]

    def _require_eligible(self, servable) -> List[Worker]:
        workers = self.eligible(servable)
        if not workers:
            raise RuntimeError(
                f"no worker in the pool supports {servable.name!r} "
                f"(targets {servable.supported_targets})"
            )
        return workers

    def start(self, execute: Callable[[Worker, BatchWork], None]) -> None:
        if self._started:
            return
        for worker in self.workers:
            worker.start(execute)
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        for worker in self.workers:
            worker.stop()
        self._started = False

    def __repr__(self) -> str:
        return f"WorkerPool({[w.name for w in self.workers]})"
